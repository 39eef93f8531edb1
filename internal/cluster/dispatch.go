package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// shardRanges partitions [0, n) into 64-aligned shards. It aims for about
// four shards per worker slot — enough granularity that a straggler near
// the end of a sweep idles no one — but never lets a shard exceed
// maxBlocks 64-origin blocks, so a retried shard stays cheap.
// The shard count is rounded up to a multiple of slots and the blocks
// spread evenly over it, so the even drain split (see fanout) hands every
// slot the same amount of work: 69,488 ASes on two slots are 18 shards of
// 61 blocks, not 17 of 64 split 9 to 8. Every boundary except possibly the
// last is a multiple of laneWidth, which keeps every propagation word of
// the bit-parallel engine full.
func shardRanges(n, slots, maxBlocks int) []Range {
	if n <= 0 {
		return nil
	}
	if slots < 1 {
		slots = 1
	}
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	blocks := (n + laneWidth - 1) / laneWidth
	count := max(slots*4, (blocks+maxBlocks-1)/maxBlocks)
	count = (count + slots - 1) / slots * slots
	per := (blocks + count - 1) / count
	step := per * laneWidth
	out := make([]Range, 0, (n+step-1)/step)
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// admit is the pool's load-shedding gate: a query is admitted only while
// fewer than MaxQueries fan-outs are in flight.
func (p *Pool) admit() error {
	if p.queries.Add(1) > int64(p.cfg.MaxQueries) {
		p.queries.Add(-1)
		p.shed.Add(1)
		return ErrSaturated
	}
	return nil
}

// maxCoalesce bounds how many queued shards one request may carry. The
// cap limits the blast radius of a single lost response and keeps any one
// request's latency (the worker computes its ranges
// sequentially under one serving slot) within a small multiple of a
// single shard's.
const maxCoalesce = 32

// fanout executes n shards across slots — the healthy workers when the
// query starts, one entry per slot — and commits each shard's result
// exactly once.
//
// Mechanics: shards go into a queue, and each slot gets one puller
// goroutine. A puller drains up to maxBatch queued shards (fewer when an
// even split across the slots is smaller) and sends them as one request —
// the streaming merge that turns a fan-out's per-shard round trips into a
// handful of requests whose frames decode straight into disjoint slices of
// the merge output. At most one attempt of a shard is in flight: a shard
// is either queued, held by one puller, or done. A failed attempt — an
// error, a bad frame, or a worker that outlives the shard deadline —
// demotes the worker (one strike; the background prober restores it) and
// requeues each member for a peer, up to MaxAttempts tries per shard; past
// that the shard runs locally, or fails the query without a fallback. A
// puller returns once its worker is demoted, and the last puller out with
// shards unfinished drains them through the local fallback, or fails the
// query with errNoWorkers when there is none. Completion is a per-shard
// CAS, so a shard commits exactly once.
func (p *Pool) fanout(ctx context.Context, slots []*Worker, n, maxBatch int,
	remote func(ctx context.Context, w *Worker, idxs []int) ([]func(), error),
	local func(ctx context.Context, i int) (func(), error)) error {
	if n == 0 {
		return nil
	}
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// A shard is never queued twice, so n slots hold every enqueue.
	queue := make(chan int, n)
	done := make([]atomic.Bool, n)
	attempts := make([]atomic.Int32, n)
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// finish commits shard i; the last commit closes the queue, which
	// releases every puller waiting on it. No send can follow: every send
	// queues an undone shard.
	finish := func(i int, commit func(), where *atomic.Int64) {
		if !done[i].CompareAndSwap(false, true) {
			return
		}
		commit()
		where.Add(1)
		if remaining.Add(-1) == 0 {
			close(queue)
		}
	}
	runLocal := func(i int) bool {
		commit, err := local(qctx, i)
		if err != nil {
			fail(err)
			return false
		}
		finish(i, commit, &p.local)
		return true
	}
	// drainLocal finishes every undone shard on the coordinator. It runs
	// only once no puller is left, so nothing else touches a shard.
	drainLocal := func() {
		if local == nil {
			fail(errNoWorkers)
			return
		}
		for i := range done {
			if !done[i].Load() && !runLocal(i) {
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		queue <- i
	}

	// attempt sends one drained batch to w in a single request. A member
	// past MaxAttempts drains locally instead (or fails the query).
	attempt := func(w *Worker, batch []int) {
		live := batch[:0]
		for _, i := range batch {
			att := int(attempts[i].Add(1))
			switch {
			case att <= p.cfg.MaxAttempts:
				if att > 1 {
					p.retries.Add(1)
				}
				live = append(live, i)
			case local == nil:
				fail(fmt.Errorf("cluster: shard %d failed after %d attempts", i, p.cfg.MaxAttempts))
				return
			case !runLocal(i):
				return
			}
		}
		if len(live) == 0 {
			return
		}
		w.inflight.Add(int64(len(live)))
		commits, err := remote(qctx, w, live)
		w.inflight.Add(-int64(len(live)))
		if err != nil {
			if qctx.Err() != nil {
				return // query canceled; not the worker's fault
			}
			w.fails.Add(1)
			w.healthy.Store(false) // one strike; the prober restores it
			for _, i := range live {
				queue <- i
			}
			return
		}
		for k, i := range live {
			w.shards.Add(1)
			finish(i, commits[k], &p.remote)
		}
	}

	// batchCap is the drain limit: an even split of the shard count across
	// the slots, so the first puller to reach the queue cannot starve its
	// peers, capped by maxBatch.
	batchCap := min((n+len(slots)-1)/max(len(slots), 1), maxBatch)

	var wg sync.WaitGroup
	var pullers atomic.Int64
	pullers.Store(int64(len(slots)))
	puller := func(w *Worker) {
		defer wg.Done()
		defer func() {
			if pullers.Add(-1) == 0 && remaining.Load() > 0 && qctx.Err() == nil {
				drainLocal()
			}
		}()
		var batch []int
		for w.healthy.Load() {
			select {
			case <-qctx.Done():
				return
			case i, ok := <-queue:
				if !ok {
					return
				}
				batch = append(batch[:0], i)
			}
			// The queue stays open while this puller holds an undone shard.
		drain:
			for len(batch) < batchCap {
				select {
				case j := <-queue:
					batch = append(batch, j)
				default:
					break drain
				}
			}
			attempt(w, batch)
		}
	}
	for _, w := range slots {
		wg.Add(1)
		go puller(w)
	}
	if len(slots) == 0 {
		drainLocal() // no worker at all: the coordinator answers alone
	}
	wg.Wait()

	if remaining.Load() == 0 {
		return nil
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// query is one fan-out: n results partitioned into 64-aligned shards, each
// drained batch of shards posted to path as request(ranges) and answered
// with one frame per shard, vetted by check and merged by decode.
type query[T int | float64] struct {
	n    int
	path string
	// maxBatch caps the shards one request carries: maxCoalesce for range
	// sweeps, 1 for the shapes whose request names a single slice.
	maxBatch int
	request  func(rs []Range) any
	check    func(frame []byte, n int) error
	decode   func(dst []T, frame []byte) error
	// local computes results [lo, hi) on the coordinator; nil means no
	// fallback.
	local func(ctx context.Context, lo, hi int) ([]T, error)
}

// run admits q, fans it out, and returns the merged results in partition
// order — every shard a disjoint slice of the output, so the merge is a
// concatenation.
func run[T int | float64](ctx context.Context, p *Pool, q query[T]) ([]T, error) {
	if err := p.admit(); err != nil {
		return nil, err
	}
	defer p.queries.Add(-1)
	slots := p.healthySlots()
	shards := shardRanges(q.n, len(slots), p.cfg.ShardBlocks)
	out := make([]T, q.n)
	remote := func(ctx context.Context, w *Worker, idxs []int) ([]func(), error) {
		rs := make([]Range, len(idxs))
		dsts := make([][]T, len(idxs))
		for k, i := range idxs {
			rs[k] = shards[i]
			dsts[k] = out[shards[i].Lo:shards[i].Hi]
		}
		body, err := json.Marshal(q.request(rs))
		if err != nil {
			return nil, err
		}
		return fetchFrames(ctx, p, w, q.path, body, dsts, q.check, q.decode)
	}
	var local func(context.Context, int) (func(), error)
	if q.local != nil {
		local = func(ctx context.Context, i int) (func(), error) {
			s := shards[i]
			vals, err := q.local(ctx, s.Lo, s.Hi)
			if err != nil {
				return nil, err
			}
			return func() { copy(out[s.Lo:s.Hi], vals) }, nil
		}
	}
	if err := p.fanout(ctx, slots, len(shards), q.maxBatch, remote, local); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepCounts computes the reachability count of every dense graph index
// in [0, n) for the named kind, partitioned across the cluster. The
// merged slice is exactly what core.Metrics.ReachabilityAll returns: each
// shard is a disjoint index range computed by the same engine, and counts
// are exact integers, so concatenation is byte-identical to the
// single-process sweep.
func (p *Pool) SweepCounts(ctx context.Context, kind string, n int) ([]int, error) {
	q := query[int]{n: n, path: PathSweep, maxBatch: maxCoalesce, check: CheckCounts, decode: DecodeCountsInto,
		request: func(rs []Range) any { return SweepRequest{Kind: kind, Ranges: rs} }}
	if p.cfg.LocalSweep != nil {
		q.local = func(ctx context.Context, lo, hi int) ([]int, error) { return p.cfg.LocalSweep(ctx, kind, lo, hi) }
	}
	return run(ctx, p, q)
}

// BatchCounts computes reach counts for an explicit origin list (ASNs),
// partitioned across the cluster in request order. Shard boundaries are
// 64-aligned positions in the list, so each shard rides full bit-parallel
// words on its worker and the concatenated result preserves input order.
func (p *Pool) BatchCounts(ctx context.Context, origins []uint32, kind string) ([]int, error) {
	q := query[int]{n: len(origins), path: PathSweep, maxBatch: 1, check: CheckCounts, decode: DecodeCountsInto,
		request: func(rs []Range) any { return SweepRequest{Kind: kind, Origins: origins[rs[0].Lo:rs[0].Hi]} }}
	if p.cfg.LocalBatch != nil {
		q.local = func(ctx context.Context, lo, hi int) ([]int, error) {
			return p.cfg.LocalBatch(ctx, kind, origins[lo:hi])
		}
	}
	return run(ctx, p, q)
}

// LeakFracs replays a leak-trial batch across the cluster: leakers are
// sampled deterministically from (origin, trials, seed) on every node, so
// shard [lo, hi) of the sample means the same leakers everywhere and the
// concatenated detoured fractions are in exactly the order the
// single-process engine would produce — the aggregate stats downstream
// (mean, p95, worst) sum the same floats in the same order. n is the
// actual sample length (bgpsim.SampleLeakers caps the request at the
// graph size, so it can be below lq.Trials); the caller computes it from
// its own sample and every worker reproduces the identical sample.
func (p *Pool) LeakFracs(ctx context.Context, lq LeakQuery, n int) ([]float64, error) {
	q := query[float64]{n: n, path: PathLeak, maxBatch: 1, check: CheckFracs, decode: DecodeFracsInto,
		request: func(rs []Range) any { return LeakRequest{LeakQuery: lq, Lo: rs[0].Lo, Hi: rs[0].Hi} }}
	if p.cfg.LocalLeak != nil {
		q.local = func(ctx context.Context, lo, hi int) ([]float64, error) { return p.cfg.LocalLeak(ctx, lq, lo, hi) }
	}
	return run(ctx, p, q)
}
