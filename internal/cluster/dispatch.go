package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// shardRanges partitions [0, n) into 64-aligned shards. It aims for about
// four shards per worker slot — enough granularity that a straggler near
// the end of a sweep idles no one — but never lets a shard exceed
// maxBlocks 64-origin blocks, so a retried or hedged shard stays cheap.
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

// fanout executes n shards across the pool's healthy workers and commits
// each shard's result exactly once.
//
// Mechanics: shards go into a queue; each healthy worker gets one puller
// goroutine per slot. A puller drains up to maxBatch queued shards (fewer
// when an even split across every healthy slot is smaller) and sends them
// as one request — the streaming merge that turns a fan-out's per-shard
// round trips into a handful of requests whose frames decode straight into
// disjoint slices of the merge output. A failed attempt demotes the worker
// (one strike — the background prober restores it) and requeues each
// member for a peer, up to MaxAttempts tries per shard. The first attempt
// of each shard arms a hedge timer: if the shard is still unfinished at
// the hedge delay, a duplicate is dispatched to another worker and the
// first result wins. Completion is a per-shard CAS, so of two racing
// attempts only the winner commits — that CAS is the whole merging-safety
// argument — and a single-shard loser's request is canceled via its
// per-shard context. If every worker dies mid-query, a monitor drains the
// remaining shards through the local fallback; with no fallback the query
// fails instead of hanging.
func (p *Pool) fanout(ctx context.Context, n, maxBatch int,
	remote func(ctx context.Context, w *Worker, idxs []int) ([]func(), error),
	local func(ctx context.Context, i int) (func(), error)) error {
	if n == 0 {
		return nil
	}
	workers := p.healthyWorkers()
	if len(workers) == 0 {
		if local == nil {
			return errNoWorkers
		}
		for i := 0; i < n; i++ {
			commit, err := local(ctx, i)
			if err != nil {
				return err
			}
			commit()
			p.local.Add(1)
		}
		return nil
	}

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()

	queue := make(chan int, n*(2*p.cfg.MaxAttempts+2))
	done := make([]atomic.Bool, n)
	attempts := make([]atomic.Int32, n)
	hedged := make([]atomic.Bool, n)
	allDone := make(chan struct{})
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
	finish := func(i int, commit func(), where *atomic.Int64) bool {
		if !done[i].CompareAndSwap(false, true) {
			return false
		}
		commit()
		where.Add(1)
		if remaining.Add(-1) == 0 {
			close(allDone)
		}
		return true
	}
	// Per-shard contexts: canceling one aborts the hedge loser's request
	// the moment the winner commits, without touching other shards.
	sctx := make([]context.Context, n)
	scancel := make([]context.CancelFunc, n)
	for i := range sctx {
		sctx[i], scancel[i] = context.WithCancel(qctx)
	}
	defer func() {
		for _, c := range scancel {
			c()
		}
	}()
	requeue := func(i int) {
		select {
		case queue <- i:
		default:
			// The queue is sized for every possible enqueue (initial +
			// failure requeues + one hedge per shard), so this is
			// unreachable; dropping is still safer than blocking.
		}
	}
	for i := 0; i < n; i++ {
		queue <- i
	}

	hedge := p.hedgeDelay()
	// preAttempt runs one shard's per-attempt bookkeeping — attempt
	// accounting, the local-fallback drain past MaxAttempts, the retry
	// counter, arming the first-attempt hedge timer — and reports whether
	// the shard should still go to a worker.
	preAttempt := func(i int) bool {
		if done[i].Load() {
			return false
		}
		att := int(attempts[i].Add(1))
		if att > p.cfg.MaxAttempts {
			if local == nil {
				fail(fmt.Errorf("cluster: shard %d failed after %d attempts", i, p.cfg.MaxAttempts))
				return false
			}
			commit, err := local(qctx, i)
			if err != nil {
				fail(err)
				return false
			}
			finish(i, commit, &p.local)
			return false
		}
		if att > 1 && !hedged[i].CompareAndSwap(true, false) {
			p.retries.Add(1)
		}
		if att == 1 && hedge > 0 {
			time.AfterFunc(hedge, func() {
				if !done[i].Load() && qctx.Err() == nil {
					p.hedges.Add(1)
					hedged[i].Store(true)
					requeue(i)
				}
			})
		}
		return true
	}
	// attempt sends the live members of one drained batch to w in a single
	// request.
	attempt := func(w *Worker, batch []int) {
		live := batch[:0]
		for _, i := range batch {
			if preAttempt(i) {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return
		}
		// A lone shard runs under its own context, so a hedge winner
		// cancels it; a coalesced request runs under the query context: a
		// hedge winning one member must not abort the members still
		// pending. The per-shard CAS keeps the race safe either way — a
		// loser's commit simply never runs.
		actx := qctx
		if len(live) == 1 {
			actx = sctx[live[0]]
		}
		w.inflight.Add(int64(len(live)))
		start := time.Now()
		commits, err := remote(actx, w, live)
		w.inflight.Add(-int64(len(live)))
		if err != nil {
			if actx.Err() != nil {
				return // shard already won or query canceled; not the worker's fault
			}
			w.fails.Add(1)
			w.healthy.Store(false) // one strike; the prober restores it
			for _, i := range live {
				requeue(i)
			}
			return
		}
		// One latency sample per request: the adaptive hedge point tracks
		// round-trip cost at the granularity work is actually dispatched.
		p.lat.record(time.Since(start))
		for k, i := range live {
			w.shards.Add(1)
			if finish(i, commits[k], &p.remote) {
				scancel[i]()
			}
		}
	}

	// batchCap is the drain limit: an even split of the shard count across
	// every healthy slot, so the first puller to reach the queue cannot
	// starve its peers, capped by maxBatch.
	slots := 0
	for _, w := range workers {
		slots += w.slots
	}
	batchCap := min((n+slots-1)/slots, maxBatch)

	var wg sync.WaitGroup
	for _, w := range workers {
		for s := 0; s < w.slots; s++ {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				var batch []int
				for {
					if !w.healthy.Load() {
						return
					}
					select {
					case <-qctx.Done():
						return
					case <-allDone:
						return
					case i := <-queue:
						batch = append(batch[:0], i)
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
			}(w)
		}
	}

	// Monitor: if the whole pool dies mid-query, drain what is left
	// through the local fallback (or fail fast without one).
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-qctx.Done():
				return
			case <-allDone:
				return
			case <-t.C:
			}
			if len(p.healthyWorkers()) > 0 {
				continue
			}
			if local == nil {
				fail(errNoWorkers)
				return
			}
			for i := 0; i < n; i++ {
				if done[i].Load() {
					continue
				}
				commit, err := local(qctx, i)
				if err != nil {
					fail(err)
					return
				}
				finish(i, commit, &p.local)
			}
		}
	}()

	select {
	case <-allDone:
		cancel()
		wg.Wait()
		return nil
	case <-qctx.Done():
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		return ctx.Err()
	}
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
	shards := shardRanges(q.n, p.totalSlots(), p.cfg.ShardBlocks)
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
	if err := p.fanout(ctx, len(shards), q.maxBatch, remote, local); err != nil {
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
