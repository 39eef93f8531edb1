package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatnet/internal/astopo"
)

func TestShardRangesPartitionAndAlign(t *testing.T) {
	cases := []struct{ n, slots, maxBlocks int }{
		{1, 1, 64}, {63, 1, 64}, {64, 1, 64}, {65, 1, 64},
		{1485, 2, 1}, {1485, 2, 64}, {69488, 8, 64}, {100000, 3, 16},
		{128, 100, 64}, {4096, 1, 4},
	}
	for _, c := range cases {
		shards := shardRanges(c.n, c.slots, c.maxBlocks)
		if len(shards) == 0 {
			t.Fatalf("n=%d: no shards", c.n)
		}
		next := 0
		for i, s := range shards {
			if s.Lo != next {
				t.Fatalf("n=%d slots=%d: shard %d starts at %d, want %d (gap or overlap)", c.n, c.slots, i, s.Lo, next)
			}
			if s.Hi <= s.Lo {
				t.Fatalf("n=%d: empty shard [%d, %d)", c.n, s.Lo, s.Hi)
			}
			if s.Lo%laneWidth != 0 {
				t.Fatalf("n=%d: shard %d boundary %d not %d-aligned", c.n, i, s.Lo, laneWidth)
			}
			if blocks := (s.Hi - s.Lo + laneWidth - 1) / laneWidth; blocks > c.maxBlocks {
				t.Fatalf("n=%d maxBlocks=%d: shard [%d,%d) spans %d blocks", c.n, c.maxBlocks, s.Lo, s.Hi, blocks)
			}
			next = s.Hi
		}
		if next != c.n {
			t.Fatalf("n=%d: shards cover [0, %d)", c.n, next)
		}
	}
	if got := shardRanges(0, 4, 64); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	// A full-scale sweep on two slots splits evenly: 18 shards of 61
	// blocks drain 9 and 9, where 17 of 64 would drain 9 and 8.
	if got := shardRanges(69488, 2, 64); len(got) != 18 || got[0].Hi != 61*laneWidth {
		t.Fatalf("69,488 ASes on 2 slots: %d shards, first %v; want 18 of 61 blocks", len(got), got[0])
	}
}

func TestCanonicalAddr(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:9000":         "http://127.0.0.1:9000",
		"http://127.0.0.1:9000/": "http://127.0.0.1:9000",
		"https://host":           "https://host",
	} {
		if got := CanonicalAddr(in); got != want {
			t.Errorf("CanonicalAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDatasetHashStableAndDistinct(t *testing.T) {
	build := func() (*astopo.Graph, astopo.ASSet, astopo.ASSet) {
		g := astopo.NewGraph(0, 0)
		for _, l := range [][3]int{{1, 100, 0}, {100, 2, 1}, {2, 6, 0}} {
			rel := astopo.P2C
			if l[2] == 1 {
				rel = astopo.P2P
			}
			if err := g.AddLink(astopo.ASN(l[0]), astopo.ASN(l[1]), rel); err != nil {
				t.Fatal(err)
			}
		}
		return g, astopo.NewASSet(1, 2), astopo.NewASSet(100)
	}
	g1, t1a, t2a := build()
	g2, t1b, t2b := build()
	h1 := DatasetHash(g1, t1a, t2a)
	h2 := DatasetHash(g2, t1b, t2b)
	if h1 != h2 {
		t.Fatalf("identical datasets hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not a sha256 hex digest", h1)
	}
	if h := DatasetHash(g1, astopo.NewASSet(1), t2a); h == h1 {
		t.Fatal("changing the Tier-1 set did not change the world hash")
	}
	g3, t1c, t2c := build()
	if err := g3.AddLink(6, 7, astopo.P2C); err != nil {
		t.Fatal(err)
	}
	if h := DatasetHash(g3, t1c, t2c); h == h1 {
		t.Fatal("adding a link did not change the world hash")
	}
}

// fakeWorker is a frames-only shard server with predictable answers:
// counts[i] = lo + i for every requested range (ranges or a bare lo/hi),
// one length-prefixed frame per range, and counts[i] = origins[i] for an
// origin list. The fail gate,
// once set, turns every subsequent shard request into a 500 — the "worker
// dies between shard responses" scenario.
type fakeWorker struct {
	srv    *httptest.Server
	served atomic.Int64 // sweep requests answered
	fail   atomic.Bool

	// dieAfter > 0 makes the sweep handler set fail itself, before it
	// answers the dieAfter-th request, so the death is ordered by the
	// worker's own responses and not by a watcher's clock.
	dieAfter int64
	// onSweep, when set, runs at the top of every sweep request (failing
	// says whether the request is about to be refused); tests block in it
	// to order two workers' answers without sleeping.
	onSweep func(failing bool)
	// corrupt makes a multi-range answer keep its first frame and then
	// trail junk, and takes the worker dark (healthz included) so the
	// remaining shards drain through the local fallback instead of racing
	// the prober.
	corrupt bool
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if fw.fail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST "+PathSweep, func(w http.ResponseWriter, r *http.Request) {
		failing := fw.fail.Load()
		if fw.onSweep != nil {
			fw.onSweep(failing)
		}
		if failing {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var body []byte
		appendFrame := func(counts []int) {
			frame := AppendCounts(nil, counts)
			body = AppendFramePrefix(body, len(frame))
			body = append(body, frame...)
		}
		if len(req.Origins) > 0 {
			counts := make([]int, len(req.Origins))
			for i, o := range req.Origins {
				counts[i] = int(o)
			}
			appendFrame(counts)
		}
		ranges := req.Ranges
		if req.Lo != 0 || req.Hi != 0 {
			ranges = []Range{{req.Lo, req.Hi}} // a bare lo/hi is a one-element ranges
		}
		for k, rg := range ranges {
			if fw.corrupt && k == 1 {
				fw.fail.Store(true)
				body = append(body, "not a frame"...)
				break
			}
			counts := make([]int, rg.Hi-rg.Lo)
			for i := range counts {
				counts[i] = rg.Lo + i
			}
			appendFrame(counts)
		}
		if fw.served.Add(1) == fw.dieAfter {
			fw.fail.Store(true)
		}
		w.Header().Set("Content-Type", WireContentType)
		w.Write(body)
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

func newTestPool(t *testing.T, cfg PoolConfig, workers ...*fakeWorker) *Pool {
	t.Helper()
	cfg.World = "test-world"
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	for _, fw := range workers {
		p.Register(fw.srv.URL, 1)
	}
	return p
}

// TestPoolCoalescesWireShards pins the round-trip collapse: a puller
// drains the queue into one multi-range request from a fresh worker's
// very first pull, with no capability round trip first, and the merged
// counts stay exactly the identity.
func TestPoolCoalescesWireShards(t *testing.T) {
	fw := newFakeWorker(t)
	p := newTestPool(t, PoolConfig{ShardBlocks: 1}, fw)
	const n = 64 * 8 // 8 one-block shards, one slot
	for sweep := int64(1); sweep <= 2; sweep++ {
		counts, err := p.SweepCounts(context.Background(), "full", n)
		if err != nil {
			t.Fatal(err)
		}
		wantIdentity(t, counts, n)
		st := p.StatsSnapshot()
		if got := fw.served.Load(); got != sweep {
			t.Fatalf("after sweep %d: %d round trips, want %d (one per sweep); stats %+v", sweep, got, sweep, st)
		}
		if st.MultiBatches != sweep || st.RemoteShards != 8*sweep {
			t.Fatalf("after sweep %d: multi batches = %d, remote shards = %d; want %d, %d", sweep, st.MultiBatches, st.RemoteShards, sweep, 8*sweep)
		}
		if st.WireBytes <= 0 {
			t.Fatalf("wire_bytes = %d, want > 0", st.WireBytes)
		}
	}
}

// TestPoolMultiFailureRequeuesMembers: a worker whose multi-range response
// is garbage must not poison the merge — every member is requeued and the
// query drains through the fallback with the exact answer.
func TestPoolMultiFailureRequeuesMembers(t *testing.T) {
	fw := newFakeWorker(t)
	fw.corrupt = true
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, MaxAttempts: 2, LocalSweep: identitySweep}, fw)
	const n = 64 * 6
	counts, err := p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st := p.StatsSnapshot()
	if st.LocalShards == 0 || st.RemoteShards != 0 {
		t.Fatalf("a corrupt multi response must be rejected whole and drain locally (stats %+v)", st)
	}
}

// identitySweep is a local fallback with the fake workers' answers.
func identitySweep(_ context.Context, _ string, lo, hi int) ([]int, error) {
	c := make([]int, hi-lo)
	for i := range c {
		c[i] = lo + i
	}
	return c, nil
}

func wantIdentity(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d counts, want %d", len(got), n)
	}
	for i, c := range got {
		if c != i {
			t.Fatalf("count[%d] = %d, want %d (shard merged out of place)", i, c, i)
		}
	}
}

func TestPoolSweepMergesShards(t *testing.T) {
	// Each worker's first request waits until the other has one too, so
	// neither can drain the whole queue before its peer pulls.
	var seen atomic.Int32
	both := make(chan struct{})
	meet := func(bool) {
		if seen.Add(1) == 2 {
			close(both)
		}
		<-both
	}
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.onSweep, w2.onSweep = meet, meet
	p := newTestPool(t, PoolConfig{ShardBlocks: 1}, w1, w2)
	const n = 1000 // 16 shards at one block each
	counts, err := p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st := p.StatsSnapshot()
	if st.RemoteShards != 16 {
		t.Fatalf("remote shards = %d, want 16", st.RemoteShards)
	}
	for _, w := range st.Workers {
		if w.Shards == 0 {
			t.Fatalf("worker %s computed no shards; partitioning is not spreading load", w.Addr)
		}
		if w.Inflight != 0 {
			t.Fatalf("worker %s still shows %d in-flight after completion", w.Addr, w.Inflight)
		}
	}
}

// TestPoolRetriesOnWorkerDeath kills one worker after its first response;
// the shards it refuses must be retried on the healthy peer and the merged
// result must be exactly what a single process would produce. The death
// is the dying worker's own doing (dieAfter), and the healthy peer answers
// nothing until the dying one has refused a request. Each pull takes at
// most 32 of the 128 shards, so the dying worker always pulls a second
// batch to refuse, and every refused shard's second attempt is a counted
// retry.
func TestPoolRetriesOnWorkerDeath(t *testing.T) {
	refused := make(chan struct{})
	var once sync.Once
	dying := newFakeWorker(t)
	dying.dieAfter = 1
	dying.onSweep = func(failing bool) {
		if failing {
			once.Do(func() { close(refused) })
		}
	}
	healthy := newFakeWorker(t)
	healthy.onSweep = func(bool) { <-refused }
	p := newTestPool(t, PoolConfig{ShardBlocks: 1}, dying, healthy)

	const n = 8192 // 128 shards
	counts, err := p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st := p.StatsSnapshot()
	if st.Retries == 0 {
		t.Fatalf("worker died mid-sweep but retries = 0 (stats: %+v)", st)
	}
	for _, w := range st.Workers {
		if w.Addr == dying.srv.URL && w.Healthy {
			t.Fatal("dead worker still marked healthy after a failed shard")
		}
	}
}

func TestPoolAllWorkersDeadFallsBackToLocal(t *testing.T) {
	dead := newFakeWorker(t)
	dead.fail.Store(true)
	var localCalls atomic.Int64
	cfg := PoolConfig{ShardBlocks: 1, MaxAttempts: 2,
		LocalSweep: func(_ context.Context, _ string, lo, hi int) ([]int, error) {
			localCalls.Add(1)
			out := make([]int, hi-lo)
			for i := range out {
				out[i] = lo + i
			}
			return out, nil
		}}
	p := newTestPool(t, cfg, dead)
	counts, err := p.SweepCounts(context.Background(), "full", 500)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, 500)
	if localCalls.Load() == 0 {
		t.Fatal("local fallback never ran")
	}
	if st := p.StatsSnapshot(); st.LocalShards == 0 {
		t.Fatalf("local shards = 0, want >0 (stats: %+v)", st)
	}
}

func TestPoolAllWorkersDeadNoLocalFails(t *testing.T) {
	dead := newFakeWorker(t)
	dead.fail.Store(true)
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, MaxAttempts: 2}, dead)
	_, err := p.SweepCounts(context.Background(), "full", 500)
	if err == nil {
		t.Fatal("sweep over a dead pool with no fallback should fail")
	}
}

// TestPoolLastPullerOutDrains: a query's pullers belong to the workers
// healthy when it starts, so a worker that joins mid-query holds none. Once
// the only puller has gone with its demoted worker, the shards left must
// drain through the local fallback — or fail with errNoWorkers without one
// — instead of waiting for the newcomer until the deadline. Worker a
// registers late from inside its first request, answers that request (32
// of 64 shards), and refuses every one after it.
func TestPoolLastPullerOutDrains(t *testing.T) {
	for _, withLocal := range []bool{true, false} {
		t.Run(fmt.Sprintf("local=%v", withLocal), func(t *testing.T) {
			late, a := newFakeWorker(t), newFakeWorker(t)
			a.dieAfter = 1
			cfg := PoolConfig{ShardBlocks: 1, HealthInterval: time.Hour}
			if withLocal {
				cfg.LocalSweep = identitySweep
			}
			var p *Pool
			var once sync.Once
			a.onSweep = func(bool) { once.Do(func() { p.Register(late.srv.URL, 1) }) }
			p = newTestPool(t, cfg, a)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			const n = 64 * 64
			counts, err := p.SweepCounts(ctx, "full", n)
			st := p.StatsSnapshot()
			if !withLocal {
				if !errors.Is(err, errNoWorkers) {
					t.Fatalf("err = %v, want errNoWorkers (stats %+v)", err, st)
				}
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want the local fallback to finish the sweep (stats %+v)", err, st)
			}
			wantIdentity(t, counts, n)
			if st.LocalShards == 0 || st.RemoteShards == 0 {
				t.Fatalf("want shards from both a and the local fallback (stats %+v)", st)
			}
		})
	}
}

func TestPoolShedsBeyondMaxQueries(t *testing.T) {
	// The worker answers only once the second query has been shed, so the
	// first query holds the admission slot for exactly as long as needed.
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	slow := newFakeWorker(t)
	slow.onSweep = func(bool) { <-release }
	p := newTestPool(t, PoolConfig{ShardBlocks: 64, MaxQueries: 1}, slow)

	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		_, err := p.SweepCounts(context.Background(), "full", 64)
		result <- err
	}()
	<-started
	// Wait until the first query is admitted, then the second must shed.
	deadline := time.Now().Add(2 * time.Second)
	for p.StatsSnapshot().Queries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.SweepCounts(context.Background(), "full", 64); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second concurrent query: err = %v, want ErrSaturated", err)
	}
	free()
	if err := <-result; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
	if st := p.StatsSnapshot(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

// TestPoolBatchCountsMergeInRequestOrder: origin-list shards go out one
// per request (the request names one slice of the list) and merge back in
// input order.
func TestPoolBatchCountsMergeInRequestOrder(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	p := newTestPool(t, PoolConfig{ShardBlocks: 1}, w1, w2)
	origins := make([]uint32, 300)
	for i := range origins {
		origins[i] = uint32(10000 + i)
	}
	counts, err := p.BatchCounts(context.Background(), origins, "full")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != int(origins[i]) {
			t.Fatalf("counts[%d] = %d, want %d (request order lost)", i, c, origins[i])
		}
	}
	if st := p.StatsSnapshot(); st.MultiBatches != 0 || st.RemoteShards != 5 {
		t.Fatalf("multi batches = %d, remote shards = %d; want 0, 5 (one request per shard)", st.MultiBatches, st.RemoteShards)
	}
}
