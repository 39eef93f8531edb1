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

func TestLatencyWindowPercentile(t *testing.T) {
	var lw latencyWindow
	if d := lw.percentile(95); d != 0 {
		t.Fatalf("empty window: got %v, want 0 (not enough samples)", d)
	}
	for i := 1; i <= 100; i++ {
		lw.record(time.Duration(i) * time.Millisecond)
	}
	got := lw.percentile(95)
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v", got)
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

// fakeWorker serves PathSweep with counts[i] = base + index, so merged
// results are fully predictable. The fail gate, once set, turns every
// subsequent shard request into a 500 — the "worker dies between shard
// responses" scenario.
type fakeWorker struct {
	srv    *httptest.Server
	served atomic.Int64
	fail   atomic.Bool
	delay  time.Duration

	// dieAfter > 0 makes the sweep handler set fail itself, before it
	// answers the dieAfter-th shard, so the death is ordered by the
	// worker's own responses and not by a watcher's clock.
	dieAfter int64
	// onSweep, when set, runs at the top of every sweep request (failing
	// says whether the request is about to be refused); tests block in it
	// to order two workers' answers without sleeping.
	onSweep func(failing bool)
}

func newFakeWorker(t *testing.T, base int, delay time.Duration) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{delay: delay}
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
		if fw.delay > 0 {
			select {
			case <-time.After(fw.delay):
			case <-r.Context().Done():
				return
			}
		}
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		counts := make([]int, req.Hi-req.Lo)
		for i := range counts {
			counts[i] = base + req.Lo + i
		}
		if fw.served.Add(1) == fw.dieAfter {
			fw.fail.Store(true)
		}
		json.NewEncoder(w).Encode(SweepResponse{Counts: counts})
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

// newWireWorker is fakeWorker's current-version sibling: it answers
// PathSweep with binary wire frames and understands the coalesced
// multi-range form, with the same predictable counts[i] = base + index.
func newWireWorker(t *testing.T, base int) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	counts := func(lo, hi int) []int {
		c := make([]int, hi-lo)
		for i := range c {
			c[i] = base + lo + i
		}
		return c
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST "+PathSweep, func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fw.served.Add(1)
		w.Header().Set("Content-Type", WireContentType)
		if len(req.Ranges) > 0 {
			var body []byte
			for _, rg := range req.Ranges {
				frame := AppendCounts(nil, counts(rg.Lo, rg.Hi))
				body = AppendFramePrefix(body, len(frame))
				body = append(body, frame...)
			}
			w.Write(body)
			return
		}
		w.Write(AppendCounts(nil, counts(req.Lo, req.Hi)))
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

// TestPoolCoalescesWireShards pins the capability gate and the round-trip
// collapse: the first shard of a fresh worker goes out singly (wire
// capability unproven), its response latches wireOK, and from then on a
// puller drains the queue into multi-range requests — while the merged
// counts stay exactly the identity either way.
func TestPoolCoalescesWireShards(t *testing.T) {
	fw := newWireWorker(t, 0)
	// A huge hedge delay makes round-trip counts deterministic: no
	// duplicate dispatches to muddy the served counter.
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, HedgeDelay: time.Hour}, fw)
	const n = 64 * 8 // 8 one-block shards, one slot
	counts, err := p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st := p.StatsSnapshot()
	// Shard 0 single, then the puller drains shards 1..7 into one
	// coalesced request: exactly two round trips for eight shards.
	if got := fw.served.Load(); got != 2 {
		t.Fatalf("sweep took %d round trips, want 2 (1 single + 1 coalesced); stats %+v", got, st)
	}
	if st.MultiBatches != 1 {
		t.Fatalf("multi batches = %d, want 1", st.MultiBatches)
	}
	if st.WireShards != 8 || st.RemoteShards != 8 {
		t.Fatalf("wire/remote shards = %d/%d, want 8/8", st.WireShards, st.RemoteShards)
	}
	// Second sweep: capability already proven, so the whole queue drains
	// into a single multi-range request.
	counts, err = p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st = p.StatsSnapshot()
	if got := fw.served.Load(); got != 3 {
		t.Fatalf("second sweep took %d extra round trips, want 1 coalesced; stats %+v", got-2, st)
	}
	if st.MultiBatches != 2 || st.WireShards != 16 {
		t.Fatalf("after two sweeps: multi batches = %d, wire shards = %d; want 2, 16", st.MultiBatches, st.WireShards)
	}
	if st.WireSaved <= 0 {
		t.Fatalf("wire_saved_bytes = %d, want > 0", st.WireSaved)
	}
}

// TestPoolMultiFailureRequeuesMembers: a worker whose multi-range response
// is garbage must not poison the merge — every member is requeued and the
// query drains through the fallback with the exact answer.
func TestPoolMultiFailureRequeuesMembers(t *testing.T) {
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
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fw.served.Add(1)
		w.Header().Set("Content-Type", WireContentType)
		if len(req.Ranges) > 0 {
			// Valid first frame, then junk: the decoder must reject the
			// response as a unit. The worker also goes dark (healthz
			// included), so the remaining members deterministically drain
			// through the local fallback instead of racing the prober.
			fw.fail.Store(true)
			frame := AppendCounts(nil, make([]int, req.Ranges[0].Hi-req.Ranges[0].Lo))
			body := AppendFramePrefix(nil, len(frame))
			body = append(body, frame...)
			w.Write(append(body, "not a frame"...))
			return
		}
		c := make([]int, req.Hi-req.Lo)
		for i := range c {
			c[i] = req.Lo + i
		}
		w.Write(AppendCounts(nil, c))
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)

	var localCalls atomic.Int64
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, HedgeDelay: time.Hour, MaxAttempts: 2,
		LocalSweep: func(_ context.Context, _ string, lo, hi int) ([]int, error) {
			localCalls.Add(1)
			c := make([]int, hi-lo)
			for i := range c {
				c[i] = lo + i
			}
			return c, nil
		}}, fw)
	const n = 64 * 6
	counts, err := p.SweepCounts(context.Background(), "full", n)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, n)
	st := p.StatsSnapshot()
	if st.LocalShards == 0 {
		t.Fatalf("corrupt multi responses never drained to the local fallback (stats %+v)", st)
	}
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
	p := newTestPool(t, PoolConfig{ShardBlocks: 1},
		newFakeWorker(t, 0, 0), newFakeWorker(t, 0, 0))
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

// TestPoolRetriesOnWorkerDeath kills one worker after its first shard
// response; the remaining shards must be retried on the healthy peer and
// the merged result must be exactly what a single process would produce.
// The death is the dying worker's own doing (dieAfter), and the healthy
// peer answers nothing until the dying one has refused a shard, so the
// queue cannot drain before the failure is seen; with hedging out of the
// picture the refused shard's second attempt is always a counted retry.
func TestPoolRetriesOnWorkerDeath(t *testing.T) {
	refused := make(chan struct{})
	var once sync.Once
	dying := newFakeWorker(t, 0, 0)
	dying.dieAfter = 1
	dying.onSweep = func(failing bool) {
		if failing {
			once.Do(func() { close(refused) })
		}
	}
	healthy := newFakeWorker(t, 0, 0)
	healthy.onSweep = func(bool) { <-refused }
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, HedgeDelay: time.Hour}, dying, healthy)

	const n = 2048 // 32 shards
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
	dead := newFakeWorker(t, 0, 0)
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
	dead := newFakeWorker(t, 0, 0)
	dead.fail.Store(true)
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, MaxAttempts: 2}, dead)
	_, err := p.SweepCounts(context.Background(), "full", 500)
	if err == nil {
		t.Fatal("sweep over a dead pool with no fallback should fail")
	}
}

func TestPoolShedsBeyondMaxQueries(t *testing.T) {
	// The worker answers only once the second query has been shed, so the
	// first query holds the admission slot for exactly as long as needed.
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	slow := newFakeWorker(t, 0, 0)
	slow.onSweep = func(bool) { <-release }
	p := newTestPool(t, PoolConfig{ShardBlocks: 64, MaxQueries: 1, HedgeDelay: time.Hour}, slow)

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

// TestPoolHedgesStragglers pairs a stuck worker with a fast one under a
// fixed hedge delay: the shard stuck on the straggler is re-dispatched and
// the fast copy's result wins. The straggler answers nothing until the
// sweep has returned, so the sweep returning at all is the rescue; the fast
// worker waits for the straggler to be holding a shard, so there is always
// one to rescue.
func TestPoolHedgesStragglers(t *testing.T) {
	stuck, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	var once sync.Once
	slow := newFakeWorker(t, 0, 0)
	slow.onSweep = func(bool) {
		once.Do(func() { close(stuck) })
		<-release
	}
	fast := newFakeWorker(t, 0, 0)
	fast.onSweep = func(bool) { <-stuck }
	p := newTestPool(t, PoolConfig{ShardBlocks: 1, HedgeDelay: 20 * time.Millisecond}, slow, fast)

	counts, err := p.SweepCounts(context.Background(), "full", 256) // 4 shards
	if err != nil {
		t.Fatal(err)
	}
	wantIdentity(t, counts, 256)
	if st := p.StatsSnapshot(); st.Hedges == 0 {
		t.Fatalf("hedges = 0, want >0 (stats: %+v)", st)
	}
}

func TestPoolBatchCountsMergeInRequestOrder(t *testing.T) {
	// Workers echo base+Lo+i for range requests; for origin-list requests
	// the fake needs the origin itself, so extend: serve counts[i] =
	// int(origins[i]) when an origin list is present.
	mkWorker := func() *fakeWorker {
		fw := &fakeWorker{}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("POST "+PathSweep, func(w http.ResponseWriter, r *http.Request) {
			var req SweepRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			counts := make([]int, len(req.Origins))
			for i, o := range req.Origins {
				counts[i] = int(o)
			}
			json.NewEncoder(w).Encode(SweepResponse{Counts: counts})
		})
		fw.srv = httptest.NewServer(mux)
		t.Cleanup(fw.srv.Close)
		return fw
	}
	p := newTestPool(t, PoolConfig{ShardBlocks: 1}, mkWorker(), mkWorker())
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
}
