package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// generatedWorld is the shared cluster-test topology: big enough
// (~1500 ASes) that a sweep splits into dozens of one-block shards, built
// once because generation plus core.New dominates test wall-clock.
var (
	genOnce sync.Once
	genIn   *topogen.Internet
)

func generatedWorld(t *testing.T) (core.Dataset, *topogen.Internet) {
	t.Helper()
	genOnce.Do(func() {
		in, err := topogen.Generate(topogen.Internet2020(0.02138))
		if err != nil {
			panic(err)
		}
		genIn = in
	})
	return core.Dataset{Graph: genIn.Graph, Tier1: genIn.Tier1, Tier2: genIn.Tier2}, genIn
}

// startServer builds a Server over the generated world and binds it to a
// real loopback port (cluster traffic is real HTTP, not recorders).
func startServer(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	ds, in := generatedWorld(t)
	cfg := Config{Dataset: ds, Names: in.NameOf}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + addr.String()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func joinWorker(t *testing.T, coordURL string, w *Server, workerURL string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := cluster.Join(ctx, http.DefaultClient, coordURL,
		cluster.JoinRequest{Addr: workerURL, World: w.WorldID(), Slots: 1})
	if err != nil {
		t.Fatalf("join %s -> %s: %v", workerURL, coordURL, err)
	}
}

// TestClusterSmoke is the end-to-end equivalence gate: a coordinator with
// two joined workers must answer the Table-1-style sweep byte-for-byte
// identically to a single process over the same world. CI runs exactly
// this test (with -race) as the cluster smoke job.
func TestClusterSmoke(t *testing.T) {
	coord, coordURL := startServer(t, func(c *Config) {
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1}
	})
	w1, w1URL := startServer(t, nil)
	w2, w2URL := startServer(t, nil)
	joinWorker(t, coordURL, w1, w1URL)
	joinWorker(t, coordURL, w2, w2URL)
	if !coord.Pool().Ready() {
		t.Fatal("pool not ready after two joins")
	}

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/v1/sweep?kind=hierarchy-free&top=20"
	wantRec := get(t, single.Handler(), query)
	if wantRec.Code != http.StatusOK {
		t.Fatalf("single-process sweep: status %d, body %s", wantRec.Code, wantRec.Body)
	}
	status, got := httpGet(t, coordURL+query)
	if status != http.StatusOK {
		t.Fatalf("cluster sweep: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, wantRec.Body.Bytes()) {
		t.Fatalf("cluster sweep differs from single process:\ncluster: %s\nsingle:  %s", got, wantRec.Body.Bytes())
	}
	st := coord.Pool().StatsSnapshot()
	if st.RemoteShards == 0 {
		t.Fatal("sweep did not fan out (remote shards = 0); the cluster path never ran")
	}
	for _, w := range st.Workers {
		if w.Shards == 0 {
			t.Fatalf("worker %s computed no shards", w.Addr)
		}
	}

	// /v1/stats surfaces the cluster section with per-worker gauges.
	status, sb := httpGet(t, coordURL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	var stats struct {
		World   string         `json:"world"`
		Cluster *cluster.Stats `json:"cluster"`
	}
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.World != coord.WorldID() {
		t.Fatalf("stats world = %q, want %q", stats.World, coord.WorldID())
	}
	if stats.Cluster == nil || len(stats.Cluster.Workers) != 2 {
		t.Fatalf("stats cluster section missing or wrong size: %s", sb)
	}
}

func mustDataset(t *testing.T) core.Dataset {
	t.Helper()
	ds, _ := generatedWorld(t)
	return ds
}

// TestClusterWorkerDeathMidSweep kills one worker after its first shard
// response. The coordinator must retry the lost shards on the healthy
// peer and still produce the single-process answer — the golden
// equivalence under partial failure. The healthy peer answers no shard
// until the dead one has refused one, so the death always lands mid-sweep
// however the two workers' first responses are timed.
func TestClusterWorkerDeathMidSweep(t *testing.T) {
	coord, _ := startServer(t, func(c *Config) {
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1}
	})
	worker := func() http.Handler {
		s, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	vh, hh := worker(), worker()
	var dead atomic.Bool
	refused := make(chan struct{})
	var refuseOnce sync.Once
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			refuseOnce.Do(func() { close(refused) })
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		vh.ServeHTTP(w, r)
		if r.URL.Path == cluster.PathSweep {
			dead.Store(true) // die right after the first shard response
		}
	}))
	defer proxy.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PathSweep {
			<-refused
		}
		hh.ServeHTTP(w, r)
	}))
	defer healthy.Close()
	coord.Pool().Register(proxy.URL, 1)
	coord.Pool().Register(healthy.URL, 1)

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/v1/sweep?kind=provider-free&top=50"
	want := get(t, single.Handler(), query)
	got := get(t, coord.Handler(), query)
	if got.Code != http.StatusOK {
		t.Fatalf("cluster sweep with dying worker: status %d, body %s", got.Code, got.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("sweep result diverged from single process after worker death")
	}
	st := coord.Pool().StatsSnapshot()
	if !dead.Load() {
		t.Fatal("victim never served a shard; test exercised nothing")
	}
	if st.Retries == 0 {
		t.Fatalf("worker died mid-sweep but retries = 0 (stats: %+v)", st)
	}
	for _, w := range st.Workers {
		if w.Addr == cluster.CanonicalAddr(proxy.URL) && w.Healthy {
			t.Fatal("dead worker still marked healthy")
		}
	}
}

// TestClusterLeakAndBatchMatchSingleProcess routes the two other wide
// query shapes — leak-trial batches and explicit origin lists — through
// a live cluster and diffs the bodies against a single process.
func TestClusterLeakAndBatchMatchSingleProcess(t *testing.T) {
	coord, coordURL := startServer(t, func(c *Config) {
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1}
	})
	w1, w1URL := startServer(t, nil)
	w2, w2URL := startServer(t, nil)
	joinWorker(t, coordURL, w1, w1URL)
	joinWorker(t, coordURL, w2, w2URL)

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	ds := mustDataset(t)
	origin := ds.Graph.ASNAt(0)

	leakQuery := fmt.Sprintf("/v1/leak?as=%d&scenario=announce-all&trials=192&seed=7", origin)
	want := get(t, single.Handler(), leakQuery)
	if want.Code != http.StatusOK {
		t.Fatalf("single leak: status %d, body %s", want.Code, want.Body)
	}
	status, got := httpGet(t, coordURL+leakQuery)
	if status != http.StatusOK {
		t.Fatalf("cluster leak: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatalf("cluster leak differs:\ncluster: %s\nsingle:  %s", got, want.Body.Bytes())
	}

	var asList []string
	for i := 0; i < 192; i++ {
		asList = append(asList, fmt.Sprint(ds.Graph.ASNAt(i)))
	}
	batchQuery := "/v1/batch?kind=tier1-free&as=" + strings.Join(asList, ",")
	want = get(t, single.Handler(), batchQuery)
	if want.Code != http.StatusOK {
		t.Fatalf("single batch: status %d", want.Code)
	}
	status, got = httpGet(t, coordURL+batchQuery)
	if status != http.StatusOK {
		t.Fatalf("cluster batch: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatal("cluster batch differs from single process")
	}
	if st := coord.Pool().StatsSnapshot(); st.RemoteShards == 0 {
		t.Fatal("leak/batch queries never fanned out")
	}
}

// TestClusterMixedWireVersions runs one sweep through a cluster of one
// modern worker (negotiates the binary wire via Accept) and one legacy
// worker — a real worker behind a proxy that strips the Accept header, so
// it never sees the wire offer and always answers JSON, exactly how a
// pre-wire flatnetd behaves. The merged response must be byte-identical
// to single process, with shards merged from BOTH encodings.
func TestClusterMixedWireVersions(t *testing.T) {
	coord, coordURL := startServer(t, func(c *Config) {
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1}
	})
	w1, w1URL := startServer(t, nil)
	joinWorker(t, coordURL, w1, w1URL)

	legacy, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	lh := legacy.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		lh.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	coord.Pool().Register(proxy.URL, 1)

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/v1/sweep?kind=hierarchy-free&top=20"
	want := get(t, single.Handler(), query)
	if want.Code != http.StatusOK {
		t.Fatalf("single-process sweep: status %d, body %s", want.Code, want.Body)
	}
	status, got := httpGet(t, coordURL+query)
	if status != http.StatusOK {
		t.Fatalf("mixed-version sweep: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatal("mixed JSON/binary cluster sweep diverged from single process")
	}
	st := coord.Pool().StatsSnapshot()
	if st.WireShards == 0 {
		t.Fatalf("no shard arrived as a binary frame; negotiation with the modern worker failed (stats %+v)", st)
	}
	if st.JSONShards == 0 {
		t.Fatalf("no shard arrived as JSON; the legacy worker was never exercised (stats %+v)", st)
	}
	if st.WireBytes <= 0 || st.WireSaved <= 0 {
		t.Fatalf("wire byte gauges not populated: bytes=%d saved=%d", st.WireBytes, st.WireSaved)
	}
}

// TestClusterCoalescedSweepMatchesSingleProcess: with a single worker the
// coordinator learns wire capability on the first shard response and
// coalesces the rest of the sweep into multi-range requests against the
// real worker handler — and the merged answer must stay byte-identical to
// the single process, with the multi gauge confirming the path ran.
func TestClusterCoalescedSweepMatchesSingleProcess(t *testing.T) {
	coord, coordURL := startServer(t, func(c *Config) {
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1}
	})
	w1, w1URL := startServer(t, nil)
	joinWorker(t, coordURL, w1, w1URL)

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/v1/sweep?kind=hierarchy-free&top=25"
	want := get(t, single.Handler(), query)
	if want.Code != http.StatusOK {
		t.Fatalf("single-process sweep: status %d, body %s", want.Code, want.Body)
	}
	status, got := httpGet(t, coordURL+query)
	if status != http.StatusOK {
		t.Fatalf("cluster sweep: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Fatal("coalesced cluster sweep diverged from single process")
	}
	st := coord.Pool().StatsSnapshot()
	if st.MultiBatches == 0 {
		t.Fatalf("sweep sent no coalesced multi-range requests (stats %+v)", st)
	}
	if st.WireShards == 0 || st.JSONShards != 0 {
		t.Fatalf("wire/json shards = %d/%d; every shard should ride the wire", st.WireShards, st.JSONShards)
	}
}

// TestSweepBinaryOptIn: a client that accepts the wire content type gets
// the full per-AS counts vector from GET /v1/sweep as a binary frame, in
// dense graph-index order, matching the engine's counts exactly.
func TestSweepBinaryOptIn(t *testing.T) {
	s := testServer(t, nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep?kind=hierarchy-free", nil)
	req.Header.Set("Accept", cluster.WireContentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary sweep: status %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != cluster.WireContentType {
		t.Fatalf("binary sweep Content-Type = %q, want %q", ct, cluster.WireContentType)
	}
	ws := s.w()
	n := ws.ds.Graph.NumASes()
	got := make([]int, n)
	if err := cluster.DecodeCountsInto(got, rec.Body.Bytes()); err != nil {
		t.Fatalf("response is not a valid counts frame: %v", err)
	}
	want, err := ws.metrics.ReachabilityRangeCtx(context.Background(), core.HierarchyFree, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("binary sweep counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestJoinRejectsWorldMismatch: a worker serving a different world must
// be refused with 409, never silently mixed into the pool.
func TestJoinRejectsWorldMismatch(t *testing.T) {
	s := testServer(t, nil) // fixture world
	body, _ := json.Marshal(cluster.JoinRequest{Addr: "http://127.0.0.1:1", World: "deadbeef", Slots: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.PathJoin, bytes.NewReader(body)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("mismatched join: status %d, want 409 (body %s)", rec.Code, rec.Body)
	}
	if s.Pool().NumWorkers() != 0 {
		t.Fatal("mismatched worker was registered anyway")
	}

	body, _ = json.Marshal(cluster.JoinRequest{Addr: "http://127.0.0.1:1", World: s.WorldID(), Slots: 1})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.PathJoin, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("matching join: status %d, body %s", rec.Code, rec.Body)
	}
	if s.Pool().NumWorkers() != 1 {
		t.Fatal("matching worker not registered")
	}
}

// TestSnapshotSyncByContentAddress exercises the full worker state-sync
// path: discover the coordinator's world, download the snapshot it
// advertises, verify the hash, mmap it, and confirm the loaded world
// lands on the coordinator's exact content address.
func TestSnapshotSyncByContentAddress(t *testing.T) {
	_, in := generatedWorld(t)
	coord, coordURL := startServer(t, func(c *Config) {
		c.SnapshotBytes = func() ([]byte, error) {
			var buf bytes.Buffer
			world := &snapshot.World{Scale: 0.02138, Internets: map[int]*topogen.Internet{2020: in}}
			if err := snapshot.Write(&buf, world); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := cluster.FetchInfo(ctx, http.DefaultClient, coordURL)
	if err != nil {
		t.Fatal(err)
	}
	if info.World != coord.WorldID() {
		t.Fatalf("info world %q != server world %q", info.World, coord.WorldID())
	}
	if info.SnapshotSHA == "" || info.SnapshotSize == 0 {
		t.Fatalf("coordinator advertises no snapshot: %+v", info)
	}
	dir := t.TempDir()
	path, err := cluster.EnsureSnapshot(ctx, http.DefaultClient, coordURL, info, dir)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	win := rd.Internet(info.Year)
	if win == nil {
		t.Fatalf("fetched snapshot has no %d section", info.Year)
	}
	if h := cluster.DatasetHash(win.Graph, win.Tier1, win.Tier2); h != coord.WorldID() {
		t.Fatalf("fetched world hash %.12s… != coordinator %.12s…; state sync is broken", h, coord.WorldID())
	}
	// Second call must hit the content-addressed cache, not re-download.
	again, err := cluster.EnsureSnapshot(ctx, http.DefaultClient, coordURL, info, dir)
	if err != nil || again != path {
		t.Fatalf("cache miss on second EnsureSnapshot: path %q err %v", again, err)
	}
}

// TestResultCacheKeyedByWorld pins satellite fix #3: two servers over
// different worlds must never share result-cache keys, and entries land
// under the world-prefixed key only.
func TestResultCacheKeyedByWorld(t *testing.T) {
	a := testServer(t, nil)
	ds, _ := generatedWorld(t)
	b, err := New(Config{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	if a.WorldID() == b.WorldID() {
		t.Fatal("distinct datasets produced the same world hash")
	}
	if a.w().key == b.w().key {
		t.Fatal("distinct worlds share a cache-key prefix")
	}
	rec := get(t, a.Handler(), "/v1/reach?as=100&kind=full")
	if rec.Code != http.StatusOK {
		t.Fatalf("reach: status %d", rec.Code)
	}
	if _, ok := a.cache.Get(a.w().key + "reach|100|0"); !ok {
		t.Fatal("result not cached under the world-prefixed key")
	}
	if _, ok := a.cache.Get("reach|100|0"); ok {
		t.Fatal("result cached under the bare (world-less) key — cross-world collisions possible")
	}
}

// TestSaturationReturns429 drives the coordinator past MaxQueries and
// expects load shedding with Retry-After, not queueing.
func TestSaturationReturns429(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		select {
		case blocked <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, "too late", http.StatusInternalServerError)
	}))
	defer slow.Close()
	defer close(release)

	// MaxConcurrent must exceed MaxQueries so the pool's admission gate —
	// not the local compute semaphore — is what the second query hits.
	coord, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf, MaxConcurrent: 4,
		Cluster: cluster.PoolConfig{MaxQueries: 1, ShardBlocks: 64}})
	if err != nil {
		t.Fatal(err)
	}
	coord.Pool().Register(slow.URL, 1)

	go func() {
		// First sweep occupies the only admission slot, stuck on the
		// blocked worker until release.
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweep?kind=full&timeout=30s", nil))
	}()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("first sweep never reached the worker")
	}
	rec := get(t, coord.Handler(), "/v1/sweep?kind=provider-free")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second sweep: status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != "saturated" {
		t.Fatalf("shed body = %s (err %v), want code \"saturated\"", rec.Body, err)
	}
	if st := coord.Pool().StatsSnapshot(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
}
