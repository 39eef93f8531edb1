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
		cluster.JoinRequest{Addr: workerURL, World: w.WorldID(), Slots: 1, Wire: cluster.WireVersion})
	if err != nil {
		t.Fatalf("join %s -> %s: %v", workerURL, coordURL, err)
	}
}

// TestClusterSmoke is the end-to-end equivalence gate: a coordinator with
// two joined workers must answer the Table-1-style sweep of every kind
// byte-for-byte identically to a single process over the same world. CI
// runs exactly this test (with -race) as the cluster smoke job.
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
	for _, kind := range []core.Kind{core.Full, core.ProviderFree, core.Tier1Free, core.HierarchyFree} {
		query := "/v1/sweep?top=20&kind=" + kind.String()
		wantRec := get(t, single.Handler(), query)
		if wantRec.Code != http.StatusOK {
			t.Fatalf("single-process %s sweep: status %d, body %s", kind, wantRec.Code, wantRec.Body)
		}
		before := coord.Pool().StatsSnapshot().RemoteShards
		status, got := httpGet(t, coordURL+query)
		if status != http.StatusOK {
			t.Fatalf("cluster %s sweep: status %d, body %s", kind, status, got)
		}
		if !bytes.Equal(got, wantRec.Body.Bytes()) {
			t.Fatalf("cluster %s sweep differs from single process:\ncluster: %s\nsingle:  %s", kind, got, wantRec.Body.Bytes())
		}
		if coord.Pool().StatsSnapshot().RemoteShards == before {
			t.Fatalf("%s sweep did not fan out; the cluster path never ran", kind)
		}
	}
	st := coord.Pool().StatsSnapshot()
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
	var keys struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(sb, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys.Cluster["hedges"]; ok {
		t.Fatalf("stats still carry cluster.hedges: %s", sb)
	}
}

func mustDataset(t *testing.T) core.Dataset {
	t.Helper()
	ds, _ := generatedWorld(t)
	return ds
}

// TestClusterWorkerDeathMidSweep lets one worker serve exactly one shard
// request and then die. The coordinator must retry the lost shards on the
// healthy peer and still produce the single-process answer — the golden
// equivalence under partial failure. The healthy peer answers nothing
// until the dead one has refused a request, and holds one drained batch
// at most; the victim's three pullers leave shards only the victim can
// pull, so it always has a request to refuse and the death always lands
// mid-sweep.
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
	var served, dead atomic.Bool
	refused := make(chan struct{})
	var refuseOnce sync.Once
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() || (r.URL.Path == cluster.PathSweep && !served.CompareAndSwap(false, true)) {
			dead.Store(true)
			refuseOnce.Do(func() { close(refused) })
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		vh.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PathSweep {
			<-refused
		}
		hh.ServeHTTP(w, r)
	}))
	defer healthy.Close()
	coord.Pool().Register(proxy.URL, 3)
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
	if !served.Load() || !dead.Load() {
		t.Fatal("victim never served and then refused a shard; test exercised nothing")
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

// TestClusterMixedWireVersions puts a worker that answers JSON — a build
// that predates the frame-only protocol, registered behind the join gate's
// back — next to a current one. Its answer must fail the frame checks like
// any failed attempt: the shards it took are retried on the peer, the
// merged sweep is byte-identical to single process, and the JSON worker
// ends up demoted. The current worker answers nothing until the JSON one
// has, so the JSON worker always takes part.
func TestClusterMixedWireVersions(t *testing.T) {
	coord, _ := startServer(t, func(c *Config) {
		// No prober: the demotion the test asserts must be the dispatcher's.
		c.Cluster = cluster.PoolConfig{ShardBlocks: 1, HealthInterval: time.Hour}
	})
	answered := make(chan struct{})
	var once sync.Once
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.PathSweep {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		defer once.Do(func() { close(answered) })
		var req cluster.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string][]int{"counts": make([]int, req.Hi-req.Lo)})
	}))
	defer legacy.Close()
	current, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	ch := current.Handler()
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PathSweep {
			<-answered
		}
		ch.ServeHTTP(w, r)
	}))
	defer gated.Close()
	coord.Pool().Register(legacy.URL, 1)
	coord.Pool().Register(gated.URL, 1)

	single, err := New(Config{Dataset: mustDataset(t), Names: genIn.NameOf})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/v1/sweep?kind=hierarchy-free&top=20"
	want := get(t, single.Handler(), query)
	got := get(t, coord.Handler(), query)
	if got.Code != http.StatusOK {
		t.Fatalf("mixed-version sweep: status %d, body %s", got.Code, got.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("mixed-version cluster sweep diverged from single process")
	}
	st := coord.Pool().StatsSnapshot()
	if st.Retries == 0 {
		t.Fatalf("the JSON worker's shards were never retried (stats %+v)", st)
	}
	for _, w := range st.Workers {
		if w.Addr == cluster.CanonicalAddr(legacy.URL) && (w.Healthy || w.Shards != 0) {
			t.Fatalf("JSON worker: healthy=%v shards=%d, want demoted with no merged shard", w.Healthy, w.Shards)
		}
	}
}

// TestClusterWorkerRejectsHostileInput: the shard endpoints refuse
// malformed requests with a 400 before computing anything — a trials
// count outside [1, maxTrials] (which would otherwise buy a full-graph
// batch, or panic the sampler), an unknown scenario, and sweep requests
// that mix the origin-list and range forms — and the join endpoint refuses
// a slot count outside [1, MaxSlots], which would otherwise start that
// many pullers per wide query.
func TestClusterWorkerRejectsHostileInput(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	leak := func(trials int, scenario string) string {
		return fmt.Sprintf(`{"origin":100,"scenario":%q,"trials":%d,"seed":1,"lo":0,"hi":1}`, scenario, trials)
	}
	join := func(slots int) string {
		return fmt.Sprintf(`{"addr":"http://127.0.0.1:1","world":%q,"slots":%d,"wire":%d}`, s.WorldID(), slots, cluster.WireVersion)
	}
	for _, c := range []struct{ name, path, body string }{
		{"negative trials", cluster.PathLeak, leak(-1, "announce-all")},
		{"zero trials", cluster.PathLeak, leak(0, "announce-all")},
		{"trials above maxTrials", cluster.PathLeak, leak(1<<30, "announce-all")},
		{"trials one above maxTrials", cluster.PathLeak, leak(maxTrials+1, "announce-all")},
		{"unknown scenario", cluster.PathLeak, leak(4, "nope")},
		{"origins and lo/hi", cluster.PathSweep, `{"kind":"full","origins":[100],"lo":0,"hi":2}`},
		{"origins and ranges", cluster.PathSweep, `{"kind":"full","origins":[100],"ranges":[{"lo":0,"hi":2}]}`},
		{"lo/hi and ranges", cluster.PathSweep, `{"kind":"full","lo":0,"hi":2,"ranges":[{"lo":0,"hi":2}]}`},
		{"range past the graph", cluster.PathSweep, `{"kind":"full","ranges":[{"lo":0,"hi":99}]}`},
		{"empty range", cluster.PathSweep, `{"kind":"full"}`},
		{"slots above MaxSlots", cluster.PathJoin, join(1 << 30)},
		{"zero slots", cluster.PathJoin, join(0)},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", c.name, rec.Code, rec.Body)
		}
	}
	if n := s.stats.computations.Load(); n != 0 {
		t.Fatalf("%d computations ran for refused requests", n)
	}
	if n := s.Pool().NumWorkers(); n != 0 {
		t.Fatalf("%d workers registered by refused joins", n)
	}
}

// TestClusterCoalescedSweepMatchesSingleProcess: with a single worker the
// coordinator coalesces the sweep into multi-range requests from the first
// pull against the real worker handler — and the merged answer must stay
// byte-identical to the single process, with the multi gauge confirming
// the path ran.
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
	if st := coord.Pool().StatsSnapshot(); st.MultiBatches == 0 || st.WireBytes == 0 {
		t.Fatalf("sweep sent no coalesced multi-range requests (stats %+v)", st)
	}
}

// TestJoinRejectsWorldMismatch: a worker serving a different world, or
// speaking a different (or no) wire version, must be refused with 409,
// never silently mixed into the pool.
func TestJoinRejectsWorldMismatch(t *testing.T) {
	s := testServer(t, nil) // fixture world
	join := func(jr cluster.JoinRequest) *httptest.ResponseRecorder {
		body, _ := json.Marshal(jr)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.PathJoin, bytes.NewReader(body)))
		return rec
	}
	for _, c := range []struct {
		name string
		jr   cluster.JoinRequest
		code string
	}{
		{"other world", cluster.JoinRequest{World: "deadbeef", Wire: cluster.WireVersion}, "world_mismatch"},
		{"other wire version", cluster.JoinRequest{World: s.WorldID(), Wire: cluster.WireVersion + 1}, "wire_mismatch"},
		{"no wire version", cluster.JoinRequest{World: s.WorldID()}, "wire_mismatch"},
	} {
		c.jr.Addr, c.jr.Slots = "http://127.0.0.1:1", 1
		rec := join(c.jr)
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), c.code) {
			t.Fatalf("%s: status %d, want 409 %s (body %s)", c.name, rec.Code, c.code, rec.Body)
		}
		if s.Pool().NumWorkers() != 0 {
			t.Fatalf("%s: mismatched worker was registered anyway", c.name)
		}
	}

	rec := join(cluster.JoinRequest{Addr: "http://127.0.0.1:1", World: s.WorldID(), Slots: 1, Wire: cluster.WireVersion})
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
