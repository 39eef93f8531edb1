package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// The evolve tests share one adjacent-year pair: the 2016 timeline world,
// the 2016→2017 growth delta (encoded with real world hashes), and the
// 2017 world it produces. Built once — GenerateYear dominates wall-clock.
const evolveTestScale = 0.012

var (
	evOnce  sync.Once
	evBase  *topogen.Internet
	evNext  *topogen.Internet
	evDelta []byte
)

func evolveFixture(t *testing.T) (*topogen.Internet, *topogen.Internet, []byte) {
	t.Helper()
	evOnce.Do(func() {
		base, err := topogen.GenerateYear(2016, evolveTestScale)
		if err != nil {
			panic(err)
		}
		g, err := topogen.EvolveStep(base, 2017, evolveTestScale)
		if err != nil {
			panic(err)
		}
		next, err := topogen.ApplyDelta(base, g)
		if err != nil {
			panic(err)
		}
		d := &snapshot.Delta{
			FromYear: g.FromYear, ToYear: g.ToYear, Scale: g.Scale,
			BaseHash:   cluster.DatasetHash(base.Graph, base.Tier1, base.Tier2),
			ResultHash: cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2),
			Growth:     g,
		}
		var buf bytes.Buffer
		if err := snapshot.EncodeDelta(&buf, d); err != nil {
			panic(err)
		}
		evBase, evNext, evDelta = base, next, buf.Bytes()
	})
	return evBase, evNext, evDelta
}

func evolveServer(t *testing.T) *Server {
	t.Helper()
	base, _, _ := evolveFixture(t)
	s, err := New(Config{World: base, Year: 2016})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postEvolve(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evolve", bytes.NewReader(body)))
	return rec
}

func TestEvolveSwapsWorld(t *testing.T) {
	base, next, delta := evolveFixture(t)
	s := evolveServer(t)
	h := s.Handler()
	baseID := cluster.DatasetHash(base.Graph, base.Tier1, base.Tier2)
	nextID := cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2)

	rec := postEvolve(t, h, delta)
	if rec.Code != http.StatusOK {
		t.Fatalf("evolve: status %d, body %s", rec.Code, rec.Body)
	}
	var resp struct {
		FromWorld string `json:"from_world"`
		ToWorld   string `json:"to_world"`
		FromYear  int    `json:"from_year"`
		ToYear    int    `json:"to_year"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FromWorld != baseID || resp.ToWorld != nextID {
		t.Fatalf("evolve lineage %.12s→%.12s, want %.12s→%.12s", resp.FromWorld, resp.ToWorld, baseID, nextID)
	}
	if resp.FromYear != 2016 || resp.ToYear != 2017 {
		t.Fatalf("evolve years %d→%d, want 2016→2017", resp.FromYear, resp.ToYear)
	}
	if s.WorldID() != nextID {
		t.Fatalf("served world %.12s, want evolved %.12s", s.WorldID(), nextID)
	}
	if s.pool.World() != nextID {
		t.Fatal("cluster pool did not rotate onto the evolved world")
	}

	// Stats advertise the evolved world and year.
	srec := get(t, h, "/v1/stats")
	var stats statsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.World != nextID || stats.Year != 2017 || stats.Evolves != 1 {
		t.Fatalf("stats world=%.12s year=%d evolves=%d, want evolved world, 2017, 1", stats.World, stats.Year, stats.Evolves)
	}
	if stats.ASes != next.Graph.NumASes() || stats.Links != next.Graph.NumLinks() {
		t.Fatalf("stats %d ASes %d links, want %d/%d", stats.ASes, stats.Links, next.Graph.NumASes(), next.Graph.NumLinks())
	}

	// The same delta no longer applies: its base is not the served world.
	rec = postEvolve(t, h, delta)
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "world_mismatch") {
		t.Fatalf("re-evolve: status %d, body %s, want 409 world_mismatch", rec.Code, rec.Body)
	}

	// A worker that synced the old world can no longer join.
	jb, _ := json.Marshal(cluster.JoinRequest{Addr: "http://127.0.0.1:1", World: baseID, Slots: 1, Wire: cluster.WireVersion})
	jrec := httptest.NewRecorder()
	h.ServeHTTP(jrec, httptest.NewRequest(http.MethodPost, cluster.PathJoin, bytes.NewReader(jb)))
	if jrec.Code != http.StatusConflict {
		t.Fatalf("stale-world join: status %d, want 409", jrec.Code)
	}
}

func TestEvolveRejectsGarbage(t *testing.T) {
	s := evolveServer(t)
	rec := postEvolve(t, s.Handler(), []byte("not a delta file"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", rec.Code)
	}
}

func TestEvolveNotEvolvable(t *testing.T) {
	// A server over a bare dataset (no generation lineage) refuses to
	// evolve even when the delta is well-formed.
	_, _, delta := evolveFixture(t)
	s := testServer(t, nil)
	rec := postEvolve(t, s.Handler(), delta)
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "not_evolvable") {
		t.Fatalf("bare-dataset evolve: status %d, body %s, want 409 not_evolvable", rec.Code, rec.Body)
	}
}

func TestEvolveResultMismatchFailsClosed(t *testing.T) {
	base, _, _ := evolveFixture(t)
	g, err := topogen.EvolveStep(base, 2017, evolveTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d := &snapshot.Delta{
		FromYear: g.FromYear, ToYear: g.ToYear, Scale: g.Scale,
		BaseHash:   cluster.DatasetHash(base.Graph, base.Tier1, base.Tier2),
		ResultHash: strings.Repeat("00", 32), // a world the delta cannot produce
		Growth:     g,
	}
	var buf bytes.Buffer
	if err := snapshot.EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := evolveServer(t)
	before := s.WorldID()
	rec := postEvolve(t, s.Handler(), buf.Bytes())
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "result_mismatch") {
		t.Fatalf("tampered result hash: status %d, body %s, want 422 result_mismatch", rec.Code, rec.Body)
	}
	if s.WorldID() != before {
		t.Fatal("failed evolve mutated the served world")
	}
}

// A delta whose author also wrote its result hash passes the hash gate, so
// ApplyDelta's own checks are what keep a world the next growth step
// cannot read from being served: a new AS of a class no growth step
// creates is refused with 422 apply_failed, and the world stays put.
func TestEvolveBadClassFailsClosed(t *testing.T) {
	base, next, _ := evolveFixture(t)
	g, err := topogen.EvolveStep(base, 2017, evolveTestScale)
	if err != nil {
		t.Fatal(err)
	}
	g.NewASes[0].Class = topogen.ClassCloud + 1
	d := &snapshot.Delta{
		FromYear: g.FromYear, ToYear: g.ToYear, Scale: g.Scale,
		BaseHash:   cluster.DatasetHash(base.Graph, base.Tier1, base.Tier2),
		ResultHash: cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2),
		Growth:     g,
	}
	var buf bytes.Buffer
	if err := snapshot.EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := evolveServer(t)
	before := s.WorldID()
	rec := postEvolve(t, s.Handler(), buf.Bytes())
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "apply_failed") {
		t.Fatalf("bad-class delta: status %d, body %s, want 422 apply_failed", rec.Code, rec.Body)
	}
	if s.WorldID() != before {
		t.Fatal("failed evolve mutated the served world")
	}
}

// TestEvolveNoStaleCacheHits hammers /v1/reach while the world evolves
// underneath it. Every response must be internally consistent — exactly
// the base world's answer or the evolved world's answer, never a blend or
// a stale replay — and once the evolve has returned, fresh queries must
// answer from the evolved world. Run under -race this also exercises the
// worldState swap for data races.
func TestEvolveNoStaleCacheHits(t *testing.T) {
	base, next, delta := evolveFixture(t)

	// Find an AS present in both worlds whose hierarchy-free count
	// differs, so a stale answer is distinguishable from a fresh one.
	mBase := core.New(core.Dataset{Graph: base.Graph, Tier1: base.Tier1, Tier2: base.Tier2})
	mNext := core.New(core.Dataset{Graph: next.Graph, Tier1: next.Tier1, Tier2: next.Tier2})
	var probe astopo.ASN
	var vBase, vNext int
	found := false
	for i := 0; i < base.Graph.NumASes() && !found; i++ {
		a := base.Graph.ASNAt(i)
		if _, ok := next.Graph.Index(a); !ok {
			continue
		}
		b, err := mBase.Reachability(a, core.HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		n, err := mNext.Reachability(a, core.HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		if b != n {
			probe, vBase, vNext, found = a, b, n, true
		}
	}
	if !found {
		t.Fatal("no AS distinguishes the two worlds")
	}

	s := evolveServer(t)
	h := s.Handler()
	url := fmt.Sprintf("/v1/reach?as=%d", probe)

	// Seed the base world's cache entry so the stale-replay path is armed.
	if rec := get(t, h, url); rec.Code != http.StatusOK {
		t.Fatalf("seed query: status %d", rec.Code)
	}

	const readers = 8
	stop := make(chan struct{})
	errs := make(chan string, 256)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("reach status %d: %s", rec.Code, rec.Body.String()):
					default:
					}
					return
				}
				var resp reachResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					select {
					case errs <- err.Error():
					default:
					}
					return
				}
				if resp.Reachable != vBase && resp.Reachable != vNext {
					select {
					case errs <- fmt.Sprintf("reach %d is neither base %d nor evolved %d", resp.Reachable, vBase, vNext):
					default:
					}
					return
				}
			}
		}()
	}

	rec := postEvolve(t, h, delta)
	if rec.Code != http.StatusOK {
		t.Fatalf("evolve under load: status %d, body %s", rec.Code, rec.Body)
	}
	// The evolve has returned: from here on, every fresh query must see
	// the evolved world (the old cache entry is unreachable behind the
	// rotated key prefix).
	for i := 0; i < 4; i++ {
		frec := get(t, h, url)
		if frec.Code != http.StatusOK {
			t.Fatalf("post-evolve query: status %d", frec.Code)
		}
		var resp reachResponse
		if err := json.Unmarshal(frec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Reachable != vNext {
			t.Fatalf("post-evolve reach %d, want evolved world's %d (stale cache hit)", resp.Reachable, vNext)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
