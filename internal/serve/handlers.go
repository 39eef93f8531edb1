package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
)

// apiError is a structured, client-visible error: every non-200 response
// body is {"error":{"code":..., "message":...}}.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

func badRequestf(format string, args ...any) error {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) error {
	return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's convention for a client that went
// away before the response; Go has no named constant for it.
const statusClientClosedRequest = 499

// writeError maps an error to its HTTP shape: structured apiErrors keep
// their status, deadline expiry becomes 504, client disconnect 499, and
// anything else is a 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
	case errors.Is(err, cluster.ErrSaturated):
		// Load shedding: the coordinator refuses fan-outs beyond its
		// admission bound instead of queueing them into timeout.
		w.Header().Set("Retry-After", "1")
		ae = &apiError{Status: http.StatusTooManyRequests, Code: "saturated",
			Message: "cluster worker pool is saturated; retry shortly"}
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.deadlines.Add(1)
		ae = &apiError{Status: http.StatusGatewayTimeout, Code: "deadline_exceeded",
			Message: "query exceeded its deadline and was cancelled"}
	case errors.Is(err, context.Canceled):
		ae = &apiError{Status: statusClientClosedRequest, Code: "canceled",
			Message: "client closed the request"}
	default:
		ae = &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
	writeJSON(w, ae.Status, map[string]*apiError{"error": ae})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failure"}}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, b)
}

// writeBody writes a JSON response body with the customary trailing
// newline.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/reach", s.handleReach)
	mux.HandleFunc("GET /v1/reliance", s.handleReliance)
	mux.HandleFunc("GET /v1/leak", s.handleLeak)
	mux.HandleFunc("GET /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/evolve", s.handleEvolve)
	mux.HandleFunc("GET "+cluster.PathInfo, s.handleClusterInfo)
	mux.HandleFunc("GET "+cluster.PathSnapshot, s.handleClusterSnapshot)
	mux.HandleFunc("POST "+cluster.PathJoin, s.handleClusterJoin)
	mux.HandleFunc("POST "+cluster.PathSweep, s.handleClusterSweep)
	mux.HandleFunc("POST "+cluster.PathLeak, s.handleClusterLeak)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// ---- parameter parsing ----
// Each handler parses its request's query once and hands the values to
// these helpers.

// parseAS resolves the required `as` query parameter against the pinned
// world's graph.
func parseAS(ws *worldState, q url.Values) (astopo.ASN, error) {
	raw := q.Get("as")
	if raw == "" {
		return 0, badRequestf("missing required parameter 'as'")
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, badRequestf("bad ASN %q", raw)
	}
	a := astopo.ASN(v)
	if _, ok := ws.ds.Graph.Index(a); !ok {
		return 0, notFoundf("AS%d not in the topology", a)
	}
	return a, nil
}

func parseKind(q url.Values) (core.Kind, error) {
	raw := q.Get("kind")
	if raw == "" {
		return core.HierarchyFree, nil
	}
	k, err := core.KindFromString(raw)
	if err != nil {
		return 0, badRequestf("%v", err)
	}
	return k, nil
}

var scenarioNames = map[string]bgpsim.LeakScenario{
	"announce-all": bgpsim.AnnounceAll,
	"lock-t1":      bgpsim.AnnounceAllLockT1,
	"lock-t1t2":    bgpsim.AnnounceAllLockT1T2,
	"lock-all":     bgpsim.AnnounceAllLockAll,
	"hierarchy":    bgpsim.AnnounceHierarchy,
}

func parseScenario(q url.Values) (string, bgpsim.LeakScenario, error) {
	raw := q.Get("scenario")
	if raw == "" {
		raw = "announce-all"
	}
	scen, ok := scenarioNames[raw]
	if !ok {
		names := make([]string, 0, len(scenarioNames))
		for n := range scenarioNames {
			names = append(names, n)
		}
		sort.Strings(names)
		return "", 0, badRequestf("unknown scenario %q (want one of %s)", raw, strings.Join(names, ", "))
	}
	return raw, scen, nil
}

func parseIntParam(q url.Values, name string, def, max int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, badRequestf("parameter %q must be a positive integer, got %q", name, raw)
	}
	if v > max {
		return 0, badRequestf("parameter %q is %d, above the limit of %d", name, v, max)
	}
	return v, nil
}

// ---- endpoints ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsResponse struct {
	ASes       int     `json:"ases"`
	Links      int     `json:"links"`
	Tier1      int     `json:"tier1"`
	Tier2      int     `json:"tier2"`
	UptimeSecs float64 `json:"uptime_secs"`

	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	Coalesced    int64 `json:"coalesced"`
	Computations int64 `json:"computations"`
	Deadlines    int64 `json:"deadlines_exceeded"`
	Inflight     int64 `json:"inflight"`
	Shed         int64 `json:"shed"`
	Evolves      int64 `json:"evolves"`

	// World is the served dataset's content address and Year the timeline
	// year it represents; Cluster appears once workers have registered
	// (per-worker in-flight gauges included).
	World   string         `json:"world"`
	Year    int            `json:"year"`
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ws := s.w()
	g := ws.ds.Graph
	cs := s.pool.StatsSnapshot()
	resp := statsResponse{
		ASes:         g.NumASes(),
		Links:        g.NumLinks(),
		Tier1:        len(ws.ds.Tier1),
		Tier2:        len(ws.ds.Tier2),
		UptimeSecs:   time.Since(s.started).Seconds(),
		Requests:     s.stats.requests.Load(),
		CacheHits:    s.stats.cacheHits.Load(),
		CacheMisses:  s.stats.cacheMisses.Load(),
		CacheEntries: s.cache.Len(),
		Coalesced:    s.stats.coalesced.Load(),
		Computations: s.stats.computations.Load(),
		Deadlines:    s.stats.deadlines.Load(),
		Inflight:     s.stats.inflight.Load(),
		Shed:         cs.Shed,
		Evolves:      s.stats.evolves.Load(),
		World:        ws.id,
		Year:         ws.year,
	}
	if len(cs.Workers) > 0 {
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

type reachResponse struct {
	AS        astopo.ASN `json:"as"`
	Name      string     `json:"name,omitempty"`
	Kind      string     `json:"kind"`
	Reachable int        `json:"reachable"`
	Total     int        `json:"total"`
	Pct       float64    `json:"pct"`
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	q := r.URL.Query()
	origin, err := parseAS(ws, q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	kind, err := parseKind(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := fmt.Sprintf("reach|%d|%d", origin, kind)
	s.serveCached(w, r, q, ws, key, func(ctx context.Context) (any, error) {
		n, err := ws.metrics.ReachabilityCtx(ctx, origin, kind)
		if err != nil {
			return nil, err
		}
		total := ws.ds.Graph.NumASes() - 1
		return reachResponse{
			AS: origin, Name: ws.nameOf(origin), Kind: kind.String(),
			Reachable: n, Total: total, Pct: 100 * float64(n) / float64(total),
		}, nil
	})
}

type relianceEntry struct {
	AS    astopo.ASN `json:"as"`
	Name  string     `json:"name,omitempty"`
	Value float64    `json:"value"`
}

type relianceResponse struct {
	AS   astopo.ASN      `json:"as"`
	Name string          `json:"name,omitempty"`
	Kind string          `json:"kind"`
	Top  []relianceEntry `json:"top"`
}

func (s *Server) handleReliance(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	q := r.URL.Query()
	origin, err := parseAS(ws, q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	kind, err := parseKind(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	top, err := parseIntParam(q, "top", 10, maxTop)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := fmt.Sprintf("reliance|%d|%d|%d", origin, kind, top)
	s.serveCached(w, r, q, ws, key, func(ctx context.Context) (any, error) {
		entries, err := ws.metrics.TopRelianceCtx(ctx, origin, kind, top)
		if err != nil {
			return nil, err
		}
		out := relianceResponse{AS: origin, Name: ws.nameOf(origin), Kind: kind.String(),
			Top: make([]relianceEntry, len(entries))}
		for i, e := range entries {
			out.Top[i] = relianceEntry{AS: e.AS, Name: ws.nameOf(e.AS), Value: e.Value}
		}
		return out, nil
	})
}

type leakResponse struct {
	AS          astopo.ASN `json:"as"`
	Name        string     `json:"name,omitempty"`
	Scenario    string     `json:"scenario"`
	Hijack      bool       `json:"hijack"`
	Trials      int        `json:"trials"`
	Seed        int64      `json:"seed"`
	MeanDetour  float64    `json:"mean_detour"`
	P95Detour   float64    `json:"p95_detour"`
	WorstDetour float64    `json:"worst_detour"`
}

func (s *Server) handleLeak(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	q := r.URL.Query()
	origin, err := parseAS(ws, q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	scenName, scen, err := parseScenario(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	trials, err := parseIntParam(q, "trials", 200, maxTrials)
	if err != nil {
		s.writeError(w, err)
		return
	}
	hijack := q.Get("hijack") == "true"
	seed := int64(origin)
	if raw := q.Get("seed"); raw != "" {
		seed, err = strconv.ParseInt(raw, 10, 64)
		if err != nil {
			s.writeError(w, badRequestf("bad seed %q", raw))
			return
		}
	}
	key := fmt.Sprintf("leak|%d|%s|%v|%d|%d", origin, scenName, hijack, trials, seed)
	lq := cluster.LeakQuery{Origin: uint32(origin), Scenario: scenName, Hijack: hijack, Trials: trials, Seed: seed}
	_ = scen // validated by parseScenario; leakFracsRange re-resolves by name
	s.serveCached(w, r, q, ws, key, func(ctx context.Context) (any, error) {
		g := ws.ds.Graph
		leakers := bgpsim.SampleLeakers(g, origin, trials, seed)
		// The fractions come back in deterministic sample order either
		// way — partitioned across the cluster or replayed locally through
		// pooled bit-parallel BatchLeak engines — so the aggregates below
		// sum the same floats in the same order and the response body is
		// identical whichever path ran.
		var fracs []float64
		var err error
		if s.pool.Ready() && s.pool.World() == ws.id && len(leakers) >= clusterWide {
			fracs, err = s.pool.LeakFracs(ctx, lq, len(leakers))
			err = s.verifyWorld(ws, err)
		} else {
			fracs, err = s.leakFracsRange(ctx, ws, lq, 0, len(leakers), 0)
		}
		if err != nil {
			return nil, err
		}
		st := bgpsim.SummarizeDetours(fracs)
		return leakResponse{
			AS: origin, Name: ws.nameOf(origin), Scenario: scenName, Hijack: hijack,
			Trials: len(fracs), Seed: seed, MeanDetour: st.Mean, P95Detour: st.P95, WorstDetour: st.Worst,
		}, nil
	})
}

// leakSweep returns the cached leak-free pre-pass prototype for one
// (world, origin, scenario, hijack) configuration, building it on first
// use. The key is world-prefixed like the result cache: a sweep holds O(V)
// state tied to one topology and must never outlive an evolve. A racing
// build for the same key is benign — both sweeps are equivalent and the
// later Put wins — so no lock is held across the O(V+E) pre-pass.
func (s *Server) leakSweep(ws *worldState, origin astopo.ASN, scenName string, scen bgpsim.LeakScenario, hijack bool) (*bgpsim.LeakSweep, error) {
	key := fmt.Sprintf("%s%d|%s|%v", ws.key, origin, scenName, hijack)
	if v, ok := s.sweeps.Get(key); ok {
		return v.(*bgpsim.LeakSweep), nil
	}
	ds := ws.ds
	cfg := bgpsim.ScenarioConfig(ds.Graph, origin, ds.Tier1, ds.Tier2, scen)
	cfg.Hijack = hijack
	sw, err := bgpsim.NewLeakSweep(ds.Graph, cfg)
	if err != nil {
		return nil, err
	}
	s.sweeps.Put(key, sw)
	return sw, nil
}

type batchRequest struct {
	AS   []astopo.ASN `json:"as"`
	Kind string       `json:"kind"`
}

type batchResult struct {
	AS        astopo.ASN `json:"as"`
	Reachable int        `json:"reachable"`
}

type batchResponse struct {
	Kind    string        `json:"kind"`
	Total   int           `json:"total"`
	Engine  string        `json:"engine"`
	Results []batchResult `json:"results"`
}

// handleBatch answers multi-origin reachability. Every width rides the
// bit-parallel batch engine, a list under bgpsim.BatchLanes origins as one
// partial block (see core.ReachabilityMany).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	q := r.URL.Query()
	var origins []astopo.ASN
	var kind core.Kind
	if r.Method == http.MethodPost {
		var req batchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, badRequestf("bad JSON body: %v", err))
			return
		}
		origins = req.AS
		if req.Kind == "" {
			kind = core.HierarchyFree
		} else {
			k, err := core.KindFromString(req.Kind)
			if err != nil {
				s.writeError(w, badRequestf("%v", err))
				return
			}
			kind = k
		}
	} else {
		raw := q.Get("as")
		if raw == "" {
			s.writeError(w, badRequestf("missing required parameter 'as' (comma-separated ASN list)"))
			return
		}
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				s.writeError(w, badRequestf("bad ASN %q in 'as' list", part))
				return
			}
			origins = append(origins, astopo.ASN(v))
		}
		k, err := parseKind(q)
		if err != nil {
			s.writeError(w, err)
			return
		}
		kind = k
	}
	if len(origins) == 0 {
		s.writeError(w, badRequestf("empty origin list"))
		return
	}
	if len(origins) > maxBatch {
		s.writeError(w, badRequestf("%d origins exceed the per-request limit of %d", len(origins), maxBatch))
		return
	}
	g := ws.ds.Graph
	for _, o := range origins {
		if _, ok := g.Index(o); !ok {
			s.writeError(w, notFoundf("AS%d not in the topology", o))
			return
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch|%d", kind)
	for _, o := range origins {
		fmt.Fprintf(&sb, "|%d", o)
	}
	// The engine field is a width label, not an engine selector: every
	// count rides the bit-parallel engine (a list under one word is a
	// partial block), here or on a cluster worker. It is a response byte
	// clients and the goldens have seen, so it keeps saying "scalar" below
	// one 64-lane word and "batch" from there up.
	engine := "scalar"
	if len(origins) >= bgpsim.BatchLanes {
		engine = "batch"
	}
	s.serveCached(w, r, q, ws, sb.String(), func(ctx context.Context) (any, error) {
		var counts []int
		var err error
		if s.pool.Ready() && s.pool.World() == ws.id && len(origins) >= clusterWide {
			raw := make([]uint32, len(origins))
			for i, o := range origins {
				raw[i] = uint32(o)
			}
			counts, err = s.pool.BatchCounts(ctx, raw, kind.String())
			err = s.verifyWorld(ws, err)
		} else {
			counts, err = ws.metrics.ReachabilityMany(ctx, origins, kind)
		}
		if err != nil {
			return nil, err
		}
		out := batchResponse{Kind: kind.String(), Total: g.NumASes() - 1, Engine: engine,
			Results: make([]batchResult, len(origins))}
		for i, o := range origins {
			out.Results[i] = batchResult{AS: o, Reachable: counts[i]}
		}
		return out, nil
	})
}
