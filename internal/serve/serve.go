// Package serve is the query layer over the paper's metrics: a
// long-running HTTP/JSON service answering per-AS reachability, reliance,
// and route-leak-resilience questions against an immutable world state —
// the batch artifacts of packages core and bgpsim, reshaped for
// interactive, many-client serving.
//
// Worlds are immutable but replaceable: POST /v1/evolve swaps the served
// world for its successor by applying a delta snapshot (see worldState),
// so a long-running daemon can walk a timeline without restarting.
//
// The shared per-world state (the frozen graph, the Metrics tier masks,
// one LeakSweep pre-pass per leak configuration) is computed once; every
// request then pays only for its own propagation, bounded by:
//
//   - an LRU result cache keyed by the full query, so repeated queries are
//     served without recomputing;
//   - singleflight coalescing, so a thundering herd on one key computes
//     once and everyone shares the result;
//   - a bounded worker pool, so concurrent distinct queries cannot
//     oversubscribe the CPU;
//   - per-request deadlines threaded as contexts into the simulators,
//     which abort propagation between distance buckets (HTTP 504);
//   - graceful shutdown that stops accepting connections and drains
//     in-flight queries.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/topogen"
)

// Config parameterizes a Server. The zero value of every limit picks the
// documented default.
type Config struct {
	// Dataset is the topology plus tier sets the metrics run over. When
	// zero and World is set, it is derived from World.
	Dataset core.Dataset
	// Names optionally resolves ASNs to display names (topogen's NameOf).
	Names func(astopo.ASN) string
	// World, when set, is the full generated world behind Dataset (graph
	// plus annotations and IXP memberships). It is what makes the server
	// evolvable: /v1/evolve applies growth deltas with topogen.ApplyDelta,
	// which needs the generation lineage, not just the frozen graph.
	// Servers built from bare relationship files leave it nil and reject
	// evolution.
	World *topogen.Internet

	// CacheSize bounds the result cache, in entries (default 4096).
	CacheSize int
	// DefaultTimeout is the per-request deadline when the query does not
	// set one (default 5s); MaxTimeout clamps client-requested deadlines
	// (default 60s).
	DefaultTimeout, MaxTimeout time.Duration
	// MaxConcurrent bounds simultaneously computing requests (default
	// GOMAXPROCS); excess requests queue until a worker or their deadline
	// frees them.
	MaxConcurrent int

	// Year is the preset year this server's world represents; workers that
	// fetch the snapshot open it at this section (default 2020, the
	// paper's measurement year).
	Year int
	// SnapshotPath, when set, is the v2 snapshot file this world was
	// loaded from; /v1/cluster/snapshot serves it and /v1/cluster/info
	// advertises its sha256 so joining workers can sync by content
	// address.
	SnapshotPath string
	// SnapshotBytes, when set, lazily encodes the served world as v2
	// snapshot bytes — how generated (non-snapshot) worlds stay joinable.
	// Ignored when SnapshotPath is set.
	SnapshotBytes func() ([]byte, error)
	// Cluster tunes the coordinator's worker pool (zero value = defaults);
	// the World field is overwritten with the dataset's content address.
	Cluster cluster.PoolConfig
}

// Request limits and the sweep cache's bound.
const (
	// sweepCacheSize bounds the per-config LeakSweep pre-pass cache, in
	// entries. An entry holds the pre-pass rows of the origin and the ASes
	// with customers and borrows its scratch per request: at scale 1.0
	// (3,404 of 69,488 ASes relay) 0.09-0.13 MiB, plus a peer-locking
	// config's one-byte-per-AS mask, so a full cache pins under 13 MiB.
	sweepCacheSize = 64
	// maxTrials caps the trials parameter of /v1/leak and of a leak shard.
	maxTrials = 2000
	// maxBatch caps the origins of one /v1/batch request.
	maxBatch = 4096
	// maxTop caps the top parameter of /v1/reliance and /v1/sweep.
	maxTop = 1000
)

func (c *Config) fillDefaults() {
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.Year <= 0 {
		c.Year = 2020
	}
}

// worldState is everything derived from one topology: the frozen dataset,
// its metrics, its content address, and its snapshot identity. It is
// immutable once published — requests pin the pointer once and compute
// against a consistent world even while /v1/evolve swaps in a successor.
// The id prefix baked into every cache key is what rotates the result
// cache on evolve: old entries become unreachable rather than stale.
type worldState struct {
	ds      core.Dataset
	metrics *core.Metrics
	names   func(astopo.ASN) string
	// in is the generation lineage (annotations, IXPs) behind ds; nil for
	// worlds loaded from bare relationship files, which cannot evolve.
	in   *topogen.Internet
	year int

	// id is the dataset's content address (cluster.DatasetHash); key is
	// its short prefix baked into every result-cache key, so cached bodies
	// can never leak across worlds (a daemon swapped onto a new snapshot
	// or evolved onto the next year must never replay stale answers).
	id  string
	key string

	// Snapshot identity, lazily resolved per world: the file's sha256
	// (snapPath) or in-memory encoded bytes (snapGen). Evolved worlds set
	// snapGen so the cluster stays joinable by content address.
	snapPath  string
	snapGen   func() ([]byte, error)
	snapOnce  sync.Once
	snapSHA   string
	snapSize  int64
	snapBytes []byte
	snapErr   error
}

func (ws *worldState) nameOf(a astopo.ASN) string {
	if ws.names == nil {
		return ""
	}
	return ws.names(a)
}

// newWorldState freezes one topology into a servable world.
func newWorldState(ds core.Dataset, names func(astopo.ASN) string, in *topogen.Internet,
	year int, snapPath string, snapGen func() ([]byte, error)) *worldState {
	ws := &worldState{
		ds:       ds,
		metrics:  core.New(ds),
		names:    names,
		in:       in,
		year:     year,
		snapPath: snapPath,
		snapGen:  snapGen,
	}
	ws.id = cluster.DatasetHash(ds.Graph, ds.Tier1, ds.Tier2)
	ws.key = ws.id[:16] + "|"
	return ws
}

// Server answers metric queries over the current world state. It is safe
// for concurrent use; the world is an atomically swapped immutable value,
// and all other mutable state is behind the cache, the flight group, and
// atomic counters.
type Server struct {
	cfg     Config
	cache   *lru // world-prefixed query key -> marshaled response body ([]byte)
	sweeps  *lru // world-prefixed leak config key -> *bgpsim.LeakSweep
	flights flightGroup
	sem     chan struct{} // worker-pool slots
	httpSrv *http.Server
	started time.Time

	// world is the currently served world. Handlers load it exactly once
	// per request and use that snapshot throughout, so a concurrent evolve
	// never mixes two topologies inside one response. evolveMu serializes
	// evolutions (load -> apply -> swap must not interleave).
	world    atomic.Pointer[worldState]
	evolveMu sync.Mutex

	// pool is the cluster coordinator state. Always present (the health
	// prober starts only when a worker registers), so the handlers can
	// route any sufficiently wide query through it once Ready.
	pool *cluster.Pool

	stats struct {
		requests     atomic.Int64
		cacheHits    atomic.Int64
		cacheMisses  atomic.Int64
		coalesced    atomic.Int64
		computations atomic.Int64
		deadlines    atomic.Int64
		inflight     atomic.Int64
		evolves      atomic.Int64
	}

	// slowdown, when non-nil, runs at the start of every leader
	// computation. Tests use it to hold computations open so coalescing,
	// deadline, and drain behavior can be observed deterministically.
	slowdown func()
}

// w returns the currently served world. Callers must load it once and use
// the returned pointer for the whole request.
func (s *Server) w() *worldState { return s.world.Load() }

// New builds a Server over cfg, precomputing the shared per-world state
// (frozen graph, tier base masks). The graph must be non-empty.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Dataset.Graph == nil && cfg.World != nil {
		cfg.Dataset = core.Dataset{Graph: cfg.World.Graph, Tier1: cfg.World.Tier1, Tier2: cfg.World.Tier2}
	}
	if cfg.Names == nil && cfg.World != nil {
		cfg.Names = cfg.World.NameOf
	}
	if cfg.Dataset.Graph == nil || cfg.Dataset.Graph.NumASes() == 0 {
		return nil, errors.New("serve: empty topology")
	}
	s := &Server{
		cfg:     cfg,
		cache:   newLRU(cfg.CacheSize),
		sweeps:  newLRU(sweepCacheSize),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
	}
	ws := newWorldState(cfg.Dataset, cfg.Names, cfg.World, cfg.Year, cfg.SnapshotPath, cfg.SnapshotBytes)
	s.world.Store(ws)
	pc := cfg.Cluster
	pc.World = ws.id
	pc.LocalSweep = s.localSweep
	pc.LocalBatch = s.localBatch
	pc.LocalLeak = s.localLeak
	s.pool = cluster.NewPool(pc)
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// WorldID returns the currently served dataset's content address.
func (s *Server) WorldID() string { return s.w().id }

// Pool exposes the cluster coordinator state (worker registry/dispatcher).
func (s *Server) Pool() *cluster.Pool { return s.pool }

// Metrics exposes the current world's metrics (shared, concurrent-safe).
func (s *Server) Metrics() *core.Metrics { return s.w().metrics }

// Start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0"). Use Shutdown to stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		// ErrServerClosed is the normal Shutdown signal; anything else
		// surfaces on the next request as a connection error.
		_ = s.httpSrv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Shutdown stops accepting new connections and blocks until in-flight
// requests drain or ctx expires — the graceful half of the serving
// contract.
func (s *Server) Shutdown(ctx context.Context) error {
	s.pool.Close()
	return s.httpSrv.Shutdown(ctx)
}

// timeoutFor resolves the effective deadline for a request from its parsed
// query: the `timeout` parameter when present (clamped to MaxTimeout),
// DefaultTimeout otherwise.
func (s *Server) timeoutFor(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, badRequestf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, badRequestf("timeout must be positive, got %q", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// serveCached is the shared request path of every cacheable JSON endpoint:
// result-cache lookup, then singleflight-coalesced computation under the
// worker pool and the request deadline, then cache fill. q is the request's
// query, parsed once by the handler.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, q url.Values, ws *worldState, key string, compute func(ctx context.Context) (any, error)) {
	timeout, err := s.timeoutFor(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	body, err := s.cachedBody(ctx, ws, key, func(ctx context.Context) ([]byte, error) {
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// cachedBody is the cache-or-compute core of serveCached, separate so the
// shard endpoints, which assemble one response from several cached frames,
// can reuse it: world-prefixed LRU lookup,
// single-flight coalescing, and the serving-slot semaphore around compute.
func (s *Server) cachedBody(ctx context.Context, ws *worldState, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	// Every key is world-prefixed: a cache (or a coalesced flight) keyed
	// by query alone would be wrong the moment two worlds exist — shard
	// requests from different coordinators, a daemon swapped onto a new
	// snapshot, or an evolved world. Evolution rotates the prefix, so old
	// entries become unreachable and age out of the LRU.
	key = ws.key + key
	if b, ok := s.cache.Get(key); ok {
		s.stats.cacheHits.Add(1)
		return b.([]byte), nil
	}
	s.stats.cacheMisses.Add(1)
	body, coalesced, err := s.flights.Do(ctx, key, func() ([]byte, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.sem }()
		s.stats.inflight.Add(1)
		defer s.stats.inflight.Add(-1)
		if s.slowdown != nil {
			s.slowdown()
		}
		s.stats.computations.Add(1)
		b, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	})
	if coalesced {
		s.stats.coalesced.Add(1)
	}
	return body, err
}
