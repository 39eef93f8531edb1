package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
)

// This file is the serving layer's cluster face, both directions at once:
// every daemon mounts the worker shard endpoints (any flatnetd can compute
// shards), and every daemon carries a coordinator Pool that fans wide
// queries out once workers have joined. The shard handlers compute with
// workers=1 on purpose: one shard request occupies exactly one serving
// slot, so MaxConcurrent is an accurate backpressure bound and a
// multi-core worker scales by slots, not by oversubscription.

// clusterWide is the width (origins or trials) at which a query is worth
// fanning out: below two full bit-parallel words, coordination overhead
// beats the compute.
const clusterWide = 2 * bgpsim.BatchLanes

// ensureSnapshot lazily resolves the world's snapshot identity and, for
// generated or evolved worlds, encodes the bytes once per world.
func (ws *worldState) ensureSnapshot() error {
	ws.snapOnce.Do(func() {
		switch {
		case ws.snapPath != "":
			f, err := os.Open(ws.snapPath)
			if err != nil {
				ws.snapErr = err
				return
			}
			defer f.Close()
			h := sha256.New()
			n, err := io.Copy(h, f)
			if err != nil {
				ws.snapErr = err
				return
			}
			ws.snapSHA = fmt.Sprintf("%x", h.Sum(nil))
			ws.snapSize = n
		case ws.snapGen != nil:
			b, err := ws.snapGen()
			if err != nil {
				ws.snapErr = err
				return
			}
			ws.snapBytes = b
			ws.snapSHA = fmt.Sprintf("%x", sha256.Sum256(b))
			ws.snapSize = int64(len(b))
		}
	})
	return ws.snapErr
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, _ *http.Request) {
	ws := s.w()
	if err := ws.ensureSnapshot(); err != nil {
		s.writeError(w, err)
		return
	}
	g := ws.ds.Graph
	writeJSON(w, http.StatusOK, cluster.Info{
		World:        ws.id,
		SnapshotSHA:  ws.snapSHA,
		SnapshotSize: ws.snapSize,
		Year:         ws.year,
		ASes:         g.NumASes(),
		Links:        g.NumLinks(),
	})
}

func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	if err := ws.ensureSnapshot(); err != nil {
		s.writeError(w, err)
		return
	}
	if ws.snapSHA == "" {
		s.writeError(w, notFoundf("this node serves no snapshot (world loaded from -topo or generated without a snapshot provider)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-SHA256", ws.snapSHA)
	if ws.snapBytes != nil {
		w.Header().Set("Content-Length", fmt.Sprint(len(ws.snapBytes)))
		_, _ = w.Write(ws.snapBytes)
		return
	}
	http.ServeFile(w, r, ws.snapPath)
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req cluster.JoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.writeError(w, badRequestf("bad JSON body: %v", err))
		return
	}
	if req.Addr == "" {
		s.writeError(w, badRequestf("missing worker addr"))
		return
	}
	if req.World == "" {
		s.writeError(w, badRequestf("missing worker world"))
		return
	}
	if req.Slots < 1 || req.Slots > cluster.MaxSlots {
		s.writeError(w, badRequestf("slots %d outside [1, %d]", req.Slots, cluster.MaxSlots))
		return
	}
	if req.Wire != cluster.WireVersion {
		s.writeError(w, &apiError{Status: http.StatusConflict, Code: "wire_mismatch",
			Message: fmt.Sprintf("worker speaks wire version %d, coordinator speaks %d; run the same flatnetd build", req.Wire, cluster.WireVersion)})
		return
	}
	// RegisterFor checks and inserts under one pool lock, so a worker
	// holding an old world cannot slip in between this handler's check and
	// the registration while /v1/evolve rotates the pool.
	if _, ok := s.pool.RegisterFor(req.Addr, req.Slots, req.World); !ok {
		s.writeError(w, &apiError{Status: http.StatusConflict, Code: "world_mismatch",
			Message: fmt.Sprintf("worker serves world %.12s…, coordinator serves %.12s…; sync the snapshot first", req.World, s.pool.World())})
		return
	}
	writeJSON(w, http.StatusOK, cluster.JoinResponse{Workers: s.pool.NumWorkers()})
}

// wireScratch recycles encode buffers for binary frames. The cached body
// must be exactly sized (it lives in the LRU), but the encoder wants
// varint headroom; encoding into pooled scratch and copying out gives the
// cache compact bodies and the encoder an allocation-free scratch at its
// high-water size.
var wireScratch = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

func encodeCountsFrame(counts []int) []byte {
	sp := wireScratch.Get().(*[]byte)
	frame := cluster.AppendCounts((*sp)[:0], counts)
	out := append(make([]byte, 0, len(frame)), frame...)
	*sp = frame[:0] // keep the (possibly grown) buffer
	wireScratch.Put(sp)
	return out
}

func encodeFracsFrame(fracs []float64) []byte {
	sp := wireScratch.Get().(*[]byte)
	frame := cluster.AppendFracs((*sp)[:0], fracs)
	out := append(make([]byte, 0, len(frame)), frame...)
	*sp = frame[:0]
	wireScratch.Put(sp)
	return out
}

// countsScratch recycles shard-sized count vectors: a shard's counts exist
// only between compute and encode, so a coordinator fanning sweeps through
// this worker reuses one high-water buffer instead of allocating ~32 KB per
// shard.
var countsScratch = sync.Pool{New: func() any { return new([]int) }}

// rangeFrame computes counts [lo, hi) for kind into a pooled buffer and
// encodes them as one counts frame.
func rangeFrame(ws *worldState, kind core.Kind, lo, hi int) func(ctx context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		p := countsScratch.Get().(*[]int)
		if cap(*p) < hi-lo {
			*p = make([]int, hi-lo)
		}
		counts := (*p)[:hi-lo]
		defer countsScratch.Put(p)
		if err := ws.metrics.ReachabilityRangeIntoCtx(ctx, kind, lo, hi, 1, counts); err != nil {
			return nil, err
		}
		return encodeCountsFrame(counts), nil
	}
}

// framePart is one frame of a shard response: the result-cache key it is
// stored under and the computation that encodes it on a miss.
type framePart struct {
	key     string
	compute func(ctx context.Context) ([]byte, error)
}

// serveFrames answers a shard request with the parts' frames, each behind
// its length prefix, in request order. Every frame rides the result cache
// like any endpoint's body, so a coordinator retrying a shard this worker
// already finished pays a lookup, not a propagation.
func (s *Server) serveFrames(w http.ResponseWriter, r *http.Request, ws *worldState, parts []framePart) {
	timeout, err := s.timeoutFor(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	frames := make([][]byte, len(parts))
	total := 0
	for k, part := range parts {
		frame, err := s.cachedBody(ctx, ws, part.key, part.compute)
		if err != nil {
			s.writeError(w, err)
			return
		}
		frames[k] = frame
		total += 4 + len(frame)
	}
	w.Header().Set("Content-Type", cluster.WireContentType)
	w.Header().Set("Content-Length", fmt.Sprint(total))
	w.WriteHeader(http.StatusOK)
	prefix := make([]byte, 0, 4)
	for _, frame := range frames {
		if _, err := w.Write(cluster.AppendFramePrefix(prefix[:0], len(frame))); err != nil {
			return
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
}

// maxShardRanges bounds the ranges one sweep shard request may carry.
const maxShardRanges = 4096

// handleClusterSweep computes reachability shards: dense index ranges
// (all-AS sweeps; lo/hi is a one-element ranges) or an explicit origin
// list (batch queries), one counts frame per range or one for the list.
func (s *Server) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	var req cluster.SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, badRequestf("bad JSON body: %v", err))
		return
	}
	kind, err := core.KindFromString(req.Kind)
	if err != nil {
		s.writeError(w, badRequestf("%v", err))
		return
	}
	loHi := req.Lo != 0 || req.Hi != 0
	if len(req.Origins) > 0 {
		if loHi || len(req.Ranges) > 0 {
			s.writeError(w, badRequestf("a sweep shard takes an origin list or ranges, not both"))
			return
		}
		origins := make([]astopo.ASN, len(req.Origins))
		for i, o := range req.Origins {
			origins[i] = astopo.ASN(o)
		}
		key := fmt.Sprintf("cbatch|%d|%s", kind, originsKey(req.Origins))
		s.serveFrames(w, r, ws, []framePart{{key, func(ctx context.Context) ([]byte, error) {
			counts, err := ws.metrics.ReachabilityManyN(ctx, origins, kind, 1)
			if err != nil {
				return nil, err
			}
			return encodeCountsFrame(counts), nil
		}}})
		return
	}
	ranges := req.Ranges
	switch {
	case len(ranges) == 0:
		ranges = []cluster.Range{{Lo: req.Lo, Hi: req.Hi}}
	case loHi:
		s.writeError(w, badRequestf("a sweep shard takes lo/hi or ranges, not both"))
		return
	case len(ranges) > maxShardRanges:
		s.writeError(w, badRequestf("%d ranges in one request; the limit is %d", len(ranges), maxShardRanges))
		return
	}
	n := ws.ds.Graph.NumASes()
	parts := make([]framePart, len(ranges))
	for k, rg := range ranges {
		if rg.Lo < 0 || rg.Hi > n || rg.Lo >= rg.Hi {
			s.writeError(w, badRequestf("shard range [%d, %d) outside the %d-AS graph", rg.Lo, rg.Hi, n))
			return
		}
		parts[k] = framePart{fmt.Sprintf("csweep|%d|%d|%d", kind, rg.Lo, rg.Hi), rangeFrame(ws, kind, rg.Lo, rg.Hi)}
	}
	s.serveFrames(w, r, ws, parts)
}

// originsKey renders an origin list compactly for cache keys; the sha256
// keeps huge lists from bloating the LRU's key storage.
func originsKey(origins []uint32) string {
	h := sha256.New()
	var buf [4]byte
	for _, o := range origins {
		buf[0], buf[1], buf[2], buf[3] = byte(o), byte(o>>8), byte(o>>16), byte(o>>24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d|%x", len(origins), h.Sum(nil)[:12])
}

// handleClusterLeak replays leakers [Lo, Hi) of a leak batch's
// deterministic sample. The worker re-derives the identical sample from
// (origin, trials, seed) — state sync by determinism, no leaker list on
// the wire.
func (s *Server) handleClusterLeak(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	var req cluster.LeakRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.writeError(w, badRequestf("bad JSON body: %v", err))
		return
	}
	// Bounds first, before the O(V+E) pre-pass: trials sizes the sample, so
	// one outside [1, maxTrials] would buy a full-graph batch (or, negative,
	// fail the sampler), exactly as on /v1/leak.
	if req.Trials < 1 || req.Trials > maxTrials {
		s.writeError(w, badRequestf("trials %d outside [1, %d]", req.Trials, maxTrials))
		return
	}
	if _, ok := scenarioNames[req.Scenario]; !ok {
		s.writeError(w, badRequestf("unknown scenario %q", req.Scenario))
		return
	}
	key := fmt.Sprintf("cleak|%d|%s|%v|%d|%d|%d|%d",
		req.Origin, req.Scenario, req.Hijack, req.Trials, req.Seed, req.Lo, req.Hi)
	s.serveFrames(w, r, ws, []framePart{{key, func(ctx context.Context) ([]byte, error) {
		fracs, err := s.leakFracsRange(ctx, ws, req.LeakQuery, req.Lo, req.Hi, 1)
		if err != nil {
			return nil, err
		}
		return encodeFracsFrame(fracs), nil
	}}})
}

// leakFracsRange computes the detoured fractions of leakers [lo, hi) of
// the deterministic sample for q on the pinned world, with the given
// compute parallelism. Shared by the worker shard endpoint (workers=1) and
// the coordinator's local fallback (workers=0, full speed).
func (s *Server) leakFracsRange(ctx context.Context, ws *worldState, q cluster.LeakQuery, lo, hi, workers int) ([]float64, error) {
	origin := astopo.ASN(q.Origin)
	g := ws.ds.Graph
	if _, ok := g.Index(origin); !ok {
		return nil, notFoundf("AS%d not in the topology", origin)
	}
	scen, ok := scenarioNames[q.Scenario]
	if !ok {
		return nil, badRequestf("unknown scenario %q", q.Scenario)
	}
	proto, err := s.leakSweep(ws, origin, q.Scenario, scen, q.Hijack)
	if err != nil {
		return nil, err
	}
	leakers := bgpsim.SampleLeakers(g, origin, q.Trials, q.Seed)
	if lo < 0 || hi > len(leakers) || lo > hi {
		return nil, badRequestf("leak shard [%d, %d) outside the %d-leaker sample", lo, hi, len(leakers))
	}
	res, err := proto.Clone().TrialsN(ctx, leakers[lo:hi], nil, workers)
	if err != nil {
		return nil, err
	}
	fracs := make([]float64, len(res))
	for i, tr := range res {
		fracs[i] = tr.DetouredFrac
	}
	return fracs, nil
}

// ---- local fallback closures (wired into the Pool at New) ----
//
// Each closure pins the current world at call time. If an evolve lands
// while a fan-out is in flight, the fallback may compute on the successor
// world while workers finished shards on the old one; the handler's
// post-call verifyWorld check catches exactly that case and errors instead
// of caching a mixed result (worlds are monotonic, so the successor is
// always visible to the post-check).

func (s *Server) localSweep(ctx context.Context, kind string, lo, hi int) ([]int, error) {
	k, err := core.KindFromString(kind)
	if err != nil {
		return nil, err
	}
	out := make([]int, max(hi-lo, 0))
	if err := s.w().metrics.ReachabilityRangeIntoCtx(ctx, k, lo, hi, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Server) localBatch(ctx context.Context, kind string, origins []uint32) ([]int, error) {
	k, err := core.KindFromString(kind)
	if err != nil {
		return nil, err
	}
	asns := make([]astopo.ASN, len(origins))
	for i, o := range origins {
		asns[i] = astopo.ASN(o)
	}
	return s.w().metrics.ReachabilityMany(ctx, asns, k)
}

func (s *Server) localLeak(ctx context.Context, q cluster.LeakQuery, lo, hi int) ([]float64, error) {
	return s.leakFracsRange(ctx, s.w(), q, lo, hi, 0)
}

// ---- the public full-sweep endpoint ----

type sweepEntry struct {
	AS        astopo.ASN `json:"as"`
	Name      string     `json:"name,omitempty"`
	Reachable int        `json:"reachable"`
	Pct       float64    `json:"pct"`
}

type sweepResponse struct {
	Kind  string       `json:"kind"`
	ASes  int          `json:"ases"`
	Total int          `json:"total"`
	Top   []sweepEntry `json:"top"`
}

// sweepAllCounts computes the full per-AS reachability vector in dense
// graph-index order: partitioned by AS range across the cluster when
// workers are joined, in-process otherwise. Both routes produce
// byte-identical counts — disjoint exact-integer ranges computed by the
// same engine.
func (s *Server) sweepAllCounts(ctx context.Context, ws *worldState, kind core.Kind) ([]int, error) {
	n := ws.ds.Graph.NumASes()
	if s.pool.Ready() && s.pool.World() == ws.id {
		counts, err := s.pool.SweepCounts(ctx, kind.String(), n)
		if err = s.verifyWorld(ws, err); err != nil {
			return nil, err
		}
		return counts, nil
	}
	counts := make([]int, n)
	if err := ws.metrics.ReachabilityRangeIntoCtx(ctx, kind, 0, n, 0, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// handleSweep answers GET /v1/sweep: reachability of every AS in the
// topology, returning the top-N ranked as Table 1 of the paper ranks
// providers (count desc, ASN asc). With workers joined, the sweep is
// partitioned across the cluster; the merged counts are identical to the
// single-process sweep (disjoint exact-integer ranges), so the response
// body is byte-for-byte the same either way.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ws := s.w()
	q := r.URL.Query()
	kind, err := parseKind(q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	top, err := parseIntParam(q, "top", 20, maxTop)
	if err != nil {
		s.writeError(w, err)
		return
	}
	key := fmt.Sprintf("sweep|%d|%d", kind, top)
	s.serveCached(w, r, q, ws, key, func(ctx context.Context) (any, error) {
		g := ws.ds.Graph
		n := g.NumASes()
		counts, err := s.sweepAllCounts(ctx, ws, kind)
		if err != nil {
			return nil, err
		}
		entries := make([]sweepEntry, n)
		total := n - 1
		for i, c := range counts {
			a := g.ASNAt(i)
			entries[i] = sweepEntry{AS: a, Name: ws.nameOf(a), Reachable: c,
				Pct: 100 * float64(c) / float64(total)}
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Reachable != entries[j].Reachable {
				return entries[i].Reachable > entries[j].Reachable
			}
			return entries[i].AS < entries[j].AS
		})
		if top > n {
			top = n
		}
		return sweepResponse{Kind: kind.String(), ASes: n, Total: total, Top: entries[:top]}, nil
	})
}
