package main

// The traced run. End-to-end numbers come from black-box runs with tracing
// off; a -trace 1 run instead replays the same seeded requests one layer
// deeper each time, from the bench's own process, timing the calls into
// each layer's public functions. A layer's self time for request id is its
// span minus the next-deeper replay's span for the same id — negative
// values are reported, not clamped. README.md lists the functions pinned
// here; a change that deletes one of them is a benchmark change.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/serve"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent is the Span number of the span that caused this one (0
// for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reserve hands out a span number before the interval it names begins, so
// a child span recorded during the interval can point at it.
func (rec *recorder) reserve() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.next++
	return rec.next
}

func (rec *recorder) put(spanNo int, name string, id, parent int, start, end time.Time) {
	rec.mu.Lock()
	rec.spans = append(rec.spans, span{Name: name, ID: id, Span: spanNo, Parent: parent,
		Start: int64(start.Sub(rec.t0)), End: int64(end.Sub(rec.t0))})
	rec.mu.Unlock()
}

// time records fn as one root span.
func (rec *recorder) time(name string, id int, fn func() error) (time.Duration, error) {
	no := rec.reserve()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	rec.put(no, name, id, 0, t0, t1)
	return t1.Sub(t0), err
}

// byID returns the duration of the named layer's span for each request id.
func (rec *recorder) byID(name string) map[int]time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range rec.spans {
		if s.Name == name {
			out[s.ID] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfTimes is the self-time arithmetic: for every id present in both
// layers, the outer span minus the inner one. Negative results stay.
func selfTimes(outer, inner map[int]time.Duration) []time.Duration {
	var out []time.Duration
	for id, o := range outer {
		if in, ok := inner[id]; ok {
			out = append(out, o-in)
		}
	}
	return out
}

func values(m map[int]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	return out
}

func (rec *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	rec.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- an in-process world and server ----

// world is a snapshot opened in the bench's own process.
type world struct {
	rd *snapshot.Reader
	in *topogen.Internet
	ds core.Dataset
}

// openWorld maps the snapshot the daemons served and reports the world-
// building layers every daemon pays at start-up (and on every evolve).
func (r *run) openWorld(path string, year int) (*world, error) {
	var w world
	d, err := r.rec.time("snapshot.open", 0, func() error {
		var err error
		if w.rd, err = snapshot.Open(path); err != nil {
			return err
		}
		if w.in = w.rd.Internet(year); w.in == nil {
			return fmt.Errorf("snapshot %s has no %d section", path, year)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.res.set("snapshot.open_ms", ms(d), 1, "snapshot.Open + Internet(year)")
	w.ds = core.Dataset{Graph: w.in.Graph, Tier1: w.in.Tier1, Tier2: w.in.Tier2}
	r.traceWorldBuild(w.ds)
	return &w, nil
}

func (r *run) traceWorldBuild(ds core.Dataset) {
	d, _ := r.rec.time("cluster.hash", 0, func() error { cluster.DatasetHash(ds.Graph, ds.Tier1, ds.Tier2); return nil })
	r.res.set("cluster.hash_ms", ms(d), 1, "cluster.DatasetHash")
	var ci *bgpsim.ClassIndex
	d, _ = r.rec.time("bgpsim.classindex", 0, func() error { ci = bgpsim.NewClassIndex(ds.Graph, ds.Tier1, ds.Tier2, nil); return nil })
	r.res.set("bgpsim.classindex_ms", ms(d), 1, "bgpsim.NewClassIndex")
	r.res.set("bgpsim.collapse_ratio", ci.CollapseRatio(), ci.NumASes(), "ASes per origin class (a count: repeats exactly)")
	d, _ = r.rec.time("core.new", 0, func() error { core.New(ds).SweepClasses(); return nil })
	r.res.set("core.new_ms", ms(d), 1, "core.New + first SweepClasses()")
}

// inproc is a serve.Server in the bench's process, its handler wrapped by
// one that records a "serve" span per request carrying an X-Bench-Id.
type inproc struct {
	srv *http.Server
	c   *client
}

func (r *run) serveInProcess(w *world, year int, snapPath string) (*inproc, error) {
	s, err := serve.New(serve.Config{Dataset: w.ds, Names: w.in.NameOf, World: w.in, Year: year, SnapshotPath: snapPath})
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, rq *http.Request) {
		tag := rq.Header.Get("X-Bench-Id")
		if tag == "" {
			h.ServeHTTP(rw, rq)
			return
		}
		no := r.rec.reserve()
		t0 := time.Now()
		h.ServeHTTP(rw, rq)
		t1 := time.Now()
		id, parent, _ := strings.Cut(tag, "/")
		idN, _ := strconv.Atoi(id)
		parentN, _ := strconv.Atoi(parent)
		r.rec.put(no, "serve", idN, parentN, t0, t1)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: wrapped}
	go func() { _ = hs.Serve(ln) }()
	return &inproc{srv: hs, c: newClient("http://"+ln.Addr().String(), 1)}, nil
}

func (p *inproc) close() {
	p.c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
}

// roundTrip sends rq to the in-process server as a "net" span; the handler
// records its "serve" span as the child.
func (r *run) roundTrip(p *inproc, rq *request) error {
	no := r.rec.reserve()
	t0 := time.Now()
	_, err := p.c.doTagged(rq, fmt.Sprintf("%d/%d", rq.ID, no))
	r.rec.put(no, "net", rq.ID, 0, t0, time.Now())
	return err
}

func (r *run) setDist(name string, d []time.Duration, note string) {
	r.res.set(name, us(median(d)), len(d), "median; "+note)
}

// ---- point-cold / point-hot ----

// tracePoint peels one request list through the layers: over loopback to
// an in-process server (net, serve), then the same ids straight at
// core.Metrics, then at the bgpsim simulator on core's mask.
func (r *run) tracePoint(snap string, hot bool, warm, reqs []request, untracedP50ms float64) error {
	w, err := r.openWorld(snap, 2020)
	if err != nil {
		return err
	}
	defer w.rd.Close()
	p, err := r.serveInProcess(w, 2020, snap)
	if err != nil {
		return err
	}
	defer p.close()
	if len(reqs) > traceReplay {
		reqs = reqs[:traceReplay]
	}
	// Lazy state (the class index behind the first /v1/reach) and, when
	// hot, the cache itself are filled before anything is timed.
	if _, err := p.c.do(&request{Method: http.MethodGet, Path: fmt.Sprintf("/v1/reach?as=%d", reqs[0].AS)}); err != nil {
		return err
	}
	for i := range warm {
		if _, err := p.c.do(&warm[i]); err != nil {
			return err
		}
	}
	failed := 0
	t0 := time.Now()
	for i := range reqs {
		if err := r.roundTrip(p, &reqs[i]); err != nil {
			failed++
			r.res.fail("traced replay: %v", err)
		}
	}
	r.res.phase("replay-net+serve", len(reqs), failed, time.Since(t0))
	isReach := map[int]bool{}
	for _, rq := range reqs {
		isReach[rq.ID] = rq.Op == "reach"
	}
	only := func(m map[int]time.Duration, reach bool) map[int]time.Duration {
		out := map[int]time.Duration{}
		for id, d := range m {
			if isReach[id] == reach {
				out[id] = d
			}
		}
		return out
	}
	netAll, serveAll := r.rec.byID("net"), r.rec.byID("serve")
	rtt := median(values(netAll))
	r.setDist("net.rtt_us", values(netAll), "client round trip over loopback")
	r.setDist("net.self_us", selfTimes(netAll, serveAll), "round trip − handler span")
	if untracedP50ms > 0 {
		r.res.set("loadgen.trace_overhead_ratio", ms(rtt)/untracedP50ms, len(netAll), "traced round-trip median / untraced closed-loop latency_ms")
	}
	if hot {
		r.setDist("serve.hit_us", values(serveAll), "handler span of a cache hit")
		return nil
	}

	// Deeper: the same ids straight at core, then at bgpsim on core's mask.
	m := core.New(w.ds)
	sim := bgpsim.New(w.ds.Graph)
	ctx := context.Background()
	t0 = time.Now()
	for i := range reqs {
		rq := &reqs[i]
		kind, err := core.KindFromString(rq.Kind)
		if err != nil {
			return err
		}
		as := astopo.ASN(rq.AS)
		if rq.Op == "reliance" {
			if _, err := r.rec.time("core", rq.ID, func() error { _, err := m.TopRelianceCtx(ctx, as, kind, 10); return err }); err != nil {
				return err
			}
			continue
		}
		if _, err := r.rec.time("core", rq.ID, func() error { _, err := m.ReachabilityCtx(ctx, as, kind); return err }); err != nil {
			return err
		}
		mask := m.Mask(as, kind)
		if _, err := r.rec.time("bgpsim", rq.ID, func() error {
			_, err := sim.ReachabilityCountCtx(ctx, bgpsim.Config{Origin: as, Exclude: mask})
			return err
		}); err != nil {
			return err
		}
	}
	r.res.phase("replay-core+bgpsim", len(reqs), 0, time.Since(t0))
	coreAll, simAll := r.rec.byID("core"), r.rec.byID("bgpsim")
	coreReach := values(only(coreAll, true))
	r.setDist("core.reach_us", coreReach, "Metrics.ReachabilityCtx")
	r.res.set("core.reach_p99_us", us(percentile(sortedCopy(coreReach), tailPercentile(len(coreReach)))), len(coreReach),
		fmt.Sprintf("p%g", tailPercentile(len(coreReach))*100))
	r.res.set("core.reliance_ms", ms(median(values(only(coreAll, false)))), len(only(coreAll, false)), "median; Metrics.TopRelianceCtx")
	r.setDist("bgpsim.propagate_us", values(simAll), "Simulator.ReachabilityCountCtx on Metrics.Mask")
	r.res.set("bgpsim.propagate_p99_us", us(percentile(sortedCopy(values(simAll)), tailPercentile(len(simAll)))), len(simAll),
		fmt.Sprintf("p%g", tailPercentile(len(simAll))*100))
	r.setDist("core.reach_self_us", selfTimes(only(coreAll, true), simAll), "core span − bgpsim span")
	missSelf := selfTimes(only(serveAll, true), coreAll)
	r.setDist("serve.miss_self_us", missSelf, "handler span − core span, /v1/reach")
	// The layers of one cold /v1/reach should add back up to its round trip.
	netSelf := selfTimes(only(netAll, true), serveAll)
	sum := median(netSelf) + median(missSelf) + median(selfTimes(only(coreAll, true), simAll)) + median(values(simAll))
	reachRTT := median(values(only(netAll, true)))
	r.res.set("loadgen.layer_sum_ratio", float64(sum)/float64(reachRTT), len(netSelf),
		"cold /v1/reach: (net + serve + core self + bgpsim medians) / round-trip median; 1 when the replays agree")
	return nil
}

// ---- wide-local / wide-cluster ----

// traceWide times the batch layers a wide request runs through: the cold
// sweep at the handler and at core, the 64-lane block, the leak pre-pass
// and trials — and, with workers given, the cluster dispatch on top.
func (r *run) traceWide(snap string, workers []string, universe []uint32) error {
	w, err := r.openWorld(snap, 2020)
	if err != nil {
		return err
	}
	defer w.rd.Close()
	g, ctx := w.ds.Graph, context.Background()
	n := g.NumASes()

	p, err := r.serveInProcess(w, 2020, snap)
	if err != nil {
		return err
	}
	defer p.close()
	if _, err := p.c.do(&request{Method: http.MethodGet, Path: fmt.Sprintf("/v1/reach?as=%d", universe[0])}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		rq := request{ID: i, Op: "sweep", Method: http.MethodGet, Path: fmt.Sprintf("/v1/sweep?kind=hierarchy-free&top=%d&timeout=30s", 900+i)}
		if err := r.roundTrip(p, &rq); err != nil {
			return err
		}
	}
	m := core.New(w.ds)
	m.SweepClasses()
	var hfCounts []int
	kinds := []core.Kind{core.HierarchyFree, core.Tier1Free}
	if len(workers) == 0 {
		kinds = append(kinds, core.ProviderFree) // once, here: too slow for the timed cycle
	}
	sweepSpans := map[core.Kind]time.Duration{}
	for _, k := range kinds {
		k := k
		d, err := r.rec.time("core.sweep."+k.String(), 0, func() error {
			counts, err := m.ReachabilityAll(k)
			if k == core.HierarchyFree {
				hfCounts = counts
			}
			return err
		})
		if err != nil {
			return err
		}
		sweepSpans[k] = d
		r.res.set("core.sweep_ms."+k.String(), ms(d), 1, "Metrics.ReachabilityAll")
	}
	serveSweep := median(values(r.rec.byID("serve")))
	r.res.set("serve.sweep_self_ms", ms(serveSweep-sweepSpans[core.HierarchyFree]), 2, "cold /v1/sweep handler span − core.sweep_ms.hierarchy-free: rank + encode")

	origins := make([]astopo.ASN, 0, 1024)
	for _, a := range hotSet(universe, 1024) {
		origins = append(origins, astopo.ASN(a))
	}
	d, err := r.rec.time("core.many", 0, func() error { _, err := m.ReachabilityMany(ctx, origins, core.HierarchyFree); return err })
	if err != nil {
		return err
	}
	r.res.set("core.many_ms", ms(d), 1, fmt.Sprintf("Metrics.ReachabilityMany, %d origins", len(origins)))

	// One 64-origin block on the hierarchy-free base mask.
	base := make([]bool, n)
	for _, set := range []astopo.ASSet{w.ds.Tier1, w.ds.Tier2} {
		for a := range set {
			if i, ok := g.Index(a); ok {
				base[i] = true
			}
		}
	}
	br := bgpsim.NewBatchReach(g)
	out := make([]int, bgpsim.BatchLanes)
	var blocks []time.Duration
	for b := 0; b < 16 && (b+1)*bgpsim.BatchLanes <= n; b++ {
		idx := make([]int32, bgpsim.BatchLanes)
		for i := range idx {
			idx[i] = int32(b*n/16/bgpsim.BatchLanes*bgpsim.BatchLanes + i)
		}
		d, err := r.rec.time("bgpsim.batchreach_block", b, func() error { return br.CountsCtx(ctx, idx, base, true, out) })
		if err != nil {
			return err
		}
		blocks = append(blocks, d)
	}
	r.setDist("bgpsim.batchreach_block_us", blocks, "BatchReach.CountsCtx, one 64-origin block")
	if err := r.traceLeak(w); err != nil {
		return err
	}
	if len(workers) == 0 {
		return nil
	}

	// The cluster layers, against the live workers.
	gd, err := r.rec.time("topogen.generate", 0, func() error { _, err := topogen.Generate(topogen.Internet2020(r.cfg.scale)); return err })
	if err != nil {
		return err
	}
	r.res.set("topogen.generate_s", gd.Seconds(), 1, "topogen.Generate(Internet2020(scale))")
	pool := cluster.NewPool(cluster.PoolConfig{World: cluster.DatasetHash(g, w.ds.Tier1, w.ds.Tier2)})
	defer pool.Close()
	for _, addr := range workers {
		pool.Register(addr, 1)
	}
	var poolSweeps []time.Duration
	for i := 0; i < 3; i++ {
		d, err := r.rec.time("cluster.pool_sweep", i, func() error {
			counts, err := pool.SweepCounts(ctx, core.HierarchyFree.String(), n)
			if err == nil && !slices.Equal(counts, hfCounts) {
				err = fmt.Errorf("pool sweep differs from Metrics.ReachabilityAll")
			}
			return err
		})
		if err != nil {
			return err
		}
		poolSweeps = append(poolSweeps, d)
	}
	r.res.set("cluster.pool_sweep_ms", ms(median(poolSweeps)), len(poolSweeps), "in-bench cluster.Pool.SweepCounts over the two live workers; compare core.sweep_ms.hierarchy-free")

	shard := 4096
	if shard > n {
		shard = n / bgpsim.BatchLanes * bgpsim.BatchLanes
	}
	var rtts []time.Duration
	for i := 0; i < 3 && (i+1)*shard <= n; i++ {
		body, _ := json.Marshal(cluster.SweepRequest{Kind: core.Tier1Free.String(), Lo: i * shard, Hi: (i + 1) * shard})
		d, err := r.rec.time("cluster.shard_rtt", i, func() error {
			hr, _ := http.NewRequest(http.MethodPost, workers[0]+cluster.PathSweep+"?timeout=30s", bytes.NewReader(body))
			hr.Header.Set("Accept", cluster.WireContentType)
			resp, err := plainHTTP.Do(hr)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST %s: status %d", cluster.PathSweep, resp.StatusCode)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		if err != nil {
			return err
		}
		rtts = append(rtts, d)
	}
	r.res.set("cluster.shard_rtt_ms", ms(median(rtts)), len(rtts), fmt.Sprintf("one cold %d-origin tier1-free POST %s to a worker", shard, cluster.PathSweep))

	counts := hfCounts[:shard]
	var enc, dec []time.Duration
	var frame []byte
	dst := make([]int, shard)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		frame = cluster.AppendCounts(frame[:0], counts)
		t1 := time.Now()
		if err := cluster.DecodeCountsInto(dst, frame); err != nil {
			return err
		}
		enc, dec = append(enc, t1.Sub(t0)), append(dec, time.Since(t1))
	}
	r.setDist("cluster.encode_counts_us", enc, fmt.Sprintf("cluster.AppendCounts, %d counts", shard))
	r.setDist("cluster.decode_counts_us", dec, fmt.Sprintf("cluster.DecodeCountsInto, %d counts", shard))
	return nil
}

// traceLeak times the leak layer the way /v1/leak and fig7–10 use it: the
// leak-free pre-pass per configuration, then 2,000 replayed leakers.
func (r *run) traceLeak(w *world) error {
	g, ctx := w.ds.Graph, context.Background()
	scen := map[string]bgpsim.LeakScenario{"announce-all": bgpsim.AnnounceAll, "lock-t1": bgpsim.AnnounceAllLockT1, "lock-t1t2": bgpsim.AnnounceAllLockT1T2}
	var pre, perTrial []time.Duration
	for i, l := range leakShapes {
		origin := astopo.ASN(l.as)
		if _, ok := g.Index(origin); !ok {
			continue
		}
		cfg := bgpsim.ScenarioConfig(g, origin, w.ds.Tier1, w.ds.Tier2, scen[l.scenario])
		cfg.Hijack = l.hijack
		var sw *bgpsim.LeakSweep
		d, err := r.rec.time("bgpsim.leak_prepass", i, func() error {
			var err error
			sw, err = bgpsim.NewLeakSweep(g, cfg)
			return err
		})
		if err != nil {
			return err
		}
		pre = append(pre, d)
		leakers := bgpsim.SampleLeakers(g, origin, 2000, r.cfg.seed)
		d, err = r.rec.time("bgpsim.leak_trials", i, func() error { _, err := sw.Trials(ctx, leakers, nil); return err })
		if err != nil {
			return err
		}
		perTrial = append(perTrial, d/time.Duration(len(leakers)))
		sw.Release()
	}
	if len(pre) == 0 {
		return nil
	}
	r.res.set("bgpsim.leak_prepass_ms", ms(median(pre)), len(pre), "median; bgpsim.NewLeakSweep")
	r.setDist("bgpsim.leak_trial_us", perTrial, "LeakSweep.Trials / trials, 2,000 leakers")
	return nil
}

// ---- paper-batch ----

// tracePaperBatch splits a pass by experiment — one single-job subprocess
// each — and times the two batch kernels the passes spend their time in.
func (r *run) tracePaperBatch(snap string) error {
	for i, id := range experimentIDs {
		d, err := r.rec.time("experiments."+id, i, func() error {
			_, _, err := r.ps.runTool("run-"+id, r.bins.flatnet, "run", "-snapshot", snap, "-j", "1", id)
			return err
		})
		if err != nil {
			return err
		}
		r.res.phase("experiment-"+id, 1, 0, d)
		r.res.set("experiments."+id+"_ms", ms(d), 1, "flatnet run -j 1 "+id+", wall")
	}
	w, err := r.openWorld(snap, 2020)
	if err != nil {
		return err
	}
	defer w.rd.Close()
	return r.traceLeak(w)
}

// ---- evolve-read ----

// traceEvolve walks an in-process server along the deltas and then makes
// the calls the evolve handler makes, one by one, on the same worlds.
func (r *run) traceEvolve(snap string, steps []evolveStep) error {
	w, err := r.openWorld(snap, evolveFirstYear)
	if err != nil {
		return err
	}
	defer w.rd.Close()
	p, err := r.serveInProcess(w, evolveFirstYear, snap)
	if err != nil {
		return err
	}
	defer p.close()
	for i, st := range steps {
		rq := request{ID: i, Op: "evolve", Method: http.MethodPost, Path: "/v1/evolve", Body: st.delta}
		p.c.swapEdge()
		err := r.roundTrip(p, &rq)
		p.c.swapEdge()
		if err != nil {
			return err
		}
	}
	prev := w.in
	for i, st := range steps {
		d, err := snapshot.DecodeDelta(st.delta)
		if err != nil {
			return err
		}
		var next *topogen.Internet
		if _, err := r.rec.time("topogen.apply_delta", i, func() error {
			var err error
			next, err = topogen.ApplyDelta(prev, d.Growth)
			return err
		}); err != nil {
			return err
		}
		_, _ = r.rec.time("cluster.hash.step", i, func() error { cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2); return nil })
		_, _ = r.rec.time("core.new.step", i, func() error {
			core.New(core.Dataset{Graph: next.Graph, Tier1: next.Tier1, Tier2: next.Tier2})
			return nil
		})
		prev = next
	}
	apply := r.rec.byID("topogen.apply_delta")
	r.res.set("topogen.apply_delta_ms", ms(median(values(apply))), len(apply), "median; topogen.ApplyDelta per year")
	hash, build := r.rec.byID("cluster.hash.step"), r.rec.byID("core.new.step")
	inner := map[int]time.Duration{}
	for id, d := range apply {
		inner[id] = d + hash[id] + build[id]
	}
	self := selfTimes(r.rec.byID("serve"), inner)
	r.res.set("serve.evolve_self_ms", ms(median(self)), len(self),
		"median; evolve handler span − (ApplyDelta + DatasetHash + core.New): delta decode, the second hash, pool rotation, encode")
	return nil
}
