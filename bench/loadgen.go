package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated HTTP request. The program only ever sees these;
// the seed that produced them stays in the bench.
type request struct {
	ID     int
	Op     string // reach | reliance | sweep | sweep-tier1 | leak | batch
	Method string
	Path   string // path and query
	Body   []byte

	// The point requests' parameters again, for the traced run's direct
	// calls into core and bgpsim.
	AS   uint32
	Kind string
}

var reachKinds = []string{"provider-free", "tier1-free", "hierarchy-free"}

// pointRequest is one draw of the interactive mix: 80 % /v1/reach with the
// kind uniform over the three restricted kinds, 20 % /v1/reliance.
func pointRequest(rng *rand.Rand, id int, as uint32) request {
	if rng.Intn(5) == 0 {
		return request{ID: id, Op: "reliance", Method: http.MethodGet, AS: as, Kind: "hierarchy-free",
			Path: fmt.Sprintf("/v1/reliance?as=%d", as)}
	}
	kind := reachKinds[rng.Intn(len(reachKinds))]
	return request{ID: id, Op: "reach", Method: http.MethodGet, AS: as, Kind: kind,
		Path: fmt.Sprintf("/v1/reach?as=%d&kind=%s", as, kind)}
}

// coldRequests draws n requests with origins uniform over the whole
// universe: ≈4 keys per AS, far more than the daemon's 4,096-entry cache
// holds, so nearly every request computes.
func coldRequests(seed int64, universe []uint32, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = pointRequest(rng, i, universe[rng.Intn(len(universe))])
	}
	return reqs
}

// hotSet is the fixed working set of the hot workloads: k ASes drawn without
// replacement, in draw order (rank 0 is the most popular). It does not
// depend on the run's seed — which ASes are hot decides what a miss costs,
// and that should not differ from run to run; the seed orders the requests.
func hotSet(universe []uint32, k int) []uint32 {
	if k > len(universe) {
		k = len(universe)
	}
	rng := rand.New(rand.NewSource(20200101))
	perm := rng.Perm(len(universe))[:k]
	set := make([]uint32, k)
	for i, j := range perm {
		set[i] = universe[j]
	}
	return set
}

// hotKeys is every distinct request over the hot set (3 reach kinds + one
// reliance per AS): what the warm-up touches once.
func hotKeys(set []uint32) []request {
	var reqs []request
	for _, as := range set {
		for _, k := range reachKinds {
			reqs = append(reqs, request{ID: len(reqs), Op: "reach", Method: http.MethodGet,
				Path: fmt.Sprintf("/v1/reach?as=%d&kind=%s", as, k)})
		}
		reqs = append(reqs, request{ID: len(reqs), Op: "reliance", Method: http.MethodGet,
			Path: fmt.Sprintf("/v1/reliance?as=%d", as)})
	}
	return reqs
}

// hotRequests draws n requests with origins Zipf(1.2)-ranked over the hot
// set, so the timed window is all cache hits once hotKeys has been played.
func hotRequests(seed int64, set []uint32, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(set)-1))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = pointRequest(rng, i, set[z.Uint64()])
	}
	return reqs
}

// The wide cycle's four leak shapes: the paper's four providers, one
// scenario each, the last as a hijack.
var leakShapes = []struct {
	as       uint32
	scenario string
	hijack   bool
}{
	{15169, "announce-all", false}, // Google
	{16509, "lock-t1", false},      // Amazon
	{8075, "lock-t1t2", false},     // Microsoft
	{32934, "announce-all", true},  // Facebook
}

// wideCycles builds the request list of the wide workloads: per cycle two
// hierarchy-free sweeps, one tier1-free sweep, four 2,000-trial leaks and
// four 1,024-origin batches, the same shape in the same slot of every
// cycle. Every request is cold without touching the program: a fresh `top`
// per sweep, a fresh `seed` per leak, a fresh origin set per batch.
func wideCycles(seed int64, universe []uint32, cycles, batchSize int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	if batchSize > len(universe) {
		batchSize = len(universe)
	}
	top, leakSeed, id := 21, seed*100000, 0
	next := func(rq request) request { rq.ID = id; id++; return rq }
	sweep := func(op, kind string) request {
		top++
		return next(request{Op: op, Method: http.MethodGet,
			Path: fmt.Sprintf("/v1/sweep?kind=%s&top=%d&timeout=30s", kind, top-1)})
	}
	out := make([][]request, cycles)
	for c := range out {
		cyc := []request{
			sweep("sweep", "hierarchy-free"),
			sweep("sweep", "hierarchy-free"),
			sweep("sweep-tier1", "tier1-free"),
		}
		for _, l := range leakShapes {
			leakSeed++
			path := fmt.Sprintf("/v1/leak?as=%d&scenario=%s&trials=2000&seed=%d&timeout=30s", l.as, l.scenario, leakSeed)
			if l.hijack {
				path += "&hijack=true"
			}
			cyc = append(cyc, next(request{Op: "leak", Method: http.MethodGet, Path: path}))
		}
		for b := 0; b < 4; b++ {
			origins := make([]uint32, batchSize)
			for i, j := range rng.Perm(len(universe))[:batchSize] {
				origins[i] = universe[j]
			}
			body, _ := json.Marshal(map[string]any{"as": origins, "kind": reachKinds[b%len(reachKinds)]})
			cyc = append(cyc, next(request{Op: "batch", Method: http.MethodPost,
				Path: "/v1/batch?timeout=30s", Body: body}))
		}
		out[c] = cyc
	}
	return out
}

// ---- the HTTP client ----

// client sends generated requests over at most `conns` connections and
// checks that a repeated request returns the bytes first seen for it.
type client struct {
	hc   *http.Client
	base string

	mu    sync.Mutex
	epoch int               // bumped before and after each evolve; odd while one is in flight
	seen  map[string]uint64 // request identity → hash of its first 200 body
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		}, Timeout: 60 * time.Second},
		seen: map[string]uint64{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// swapEdge marks the start or the end of an evolve and forgets the
// remembered bodies: the same request legitimately answers differently on
// the next world, and while the swap is in flight either world may answer.
func (c *client) swapEdge() {
	c.mu.Lock()
	c.epoch++
	c.seen = map[string]uint64{}
	c.mu.Unlock()
}

func (c *client) currentEpoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// do sends one request and returns the body of a 200 response. Anything
// else — transport error, other status, or a body that differs from the
// one this request returned before — is an error.
func (c *client) do(rq *request) ([]byte, error) {
	return c.doTagged(rq, "")
}

// doTagged is do with an X-Bench-Id header, which the traced in-process
// server uses to tie its handler span to the client's round-trip span.
func (c *client) doTagged(rq *request, tag string) ([]byte, error) {
	var rd io.Reader
	if rq.Body != nil {
		rd = bytes.NewReader(rq.Body)
	}
	hr, err := http.NewRequest(rq.Method, c.base+rq.Path, rd)
	if err != nil {
		return nil, err
	}
	if rq.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if tag != "" {
		hr.Header.Set("X-Bench-Id", tag)
	}
	epoch := c.currentEpoch()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", rq.Method, rq.Path, resp.StatusCode, body)
	}
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	key := rq.Method + " " + rq.Path + " " + string(rq.Body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || epoch%2 == 1 {
		return body, nil // overlapped an evolve: either world's answer is valid
	}
	if first, ok := c.seen[key]; ok && first != sum {
		return nil, fmt.Errorf("%s %s: body differs from the first answer to the same request", rq.Method, rq.Path)
	}
	c.seen[key] = sum
	return body, nil
}

// ---- closed and open loops ----

// loopResult is what one load phase measured.
type loopResult struct {
	Name      string
	Lat       []time.Duration // successful requests only
	End       []time.Duration // when each of them completed, from the phase's start
	Attempted int
	Failed    int
	Elapsed   time.Duration
	FirstErr  error

	// open loop only
	Late        []time.Duration // timer lateness of requests the generator was idle for
	BacklogGrew bool
}

func (r *loopResult) succeeded() int { return r.Attempted - r.Failed }

// blockLen is the length of one block of a closed-loop phase.
const blockLen = 250 * time.Millisecond

// quietBlocks cuts the phase into consecutive blocks of blockLen, keeps the
// quarter of them that completed the most requests, and returns those
// requests' latencies, ascending, with the number of blocks kept. It is
// quietLow for a request stream: the blocks are the repetitions, and the
// ones a neighbour disturbed are the ones that got the least done. A
// trailing partial block is dropped; a phase shorter than four blocks has
// no quiet quarter and returns nothing.
func (r *loopResult) quietBlocks() (lat []time.Duration, kept int) {
	n := int(r.Elapsed / blockLen)
	if n < 4 {
		return nil, 0
	}
	blocks := make([][]time.Duration, n)
	for i, end := range r.End {
		if b := int(end / blockLen); b < n {
			blocks[b] = append(blocks[b], r.Lat[i])
		}
	}
	sort.SliceStable(blocks, func(i, j int) bool { return len(blocks[i]) > len(blocks[j]) })
	kept = n / 4
	for _, b := range blocks[:kept] {
		lat = append(lat, b...)
	}
	return sortedCopy(lat), kept
}

// closedLoop runs `clients` callers: each sends its next request only after
// the previous one completed, taking requests from reqs in order. With d > 0
// it runs for d, wrapping if the list runs out; with d == 0 it plays the
// list exactly once (warm-ups).
func closedLoop(c *client, name string, reqs []request, clients int, d time.Duration) loopResult {
	if d == 0 {
		return runClosed(c, name, reqs, clients, func(i int) bool { return i < len(reqs) })
	}
	deadline := time.Now().Add(d)
	return runClosed(c, name, reqs, clients, func(int) bool { return time.Now().Before(deadline) })
}

// closedLoopUntil is closedLoop ended by the caller closing stop.
func closedLoopUntil(c *client, name string, reqs []request, clients int, stop <-chan struct{}) loopResult {
	return runClosed(c, name, reqs, clients, func(int) bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	})
}

// runClosed is the closed loop proper; more reports whether request number
// i (counted across all callers) should still be sent.
func runClosed(c *client, name string, reqs []request, clients int, more func(i int) bool) loopResult {
	var next atomic.Int64
	type part struct {
		lat, end  []time.Duration
		attempted int
		failed    int
		err       error
	}
	parts := make([]part, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				t0 := time.Now()
				_, err := c.do(&reqs[i%len(reqs)])
				p.attempted++
				if err != nil {
					p.failed++
					if p.err == nil {
						p.err = err
					}
					continue
				}
				t1 := time.Now()
				p.lat = append(p.lat, t1.Sub(t0))
				p.end = append(p.end, t1.Sub(start))
			}
		}(&parts[w])
	}
	wg.Wait()
	res := loopResult{Name: name, Elapsed: time.Since(start)}
	for _, p := range parts {
		res.Lat = append(res.Lat, p.lat...)
		res.End = append(res.End, p.end...)
		res.Attempted += p.attempted
		res.Failed += p.failed
		if res.FirstErr == nil {
			res.FirstErr = p.err
		}
	}
	return res
}

// openLoop sends reqs on a fixed schedule — request i is due at i/rate —
// over at most conns connections, whether or not earlier requests have
// completed. Latency is measured from the due time, so a stall is charged
// to every request scheduled during it, not only to the one that hit it.
func openLoop(c *client, name string, reqs []request, rate float64, d time.Duration, conns int) loopResult {
	n := int(rate * d.Seconds())
	if n > len(reqs) {
		n = len(reqs)
	}
	interval := time.Duration(float64(time.Second) / rate)
	type obs struct {
		i         int
		lat, late time.Duration
		idle, ok  bool
	}
	var next atomic.Int64
	parts := make([][]obs, conns)
	errs := make([]error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				idle := false
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					idle = true
				}
				late := time.Since(due)
				_, err := c.do(&reqs[i])
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
				parts[w] = append(parts[w], obs{i: i, lat: time.Since(due), late: late, idle: idle, ok: err == nil})
			}
		}(w)
	}
	wg.Wait()
	res := loopResult{Name: name, Elapsed: time.Since(start)}
	var all []obs
	for w, p := range parts {
		all = append(all, p...)
		if res.FirstErr == nil {
			res.FirstErr = errs[w]
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].i < all[j].i })
	for _, o := range all {
		res.Attempted++
		if !o.ok {
			res.Failed++
			continue
		}
		res.Lat = append(res.Lat, o.lat)
		if o.idle {
			res.Late = append(res.Late, o.late)
		}
	}
	// A backlog that grows shows as send lateness rising through the
	// phase: compare the last quarter's median lateness with the first's.
	if q := len(all) / 4; q >= 10 {
		lateOf := func(s []obs) time.Duration {
			d := make([]time.Duration, len(s))
			for i, o := range s {
				d[i] = o.late
			}
			return median(d)
		}
		res.BacklogGrew = lateOf(all[len(all)-q:]) > lateOf(all[:q])+5*interval
	}
	return res
}

// playSerial sends one wide cycle, one request at a time, appending each
// request's latency to its slot (its position in the cycle) and keeping
// the bodies when asked. The same slot asks the same kind of question in
// every cycle, so a slot's latencies are repetitions of one measurement.
func playSerial(c *client, reqs []request, slots [][]time.Duration, bodies map[int][]byte) (attempted, failed int, firstErr error) {
	for i := range reqs {
		rq := &reqs[i]
		t0 := time.Now()
		body, err := c.do(rq)
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		slots[i] = append(slots[i], time.Since(t0))
		if bodies != nil {
			bodies[rq.ID] = body
		}
	}
	return attempted, failed, firstErr
}

// parseUniverse reads the AS set out of a CAIDA serial-1 relationship file
// (`flatnet gen`: "<as>|<as>|<rel>" lines), ascending.
func parseUniverse(raw []byte) ([]uint32, error) {
	set := map[uint32]struct{}{}
	for len(raw) > 0 {
		line := raw
		if nl := bytes.IndexByte(raw, '\n'); nl >= 0 {
			line, raw = raw[:nl], raw[nl+1:]
		} else {
			raw = nil
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f := bytes.SplitN(line, []byte("|"), 3)
		if len(f) < 3 {
			return nil, fmt.Errorf("relationship line %q: want <as>|<as>|<rel>", line)
		}
		for _, x := range f[:2] {
			v, err := strconv.ParseUint(string(x), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("relationship line %q: %w", line, err)
			}
			set[uint32(v)] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
