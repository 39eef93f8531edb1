// Package tracesim simulates the paper's measurement campaign (§4.1): ICMP
// traceroutes issued from VMs inside each cloud provider toward every
// routable prefix, over the synthetic address plan of package netdb.
//
// The engine computes the ground-truth AS-level forwarding path with the
// route simulator (package bgpsim), then synthesizes router-level hops with
// the artifacts that drive the paper's §5 inference-accuracy story:
//
//   - border interfaces numbered from the far side's space (third-party
//     addresses), from IXP LANs (unresolvable by prefix matching), or from
//     the provider's space on p2c links;
//   - unresponsive hops (probabilistic per hop);
//   - rate-limited, truncated traceroutes;
//   - destination networks that never answer (enterprise filtering);
//   - per-VM path diversity: VMs in different cities take different
//     tied-best paths, and Amazon's early-exit routing adds per-VM
//     variance on top (§5's "more locations, more peers, more noise").
//
// The per-destination propagation depends only on the destination, never on
// the vantage point, so TraceAllMulti shares one tracked propagation per
// destination across every cloud's VM set — the paper's four campaigns cost
// one propagation sweep instead of four — and hands each traceroute to its
// caller as it is made, keeping none: a consumer folds what it reads, and
// TraceAll, which wants the table, fills it. The equivalence tests compare
// it against a one-cloud-at-a-time serial reference kept beside them.
package tracesim

import (
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/geo"
	"flatnet/internal/netdb"
	"flatnet/internal/par"
	"flatnet/internal/topogen"
)

// VM is one measurement vantage point inside a cloud.
type VM struct {
	Cloud    string
	CloudASN astopo.ASN
	City     geo.CityID
	Index    int
}

// Hop is one traceroute line. A zero Addr means no reply at that TTL.
type Hop struct {
	TTL  int
	Addr netip.Addr
	// TrueAS is ground truth for validation; inference code must not
	// read it.
	TrueAS astopo.ASN
}

// Responded reports whether the hop replied.
func (h Hop) Responded() bool { return h.Addr.IsValid() }

// Traceroute is one measurement.
type Traceroute struct {
	VM      VM
	Dst     netip.Addr
	DstASN  astopo.ASN
	Hops    []Hop
	Reached bool
	// TruePath is the ground-truth AS-level path from the cloud to the
	// destination (cloud first).
	TruePath []astopo.ASN
	// OnBestPath reports whether TruePath is one of the tied-best
	// simulated paths — Appendix A's containment check. Traffic-
	// engineering fallbacks (locality horizons, Amazon's early exit)
	// produce traced paths outside the tied-best set.
	OnBestPath bool
}

// Options tune the artifact rates.
type Options struct {
	Seed int64
	// UnresponsiveProb is the per-hop probability of no reply.
	UnresponsiveProb float64
	// TruncateProb is the probability a traceroute is cut short by rate
	// limiting after a random hop.
	TruncateProb float64
	// EnterpriseDropProb is the probability an enterprise destination
	// filters ICMP entirely (the trace never reaches it).
	EnterpriseDropProb float64
}

// DefaultOptions match the artifact levels the paper's §5 numbers imply.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:               seed,
		UnresponsiveProb:   0.06,
		TruncateProb:       0.02,
		EnterpriseDropProb: 0.35,
	}
}

// Engine issues simulated traceroutes over one address plan. An Engine is
// safe for concurrent use once built; the per-VM-city distance rows it
// caches are published copy-on-write.
type Engine struct {
	plan *netdb.Plan
	in   *topogen.Internet
	opts Options

	// dist caches, per VM city, the distance from that city to every AS's
	// home city, indexed by dense graph index. Rows are immutable once
	// published; the map is swapped atomically so the synthesis hot path
	// reads it without locking.
	distMu sync.Mutex
	dist   atomic.Pointer[map[geo.CityID][]float64]
}

// New returns an Engine.
func New(plan *netdb.Plan, opts Options) *Engine {
	return &Engine{plan: plan, in: plan.Internet(), opts: opts}
}

// paperVMCounts are the per-cloud VM deployments of §4.1.
var paperVMCounts = map[string]int{
	"Google":    12,
	"Amazon":    20,
	"Microsoft": 11,
	"IBM":       6,
}

// VMs returns up to n vantage points for a cloud, one per PoP city in
// deployment order. n <= 0 selects the paper's §4.1 count for that cloud.
func (e *Engine) VMs(cloud string, n int) ([]VM, error) {
	asn, ok := e.in.Clouds[cloud]
	if !ok {
		return nil, fmt.Errorf("tracesim: unknown cloud %q", cloud)
	}
	if n <= 0 {
		n = paperVMCounts[cloud]
		if n == 0 {
			n = 8
		}
	}
	pops := e.in.PoPsOf(asn)
	if len(pops) == 0 {
		return nil, fmt.Errorf("tracesim: cloud %q has no PoPs", cloud)
	}
	if n > len(pops) {
		n = len(pops)
	}
	vms := make([]VM, n)
	for i := 0; i < n; i++ {
		vms[i] = VM{Cloud: cloud, CloudASN: asn, City: pops[i], Index: i}
	}
	return vms, nil
}

// TraceAll issues one traceroute from every VM to one address in every AS's
// announced space (the paper's "every routable prefix", §4.1). The result
// is grouped per VM in input order, then by destination in the graph's
// ASes() order.
func (e *Engine) TraceAll(vms []VM) ([][]Traceroute, error) {
	n := e.in.Graph.NumASes()
	out := make([][]Traceroute, len(vms))
	for i := range out {
		out[i] = make([]Traceroute, n)
	}
	err := e.TraceAllMulti([][]VM{vms}, func(_, vi, di int, tr Traceroute) {
		out[vi][di] = tr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TraceAllMulti synthesizes the campaigns of several VM sets at once,
// sharing one tracked propagation per destination across all of them: the
// propagation depends only on the destination, so four clouds' campaigns
// cost one sweep instead of four. Nothing is kept: each traceroute is
// handed to visit on the worker that made it, with its set, VM and
// destination index (destinations in the graph's ASes() order). visit runs
// once per triple, concurrently across destinations, and may keep tr:
// nothing else holds its Hops or TruePath.
func (e *Engine) TraceAllMulti(vmSets [][]VM, visit func(set, vm, dst int, tr Traceroute)) error {
	g := e.in.Graph
	dests := g.ASes()
	// Build the per-city distance rows up front so the parallel section
	// reads them lock-free.
	for _, vms := range vmSets {
		for _, vm := range vms {
			e.cityRow(vm.City)
		}
	}
	return par.For(runtime.GOMAXPROCS(0), len(dests), func(w int) func(i int) error {
		sim := bgpsim.New(g)
		return func(di int) error {
			d := dests[di]
			res, err := sim.Run(bgpsim.Config{Origin: d, TrackNextHops: true})
			if err != nil {
				return err
			}
			for si, vms := range vmSets {
				for vi, vm := range vms {
					visit(si, vi, di, e.trace(vm, d, res))
				}
			}
			return nil
		}
	})
}

// cityRow returns the cached distance row for a VM city, building and
// publishing it (copy-on-write) on first use.
func (e *Engine) cityRow(city geo.CityID) []float64 {
	if m := e.dist.Load(); m != nil {
		if row, ok := (*m)[city]; ok {
			return row
		}
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	old := e.dist.Load()
	if old != nil {
		if row, ok := (*old)[city]; ok {
			return row
		}
	}
	g := e.in.Graph
	g.Freeze()
	n := g.NumASes()
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		row[i] = geo.CityDistanceKm(city, e.in.HomeCityAt(i))
	}
	next := make(map[geo.CityID][]float64, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[city] = row
	e.dist.Store(&next)
	return row
}

// trace synthesizes one traceroute given the propagation result for the
// destination.
func (e *Engine) trace(vm VM, dst astopo.ASN, res *bgpsim.Result) Traceroute {
	tr := Traceroute{VM: vm, DstASN: dst}
	if pfx, ok := e.plan.ASPrefix[dst]; ok {
		tr.Dst = pfx.Addr().Next()
	}
	h := pathHasher(vm, dst)
	path, onBest := e.forwardPath(vm, dst, res, h)
	tr.TruePath = path
	if path == nil {
		return tr
	}
	tr.OnBestPath = onBest
	rnd := func(mod uint64) uint64 { h = h*6364136223846793005 + 1442695040888963407; return (h >> 33) % mod }
	chance := func(p float64) bool { return float64(rnd(1_000_000)) < p*1_000_000 }

	ttl := 0
	tr.Hops = make([]Hop, 0, 4+2*len(path))
	emit := func(addr netip.Addr, owner astopo.ASN) {
		ttl++
		hop := Hop{TTL: ttl, TrueAS: owner}
		if addr.IsValid() && !chance(e.opts.UnresponsiveProb) {
			hop.Addr = addr
		}
		tr.Hops = append(tr.Hops, hop)
	}

	truncated := chance(e.opts.TruncateProb)
	truncAt := 3 + int(rnd(8))

	// Internal cloud hops from the VM's site.
	ninternal := 2 + int(rnd(2))
	for j := 0; j < ninternal; j++ {
		addr, _ := e.plan.InternalAddr(vm.CloudASN, vm.Index*16+j)
		emit(addr, vm.CloudASN)
	}

	for k := 1; k < len(path); k++ {
		if truncated && ttl >= truncAt {
			return tr
		}
		prev, cur := path[k-1], path[k]
		// The hop entering `cur` usually replies with cur's interface
		// on the prev-cur link subnet — which may be numbered from
		// prev's space or an IXP LAN. Some routers instead reply with
		// their *outgoing* interface toward the next AS (the classic
		// third-party-address artifact), which lands on yet another
		// subnet — frequently an exchange LAN.
		_, curSide, ok := e.plan.LinkAddr(prev, cur)
		if !ok {
			curSide = netip.Addr{}
		}
		if k+1 < len(path) && chance(thirdPartyProb) {
			if out, _, ok2 := e.plan.LinkAddr(cur, path[k+1]); ok2 {
				curSide = out
			}
		}
		emit(curSide, cur)
		if cur == dst {
			if e.in.ClassOf(dst) == topogen.ClassEnterprise && chance(e.opts.EnterpriseDropProb) {
				return tr // destination filters ICMP
			}
			emit(tr.Dst, dst)
			tr.Reached = true
			return tr
		}
		// Internal hops inside cur.
		n := int(rnd(3))
		for j := 0; j < n; j++ {
			addr, _ := e.plan.InternalAddr(cur, 64+j)
			emit(addr, cur)
		}
	}
	return tr
}

// forwardPath walks the tied-best next-hop DAG from the cloud toward the
// destination, breaking ties deterministically. VMs in different cities
// land on different tied paths; Amazon's early-exit default adds per-VM
// index variance (§4.1, Appendix A). h must be pathHasher(vm, dst).
//
// Every step after the first follows a tied-best next hop by construction,
// so the Appendix A containment verdict (onBest) reduces to whether the
// chosen first hop is one of the cloud's tied-best next hops.
func (e *Engine) forwardPath(vm VM, dst astopo.ASN, res *bgpsim.Result, h uint64) (path []astopo.ASN, onBest bool) {
	g := e.in.Graph
	ci, ok := g.Index(vm.CloudASN)
	if !ok || res.Class[ci] == bgpsim.ClassNone {
		return nil, false
	}
	if vm.CloudASN == dst {
		return []astopo.ASN{dst}, true
	}
	oi, _ := g.Index(dst)
	first, ok := e.firstHop(vm, res, int32(ci), int32(oi))
	if !ok {
		return nil, false
	}
	onBest = false
	for _, nh := range res.NextHops(int32(ci)) {
		if nh == first {
			onBest = true
			break
		}
	}
	path = make([]astopo.ASN, 2, 8)
	path[0], path[1] = vm.CloudASN, g.ASNAt(int(first))
	cur := first
	for cur != int32(oi) {
		hops := res.NextHops(cur)
		if len(hops) == 0 {
			return nil, false
		}
		h = h*6364136223846793005 + 1442695040888963407
		cur = hops[(h>>33)%uint64(len(hops))]
		path = append(path, g.ASNAt(int(cur)))
		if len(path) > 64 {
			return nil, false // defensive: DAG walks cannot loop, but bound anyway
		}
	}
	return path, onBest
}

// regionalUseKm is how far from a regional peer's interconnection city a VM
// can be and still have the peering available; beyond it, the peer "only
// provides routes to a single PoP, far from cloud datacenters" (§5's
// false-negative explanation). Amazon's early-exit default makes its
// usable horizon much smaller.
const (
	regionalUseKm       = 3000.0
	amazonRegionalUseKm = 1500.0
)

// thirdPartyProb is the probability that a border router replies with its
// outgoing rather than ingress interface.
const thirdPartyProb = 0.30

// earlyExitSlackKm is how much closer a local exit must be before Amazon's
// early-exit routing abandons the WAN-wide best path.
const earlyExitSlackKm = 2500.0

// firstHop selects the neighbor the cloud hands traffic to for this VM and
// destination. Preference order:
//
//  1. a tied-best next hop that is usable from the VM's site (global
//     backbone neighbors always are; regional edge peers only within the
//     locality horizon) — nearest such neighbor wins;
//  2. otherwise, the nearest usable neighbor that exported *any* valid
//     route to the cloud (its providers always export; peers and customers
//     export customer-learned routes), i.e. hot-potato egress through the
//     backbone. These fallback paths are exactly the traffic-engineering
//     deviations that make some traced paths fall outside the tied-best
//     set (Appendix A's Amazon result).
func (e *Engine) firstHop(vm VM, res *bgpsim.Result, cloudIdx, dstIdx int32) (int32, bool) {
	if cloudIdx == dstIdx {
		return dstIdx, true
	}
	if res.Class[cloudIdx] == bgpsim.ClassNone {
		return 0, false
	}
	horizon := regionalUseKm
	if vm.Cloud == "Amazon" {
		horizon = amazonRegionalUseKm
	}
	usable := func(n int32) bool {
		if e.globalAS(n) {
			return true
		}
		return e.hopDistance(vm.City, n) <= horizon
	}
	g := e.in.Graph
	exported := func(n int32) bool {
		if !usable(n) {
			return false
		}
		switch res.Class[n] {
		case bgpsim.ClassOrigin, bgpsim.ClassCustomer:
			return true
		default:
			return false
		}
	}
	anyExporting := func() (int32, bool) {
		if best, ok := e.nearestWhere(vm.City, g.PeersOf(int(cloudIdx)), exported); ok {
			return best, true
		}
		if best, ok := e.nearestWhere(vm.City, g.CustomersOf(int(cloudIdx)), exported); ok {
			return best, true
		}
		// Providers export whatever they have.
		return e.nearestWhere(vm.City, g.ProvidersOf(int(cloudIdx)), func(n int32) bool {
			return res.Class[n] != bgpsim.ClassNone
		})
	}
	if vm.Cloud == "Amazon" {
		// Early exit: tenant traffic leaves at the closest exit; the
		// WAN-wide best next hop is used only when it is at least as
		// close as the nearest exporting neighbor. A directly usable
		// destination neighbor is always taken.
		if dstIsNeighbor(g, cloudIdx, dstIdx) && usable(dstIdx) {
			return dstIdx, true
		}
		bestHop, okBest := e.nearestWhere(vm.City, res.NextHops(cloudIdx), usable)
		exitHop, okExit := anyExporting()
		switch {
		case okBest && okExit:
			// Exit early only when the local exit is substantially
			// closer than the best-path egress; small differences
			// still ride the best path.
			if e.hopDistance(vm.City, bestHop)-e.hopDistance(vm.City, exitHop) > earlyExitSlackKm {
				return exitHop, true
			}
			return bestHop, true
		case okBest:
			return bestHop, true
		case okExit:
			return exitHop, true
		}
	}
	if best, ok := e.nearestWhere(vm.City, res.NextHops(cloudIdx), usable); ok {
		return best, true
	}
	if best, ok := anyExporting(); ok {
		return best, true
	}
	// Last resort: any tied-best next hop even if "unusable".
	if hops := res.NextHops(cloudIdx); len(hops) > 0 {
		return hops[0], true
	}
	return 0, false
}

func dstIsNeighbor(g *astopo.Graph, cloudIdx, dstIdx int32) bool {
	for _, n := range g.PeersOf(int(cloudIdx)) {
		if n == dstIdx {
			return true
		}
	}
	for _, n := range g.CustomersOf(int(cloudIdx)) {
		if n == dstIdx {
			return true
		}
	}
	for _, n := range g.ProvidersOf(int(cloudIdx)) {
		if n == dstIdx {
			return true
		}
	}
	return false
}

func (e *Engine) globalAS(n int32) bool {
	switch e.in.ClassAt(int(n)) {
	case topogen.ClassTier1, topogen.ClassTier2, topogen.ClassTransit, topogen.ClassCloud:
		return true
	}
	return false
}

// nearestWhere picks the candidate passing the filter whose home city is
// closest to the VM's city (lowest dense index breaks exact ties).
func (e *Engine) nearestWhere(city geo.CityID, cands []int32, keep func(int32) bool) (int32, bool) {
	var best int32
	bestD := -1.0
	if m := e.dist.Load(); m != nil {
		if row, ok := (*m)[city]; ok {
			for _, c := range cands {
				if !keep(c) {
					continue
				}
				d := row[c]
				if bestD < 0 || d < bestD || (d == bestD && c < best) {
					best, bestD = c, d
				}
			}
			return best, bestD >= 0
		}
	}
	for _, c := range cands {
		if !keep(c) {
			continue
		}
		d := e.hopDistance(city, c)
		if bestD < 0 || d < bestD || (d == bestD && c < best) {
			best, bestD = c, d
		}
	}
	return best, bestD >= 0
}

func (e *Engine) hopDistance(city geo.CityID, hop int32) float64 {
	if m := e.dist.Load(); m != nil {
		if row, ok := (*m)[city]; ok {
			return row[hop]
		}
	}
	return geo.CityDistanceKm(city, e.in.HomeCityAt(int(hop)))
}

// pathHasher seeds the per-(VM, destination) deterministic noise stream: an
// FNV-64a hash over "<cloud>/<city>/<dst>" (plus "/<index>" for Amazon,
// whose early exit makes same-site VMs vary). Hand-rolled over the
// fmt/hash.Hash formulation — byte-for-byte the same digest, zero
// allocations — because it runs twice per synthesized traceroute.
func pathHasher(vm VM, dst astopo.ASN) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(vm.Cloud); i++ {
		h = (h ^ uint64(vm.Cloud[i])) * prime64
	}
	h = (h ^ '/') * prime64
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(vm.City), 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '/') * prime64
	for _, c := range strconv.AppendUint(buf[:0], uint64(dst), 10) {
		h = (h ^ uint64(c)) * prime64
	}
	if vm.Cloud == "Amazon" {
		// Early exit: Amazon tenant traffic egresses near the VM, so
		// different VMs at the same site still vary.
		h = (h ^ '/') * prime64
		for _, c := range strconv.AppendInt(buf[:0], int64(vm.Index), 10) {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}
