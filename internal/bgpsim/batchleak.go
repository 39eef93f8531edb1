package bgpsim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"flatnet/internal/astopo"
)

// BatchLeak replays up to BatchLanes leakers per propagation against one
// LeakSweep snapshot: bit lane k of every word carries leaker k's trial.
//
// The scalar LeakSweep already caches everything leaker-invariant (the
// leak-free pre-pass, the tied-best DAG, its path counts), but each trial
// still pays a full propagation. The key observation that lets 64 trials
// share ONE propagation is that the joint origin+leaker propagation is a
// bucket schedule over (class, distance) pairs — classes in preference
// order, distances ascending, exactly the scalar engine's settle order —
// and the buckets are GLOBAL: which bucket a route arrives in depends only
// on its class and length, never on which leaker produced it. So the
// engine runs one synchronized bucket sweep over lane words.
//
// An AS with customers keeps its propagation state in one 32-byte
// laneNode, so an edge to it touches one cache line at its receiver:
//
//	acceptLegit  lanes that may still install a legitimate route here;
//	acceptLeak   lanes that may still install a leaked route here;
//	curLegit,    arrivals of the length being relayed — zero at every
//	curLeak      length boundary.
//
// Both accept words start as the lane-uniform exclusion base, minus lane k
// at leaker k (a leaker originates in its own lane and takes no routes);
// acceptLeak also loses the lanes whose BGP loop detection rejects every
// leaked copy at the AS (loopWalk.onAllPaths over the cached DAG, once per
// lane). Settling a lane clears it from both words, so "already decided"
// is the same test as "may not install" and an arrival for a settled lane
// is never written anywhere.
//
// Each class stage keeps a settle log bucketed by settled length, one
// {node, legit, leak} entry per settle of an AS with customers. A stage at
// length d walks the senders that settled at d over its edge kind — stage A
// its own log over provider edges, stage B stage A's log over peer edges,
// stage C all three logs over customer edges — ORs what each receiver
// accepts into its cur words (tied flags OR together, the paper's
// keep-all-ties rule), then settles the touched receivers at d+1. That is
// the scalar dial queue's schedule read from the sender's side: the
// arrivals of bucket d+1 are exactly what the senders of length d relay,
// and they are masked by the lanes settled before the bucket either way.
// The origin (length 0, policy filtered) and leaker k (its pre-pass row's
// length, or 0 for a hijack) are simply the first senders of stage A's log.
//
// Stubs are sinks, and they keep one word each. Stages B and C deliver
// only to customers, so an AS without customers settles and is counted
// there but never relays, and its settles stay out of the logs; stage A's
// receivers are providers and always have customers. A stub's two accept
// words would always be equal: onAllPaths returns only the origin and ASes
// with customers, since the pre-pass's next-hop DAG holds no stub, so
// loop detection never closes a leak lane at a stub alone. Its state is
// therefore one accept word, which the relay loop only reads: an arrival
// it accepts in any lane is appended to an 8-byte {stub, sender} list, and
// settle applies the list after the length's relays — leak lanes first,
// read against the accept words relay saw, so tied routes OR, then the
// clears. At scale 1.0, 95 % of ASes are stubs: the laneNodes shrink from
// 2.2 MB to 109 kB, a stub costs 8 bytes, and most edges land on stubs
// (over Fig. 7's blocks, 74 % of peer-edge and 92 % of customer-edge
// relays).
//
// Peer locking never reaches the relay loop. A locking AS accepts the
// prefix only from the origin, so both its accept words are zero from the
// start, and a locking neighbor the origin announces to is entered in its
// stage's log at length 1 beforehand (if it has customers to relay to):
// nothing else could have reached it first, and nothing else may tie with
// the origin there.
//
// leak[v] collects the lanes settled at v with a tied-best route through
// the leak, written when a settle carries leak lanes. The leaked bitset
// marks the nodes with a nonzero leak word, so the reduction visits those
// alone, in index order, and zeroes both as it reads them.
//
// Trial results are bit-for-bit identical to LeakSweep.Trial for every
// configuration except BreakTies: breaking ties keeps the first tied
// route in the scalar engine's push order, an order that differs per lane
// and cannot be replayed word-wise, so those configs are rejected here
// and stay on the scalar path.
//
// A BatchLeak is not safe for concurrent use; create one per goroutine
// (they share the frozen graph and sweep snapshots safely). All buffers
// are high-water-reused, so steady-state calls allocate nothing.
type BatchLeak struct {
	g *astopo.Graph

	// ctx, when non-nil, aborts an in-flight batch at a length boundary
	// (set by TrialsCtx, nil otherwise). The cur words are zero and touched
	// and arrivals are empty there, and the abort zeroes the leak words, so
	// an aborted engine is reusable as it stands.
	ctx context.Context

	// slot is the graph's relayer index (astopo.Graph.RelayerIndex):
	// relaying AS v's laneNode is nodes[slot[v]], and a stub's slot is -1.
	slot []int32

	nodes   []laneNode // one per AS with customers, by relayer slot
	leak    []uint64   // settled lanes with a leaked tied-best route
	leaked  []uint64   // bitset: nodes with a nonzero leak word
	touched []int32    // relaying receivers with nonzero cur words

	// accept[v] holds the lanes stub v may still install a route in (at an
	// AS with customers it is unread). arrivals are the
	// stub arrivals of the length being relayed, each naming its sender's
	// words in sent.
	accept   []uint64
	arrivals []arrival
	sent     []sentWords

	// logs[kind] is the log of the stage that settles what arrives over
	// that edge kind: stage A (toProviders), B (toPeers), C (toCustomers).
	logs    [3]settleLog
	allowed []int32 // the origin's policy-allowed neighbors of one kind

	walk loopWalk     // loop-detection scratch
	live []liveLeaker // Trials' lane list

	counts [BatchLanes]int
	wsums  [BatchLanes]float64
}

// Edge kinds a stage relays over.
const (
	toProviders = iota
	toPeers
	toCustomers
)

type laneNode struct {
	acceptLegit, acceptLeak uint64
	curLegit, curLeak       uint64
}

// arrival is a route the sender at sent[sender] brought to a stub, in at
// least one lane the stub accepted when it was relayed.
type arrival struct{ stub, sender int32 }

// sentWords are one sender's settled lanes (legit|leak) and its leak lanes.
type sentWords struct{ lanes, leak uint64 }

// settleT is one settle: the lanes in legit|leak took a best route at node
// with the corresponding route-source flags.
type settleT struct {
	node        int32
	legit, leak uint64
}

// settleLog holds one stage's settles bucketed by settled length. Buckets
// keep their high-water capacity across runs.
type settleLog [][]settleT

func (l settleLog) at(d int) []settleT {
	if d < len(l) {
		return l[d]
	}
	return nil
}

func (l *settleLog) add(d int, e settleT) {
	for d >= len(*l) {
		*l = append(*l, nil)
	}
	(*l)[d] = append((*l)[d], e)
}

func (l settleLog) reset() {
	for i := range l {
		l[i] = l[i][:0]
	}
}

// NewBatchLeak returns a batch leak engine for g. The graph is frozen by
// the call and must not be mutated afterwards.
func NewBatchLeak(g *astopo.Graph) *BatchLeak {
	g.Freeze()
	n := g.NumASes()
	return &BatchLeak{
		g:      g,
		slot:   g.RelayerIndex(),
		nodes:  make([]laneNode, len(g.Relayers())),
		accept: make([]uint64, n),
		leak:   make([]uint64, n),
		leaked: make([]uint64, (n+63)/64),
	}
}

// node returns AS v's laneNode, or nil when v has no customers.
func (bl *BatchLeak) node(v int32) *laneNode {
	if r := bl.slot[v]; r >= 0 {
		return &bl.nodes[r]
	}
	return nil
}

// refuse closes lanes at v for routes of both kinds.
func (bl *BatchLeak) refuse(v int32, lanes uint64) {
	if nd := bl.node(v); nd != nil {
		nd.acceptLegit &^= lanes
		nd.acceptLeak &^= lanes
	} else {
		bl.accept[v] &^= lanes
	}
}

// batchLeakPool recycles engines across sweeps of the same graph: the
// serving layer and the experiment drivers run many sweeps (one per
// origin×scenario) over one topology, and an engine's scratch is sized by
// the graph alone. A pooled engine built for a different graph is simply
// dropped.
var batchLeakPool sync.Pool

func getBatchLeak(g *astopo.Graph) *BatchLeak {
	if v := batchLeakPool.Get(); v != nil {
		if bl := v.(*BatchLeak); bl.g == g {
			return bl
		}
	}
	return NewBatchLeak(g)
}

func putBatchLeak(bl *BatchLeak) { batchLeakPool.Put(bl) }

// Trials replays every leaker against sw's snapshot, BatchLanes per
// propagation, and writes one LeakTrial per leaker to out[0:len(leakers)]
// in input order. weights may be nil; otherwise it must have one entry
// per dense graph index. Results are identical to calling LeakSweep.Trial
// per leaker; the blocks carry only the leakers that can leak (see
// LeakSweep.liveLeakers). Configurations with BreakTies set are rejected
// (see the type comment); callers route those through the scalar path.
func (bl *BatchLeak) Trials(sw *LeakSweep, leakers []astopo.ASN, weights []float64, out []LeakTrial) error {
	if sw.g != bl.g {
		return fmt.Errorf("bgpsim: BatchLeak built for a different graph than the sweep")
	}
	if sw.cfg.BreakTies {
		return fmt.Errorf("bgpsim: BatchLeak does not support BreakTies configs (scalar tie order is per-lane)")
	}
	if len(out) < len(leakers) {
		return fmt.Errorf("bgpsim: out has %d entries for %d leakers", len(out), len(leakers))
	}
	if err := sw.checkWeights(weights); err != nil {
		return err
	}
	var err error
	if bl.live, err = sw.liveLeakers(leakers, out, &bl.walk, bl.live[:0]); err != nil {
		return err
	}
	for lo := 0; lo < len(bl.live); lo += BatchLanes {
		if err := bl.block(sw, bl.live[lo:min(lo+BatchLanes, len(bl.live))], weights, out); err != nil {
			return err
		}
	}
	return nil
}

// TrialsCtx is Trials with cancellation: the batch propagation is aborted
// between distance buckets once ctx is done, returning ctx.Err().
func (bl *BatchLeak) TrialsCtx(ctx context.Context, sw *LeakSweep, leakers []astopo.ASN, weights []float64, out []LeakTrial) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	bl.ctx = ctx
	defer func() { bl.ctx = nil }()
	return bl.Trials(sw, leakers, weights, out)
}

// block runs one batch of 1 to BatchLanes live leakers, lane k for
// lanes[k]: the three-stage word-wise propagation, and the per-lane detour
// reduction into out[lanes[k].pos].
func (bl *BatchLeak) block(sw *LeakSweep, lanes []liveLeaker, weights []float64, out []LeakTrial) error {
	cfg := &sw.cfg
	g := bl.g
	nlanes := len(lanes)
	allLanes := ^uint64(0) >> (BatchLanes - nlanes)

	// ---- Per-node words and first senders from the cached snapshot ----
	// Every AS starts open in every lane, the excluded ones closed. The
	// origin announces in every lane at length 0; leaker k re-announces in
	// its own lane at its pre-pass row's length (zero for hijacks, which
	// forge an origination). Neither ever takes a route.
	fillWords(bl.accept, allLanes)
	for r := range bl.nodes {
		bl.nodes[r] = laneNode{acceptLegit: allLanes, acceptLeak: allLanes}
	}
	for _, v := range sw.excluded {
		bl.refuse(v, allLanes)
	}
	for kind := range bl.logs {
		bl.logs[kind].reset()
	}
	bl.refuse(sw.origin, allLanes)
	bl.logs[toProviders].add(0, settleT{node: sw.origin, legit: allLanes})
	for k, l := range lanes {
		li := l.idx
		bit := uint64(1) << k
		bl.refuse(li, bit)
		d0 := 0
		if !cfg.Hijack {
			r := sw.row(li, &bl.walk)
			d0 = int(r.dist)
			// The walk returns the origin, which accepts nothing, and ASes
			// with customers: the pre-pass's next-hop DAG holds no stub.
			for _, v := range bl.walk.onAllPaths(&sw.leakDAG, li, r) {
				if nd := bl.node(v); nd != nil {
					nd.acceptLeak &^= bit
				}
			}
		}
		bl.logs[toProviders].add(d0, settleT{node: li, leak: bit})
	}
	// A peer-locking AS takes the prefix from the origin alone: the ones the
	// origin announces to settle here, at length 1 of their stage (logged
	// only if they have customers, like every settle), and every locking AS
	// is then closed to the relay loop.
	if len(sw.locked) > 0 {
		o := int(sw.origin)
		for kind, nbrs := range [...][]int32{g.ProvidersOf(o), g.PeersOf(o), g.CustomersOf(o)} {
			for _, p := range bl.announced(sw, nbrs) {
				if nd := bl.node(p); cfg.Locking[p] && nd != nil && nd.acceptLegit != 0 {
					bl.logs[kind].add(1, settleT{node: p, legit: nd.acceptLegit})
				}
			}
		}
		for _, v := range sw.locked {
			bl.refuse(v, allLanes)
		}
	}

	// ---- Stage A: customer routes, then stage B: peer routes ----
	// Both walk stage A's log by ascending length: A over provider edges,
	// growing the log it walks; B one p2p hop from every customer-route
	// holder and first sender, where the first length a lane arrives at is
	// its shortest peer route and later lengths find it cleared from the
	// accept words.
	for kind := toProviders; kind <= toPeers; kind++ {
		for d := 0; d < len(bl.logs[toProviders]); d++ {
			if err := bl.canceled(); err != nil {
				return err
			}
			bl.relay(sw, bl.logs[toProviders][d], kind)
			bl.settle(kind, d+1)
		}
	}

	// ---- Stage C: provider routes, ascending length ----
	// Every route holder exports to its customers.
	for d := 0; d < max(len(bl.logs[0]), len(bl.logs[1]), len(bl.logs[2])); d++ {
		if err := bl.canceled(); err != nil {
			return err
		}
		for kind := range bl.logs {
			bl.relay(sw, bl.logs[kind].at(d), toCustomers)
		}
		bl.settle(toCustomers, d+1)
	}

	// ---- Reduction ----
	// detoured(k) = nodes with a leaked tied-best route in lane k. Neither
	// the origin nor leaker k itself ever holds lane k's leak bit. Nodes
	// are visited in index order, so the weighted sums add up in the scalar
	// Trial's order.
	for k := 0; k < nlanes; k++ {
		bl.counts[k] = 0
		bl.wsums[k] = 0
	}
	for i, set := range bl.leaked {
		bl.leaked[i] = 0
		for ; set != 0; set &= set - 1 {
			v := i<<6 | bits.TrailingZeros64(set)
			w := bl.leak[v]
			bl.leak[v] = 0
			if weights == nil {
				for ; w != 0; w &= w - 1 {
					bl.counts[bits.TrailingZeros64(w)]++
				}
				continue
			}
			wv := weights[v]
			for ; w != 0; w &= w - 1 {
				k := bits.TrailingZeros64(w)
				bl.counts[k]++
				bl.wsums[k] += wv
			}
		}
	}
	denom := float64(g.NumASes() - 2)
	for k, l := range lanes {
		tr := &out[l.pos]
		tr.DetouredFrac = float64(bl.counts[k]) / denom
		if weights != nil {
			tr.DetouredUserFrac = bl.wsums[k]
		}
	}
	return nil
}

// fillWords sets every word of s to v, by doubling copies.
func fillWords(s []uint64, v uint64) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// canceled returns the in-flight context's error, zeroing the leak words
// the aborted block set, or nil when no context is attached or it is
// still live.
func (bl *BatchLeak) canceled() error {
	if bl.ctx == nil {
		return nil
	}
	err := bl.ctx.Err()
	if err != nil {
		for i, set := range bl.leaked {
			for ; set != 0; set &= set - 1 {
				bl.leak[i<<6|bits.TrailingZeros64(set)] = 0
			}
			bl.leaked[i] = 0
		}
	}
	return err
}

// announced returns those of the origin's neighbors nbrs its announcement
// policy allows (in bl.allowed, valid until the next call).
func (bl *BatchLeak) announced(sw *LeakSweep, nbrs []int32) []int32 {
	if sw.cfg.Policy == nil {
		return nbrs
	}
	bl.allowed = bl.allowed[:0]
	for _, p := range nbrs {
		if sw.cfg.Policy.allows(p) {
			bl.allowed = append(bl.allowed, p)
		}
	}
	return bl.allowed
}

// relay sends every sender's settled lanes over its edges of one kind. A
// receiver with customers ORs what it still accepts into its cur words; a
// stub only reads its accept word, and an arrival it accepts in any lane
// is appended to arrivals, naming the stub and the sender's words in sent.
//
// Neither path branches on what the receiver accepts. The OR is
// unconditional (a refused arrival ORs zero), and every receiver is written
// to the slot past the end of touched or arrivals, which grow once per
// sender to fit them all; the end advances by one exactly when the write
// counts. For touched, that is when the receiver's cur words go from zero
// to nonzero: (was-1)&^was has its top bit set iff was is zero, got|-got
// iff got is not, so a receiver enters touched once per length, and a
// refused one leaves it as it was. For arrivals, it is when the stub
// accepts a lane of the route.
func (bl *BatchLeak) relay(sw *LeakSweep, senders []settleT, kind int) {
	g, nodes, accept, slot := bl.g, bl.nodes, bl.accept, bl.slot
	touched, arrivals := bl.touched, bl.arrivals
	for _, e := range senders {
		var nbrs []int32
		switch kind {
		case toProviders:
			nbrs = g.ProvidersOf(int(e.node))
		case toPeers:
			nbrs = g.PeersOf(int(e.node))
		default:
			nbrs = g.CustomersOf(int(e.node))
		}
		if e.node == sw.origin {
			nbrs = bl.announced(sw, nbrs)
		}
		sender, lanes := int32(len(bl.sent)), e.legit|e.leak
		bl.sent = append(bl.sent, sentWords{lanes: lanes, leak: e.leak})
		nt, na := len(touched), len(arrivals)
		touched = slices.Grow(touched, len(nbrs))[:nt+len(nbrs)]
		arrivals = slices.Grow(arrivals, len(nbrs))[:na+len(nbrs)]
		for _, p := range nbrs {
			r := slot[p]
			if r < 0 {
				got := lanes & accept[p]
				arrivals[na] = arrival{stub: p, sender: sender}
				na += int((got | -got) >> 63)
				continue
			}
			nd := &nodes[r]
			was := nd.curLegit | nd.curLeak
			lg, lk := e.legit&nd.acceptLegit, e.leak&nd.acceptLeak
			nd.curLegit |= lg
			nd.curLeak |= lk
			got := lg | lk
			touched[nt] = p
			nt += int(((was - 1) &^ was & (got | -got)) >> 63)
		}
		touched, arrivals = touched[:nt], arrivals[:na]
	}
	bl.touched, bl.arrivals = touched, arrivals
}

// settle decides the receivers of length d of a stage. A touched receiver's
// arrived lanes leave both accept words, its cur words return to zero, and
// one log entry makes it a sender of length d. A stub settles from the
// arrivals in two passes: every arrival first adds the leak lanes its stub
// accepts, all read against the accept word as relay saw it, so routes tied
// at d OR together; only then does each clear its lanes from the word.
func (bl *BatchLeak) settle(stage, d int) {
	for _, v := range bl.touched {
		nd := bl.node(v)
		e := settleT{node: v, legit: nd.curLegit, leak: nd.curLeak}
		nd.acceptLegit &^= e.legit | e.leak
		nd.acceptLeak &^= e.legit | e.leak
		nd.curLegit, nd.curLeak = 0, 0
		if e.leak != 0 {
			bl.leaked[v>>6] |= 1 << (v & 63)
			bl.leak[v] |= e.leak
		}
		bl.logs[stage].add(d, e)
	}
	bl.touched = bl.touched[:0]
	for _, a := range bl.arrivals {
		if lk := bl.sent[a.sender].leak & bl.accept[a.stub]; lk != 0 {
			bl.leaked[a.stub>>6] |= 1 << (a.stub & 63)
			bl.leak[a.stub] |= lk
		}
	}
	for _, a := range bl.arrivals {
		bl.accept[a.stub] &^= bl.sent[a.sender].lanes
	}
	bl.arrivals, bl.sent = bl.arrivals[:0], bl.sent[:0]
}
