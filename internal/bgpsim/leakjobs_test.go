package bgpsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"flatnet/internal/astopo"
)

// leakJobCorpus builds jobs over two corpus graphs: leaks, hijacks, peer
// locking, an announcement policy and BreakTies, unweighted and weighted,
// with lists of 1, 8, 63, 64, 65 and 130 leakers (padded with duplicates,
// which are independent lanes).
func leakJobCorpus(t *testing.T) []LeakJob {
	t.Helper()
	var jobs []LeakJob
	for _, seed := range []int64{4, 9} {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		tier1, tier2 := randomTiers(g, rng)
		weights := make([]float64, g.NumASes())
		for i := range weights {
			weights[i] = rng.Float64()
		}
		var leakers []astopo.ASN
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}
		rng.Shuffle(len(leakers), func(i, j int) { leakers[i], leakers[j] = leakers[j], leakers[i] })
		leakers = padLeakers(leakers, 130)

		hijack := Config{Origin: origin, Hijack: true}
		ties := Config{Origin: origin, BreakTies: true}
		configs := []Config{
			{Origin: origin},
			hijack,
			ScenarioConfig(g, origin, tier1, tier2, AnnounceAllLockAll),
			ScenarioConfig(g, origin, tier1, tier2, AnnounceHierarchy),
			ties,
		}
		for ci, cfg := range configs {
			for wi, w := range [][]float64{nil, weights} {
				for _, n := range []int{1, 8, 63, 64, 65, 130} {
					// Rotate the list so every job replays its own leakers.
					rot := append(slices.Clone(leakers[(ci+wi+n)%len(leakers):]), leakers[:(ci+wi+n)%len(leakers)]...)
					jobs = append(jobs, LeakJob{Graph: g, Config: cfg, Leakers: rot[:n], Weights: w})
				}
			}
		}
	}
	return jobs
}

// scalarJob replays a job one leaker at a time on a fresh scalar sweep.
func scalarJob(t *testing.T, j LeakJob) []LeakTrial {
	t.Helper()
	sw, err := NewLeakSweep(j.Graph, j.Config)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]LeakTrial, len(j.Leakers))
	for i, l := range j.Leakers {
		if out[i], err = sw.Trial(l, j.Weights); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// RunLeakJobs must return, job for job and leaker for leaker, what a scalar
// Trial loop gives — with one worker (every call runs whole jobs) and with
// two (the whole corpus runs whole jobs per worker; a single job spreads
// its blocks over both), over two graphs in one call.
func TestRunLeakJobsMatchesPerJob(t *testing.T) {
	jobs := leakJobCorpus(t)
	want := make([][]LeakTrial, len(jobs))
	for i, j := range jobs {
		want[i] = scalarJob(t, j)
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(t, procs)
			check := func(how string, i int, got []LeakTrial) {
				t.Helper()
				if !slices.Equal(got, want[i]) {
					j := jobs[i]
					t.Fatalf("%s, job %d (%+v, %d leakers, weighted=%v): got %+v, scalar %+v",
						how, i, j.Config, len(j.Leakers), j.Weights != nil, got, want[i])
				}
			}
			all, err := RunLeakJobs(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(jobs) {
				t.Fatalf("%d results for %d jobs", len(all), len(jobs))
			}
			for i := range jobs {
				check("all jobs in one call", i, all[i])
				one, err := RunLeakJobs(context.Background(), jobs[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				check("one job alone", i, one[0])
			}
		})
	}
}

// sharedCountdownCtx reports cancellation from its (after+1)-th Err call on,
// counted across every goroutine that polls it.
type sharedCountdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *sharedCountdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A run canceled at any point returns ctx.Err() itself, in the job arm and
// in the block arm, and leaves the pooled engines reusable: every engine it
// returned to the pool holds no cur word, touched receiver, leak word or
// leaked bit, and the next run matches the scalar trials.
func TestRunLeakJobsCanceledThenReuse(t *testing.T) {
	withGOMAXPROCS(t, 2)
	jobs := leakJobCorpus(t)
	// Both graphs' weighted 130-leaker jobs (the job arm), and one of them
	// alone (the block arm). The BreakTies jobs' scalar trials wrap the
	// error they see; the run still returns ctx.Err() itself.
	var many []LeakJob
	for _, j := range jobs {
		if len(j.Leakers) == 130 && j.Weights != nil {
			many = append(many, j)
		}
	}
	want := make([][]LeakTrial, len(many))
	for i, j := range many {
		want[i] = scalarJob(t, j)
	}
	for _, set := range [][]LeakJob{many, many[:1]} {
		// Every check up to 16, then a stride growing by a sixteenth: the
		// cancellation points spread over the whole run, the engine's own
		// test covers every length boundary of a block.
		for after := int64(0); ; after += 1 + after/16 {
			ctx := &sharedCountdownCtx{Context: context.Background()}
			ctx.left.Store(after)
			got, err := RunLeakJobs(ctx, set)
			if err == nil {
				if after == 0 {
					t.Fatal("a context canceled from the start ran to the end")
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%d jobs, uncanceled run: job %d %+v, scalar %+v", len(set), i, got[i], want[i])
					}
				}
				break
			}
			if err != ctx.Err() || got != nil {
				t.Fatalf("%d jobs canceled after %d checks: (%v, %v), want (nil, ctx.Err())", len(set), after, got, err)
			}
			// Every engine the canceled run left in the pool is clean. Lane
			// nodes are dense over the ASes with customers; leak words are
			// per AS, stubs included.
			var pooled []*BatchLeak
			for v := batchLeakPool.Get(); v != nil; v = batchLeakPool.Get() {
				pooled = append(pooled, v.(*BatchLeak))
			}
			for _, bl := range pooled {
				for i, nd := range bl.nodes {
					if nd.curLegit|nd.curLeak != 0 {
						t.Fatalf("after %d checks: pooled engine keeps lane node %d's words %+v", after, i, nd)
					}
				}
				for v, w := range bl.leak {
					if w != 0 {
						t.Fatalf("after %d checks: pooled engine keeps AS index %d's leak word %x", after, v, w)
					}
				}
				if len(bl.touched) != 0 || slices.ContainsFunc(bl.leaked, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("after %d checks: pooled engine keeps %d touched receivers, leaked %x", after, len(bl.touched), bl.leaked)
				}
				putBatchLeak(bl)
			}
			again, err := RunLeakJobs(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			for i := range again {
				if !slices.Equal(again[i], want[i]) {
					t.Fatalf("%d jobs canceled after %d checks, then rerun: job %d %+v, scalar %+v", len(set), after, i, again[i], want[i])
				}
			}
		}
	}
}

// relay and settle, white-box, for both kinds of receiver. A receiver with
// customers that several senders reach at one length enters touched once,
// with the OR of what each sender brought; a sender whose lanes it refuses
// leaves touched and its cur words as they were. A stub enters no touched
// list and keeps its accept word until settle: each sender's route it
// accepts in any lane is one arrival, a route refused in every lane is
// none, and settle keeps a leaked route tied with a legitimate one at the
// same length.
func TestRelayTouchesOncePerLength(t *testing.T) {
	g := astopo.NewGraph(9, 11)
	// AS1 and AS2 both provide transit to AS3, AS4 and AS8; AS5 and AS9 are
	// AS1's alone. AS3, AS4 and AS5 relay to the stubs AS6 and AS7; AS8 and
	// AS9 are stubs too.
	for _, l := range [][2]astopo.ASN{{1, 3}, {1, 4}, {2, 3}, {2, 4}, {1, 5}, {1, 8}, {2, 8}, {1, 9}, {3, 6}, {4, 6}, {5, 7}} {
		g.MustAddLink(l[0], l[1], astopo.P2C)
	}
	g.Freeze()
	idx := func(a astopo.ASN) int32 { i, _ := g.Index(a); return int32(i) }
	bl := NewBatchLeak(g)
	if len(bl.nodes) != 5 {
		t.Fatalf("%d laneNodes, want one for each of AS1-AS5", len(bl.nodes))
	}
	b := &LeakSweep{g: g, origin: -1}
	open := laneNode{acceptLegit: 0b0111, acceptLeak: 0b0110}
	const stubOpen = 0b0111
	reset := func() {
		for i := range bl.nodes {
			bl.nodes[i] = open
		}
		for i := range bl.accept {
			bl.accept[i] = stubOpen
		}
		clear(bl.leak)
		clear(bl.leaked)
		bl.logs[toCustomers].reset()
	}
	stubWords := func(when string, want map[astopo.ASN]uint64) {
		t.Helper()
		for a, w := range want {
			if got := bl.accept[idx(a)]; got != w {
				t.Fatalf("%s: AS%d accept word %04b, want %04b", when, a, got, w)
			}
		}
	}

	reset()
	s1 := settleT{node: idx(1), legit: 0b0001, leak: 0b0100}
	s2 := settleT{node: idx(2), legit: 0b0010, leak: 0b1000} // lane 3 is refused everywhere
	bl.relay(b, []settleT{s1, s2}, toCustomers)
	wantTouched := []int32{idx(3), idx(4), idx(5)}
	slices.Sort(wantTouched)
	if got := sortedCopy(bl.touched); !slices.Equal(got, wantTouched) {
		t.Fatalf("touched = %v, want AS3, AS4 and AS5 once each and no stub (%v)", bl.touched, wantTouched)
	}
	for _, a := range []astopo.ASN{3, 4} {
		if nd := bl.node(idx(a)); nd.curLegit != 0b0011 || nd.curLeak != 0b0100 {
			t.Errorf("AS%d cur words %04b/%04b, want 0011/0100", a, nd.curLegit, nd.curLeak)
		}
	}
	if len(bl.arrivals) != 3 {
		t.Fatalf("arrivals %v, want AS8 from AS1 and AS2 and AS9 from AS1", bl.arrivals)
	}
	bl.settle(toCustomers, 1)

	// Every lane refused: nothing enters touched or arrivals, nothing is
	// written.
	reset()
	bl.relay(b, []settleT{{node: idx(2), leak: 0b1000}, {node: idx(1), legit: 0b1000}}, toCustomers)
	if len(bl.touched) != 0 || len(bl.arrivals) != 0 {
		t.Fatalf("refused senders touched %v, arrived %v", bl.touched, bl.arrivals)
	}
	for r, nd := range bl.nodes {
		if nd != open {
			t.Fatalf("refused senders changed laneNode %d to %+v", r, nd)
		}
	}
	stubWords("refused senders", map[astopo.ASN]uint64{8: stubOpen, 9: stubOpen})
	bl.settle(toCustomers, 1)

	// A refused sender after an accepted one leaves touched as it was.
	reset()
	bl.relay(b, []settleT{s1, {node: idx(2), leak: 0b1000}}, toCustomers)
	if got := sortedCopy(bl.touched); !slices.Equal(got, wantTouched) {
		t.Fatalf("touched = %v after a refused sender, want %v", bl.touched, wantTouched)
	}
	if len(bl.arrivals) != 2 {
		t.Fatalf("arrivals %v after a refused sender, want AS8's and AS9's from AS1", bl.arrivals)
	}
	bl.settle(toCustomers, 1)

	// Stubs: AS1's legitimate route and AS2's leaked one reach AS8 at one
	// length, tied in lane 2. Both land, the accept words hold until
	// settle, and the tie keeps lane 2's leak.
	reset()
	bl.relay(b, []settleT{{node: idx(1), legit: 0b0101}, {node: idx(2), leak: 0b0100}}, toCustomers)
	at8 := 0
	for _, a := range bl.arrivals {
		if a.stub == idx(8) {
			at8++
		}
	}
	if at8 != 2 || len(bl.arrivals) != 3 {
		t.Fatalf("arrivals %v, want two at AS8 and one at AS9", bl.arrivals)
	}
	stubWords("before settle", map[astopo.ASN]uint64{8: stubOpen, 9: stubOpen})
	bl.settle(toCustomers, 1)
	stubWords("after settle", map[astopo.ASN]uint64{8: 0b0010, 9: 0b0010})
	if bl.leak[idx(8)] != 0b0100 || bl.leak[idx(9)] != 0 {
		t.Fatalf("leak words AS8 %04b, AS9 %04b, want 0100 and 0000", bl.leak[idx(8)], bl.leak[idx(9)])
	}
	if want := uint64(1)<<idx(3) | 1<<idx(4) | 1<<idx(8); bl.leaked[0] != want {
		t.Fatalf("leaked bitset %b, want AS3's, AS4's and AS8's bits (%b)", bl.leaked[0], want)
	}
	if len(bl.touched) != 0 || len(bl.arrivals) != 0 || len(bl.sent) != 0 {
		t.Fatalf("settle left touched %v, arrivals %v, sent %v", bl.touched, bl.arrivals, bl.sent)
	}
	for _, e := range bl.logs[toCustomers].at(1) {
		if !g.HasCustomers(int(e.node)) {
			t.Fatalf("stub AS%d entered the settle log", g.ASNAt(int(e.node)))
		}
	}
}

func sortedCopy(s []int32) []int32 {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}
