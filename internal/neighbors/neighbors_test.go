package neighbors

import (
	"bytes"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/ipasn"
	"flatnet/internal/netdb"
	"flatnet/internal/topogen"
	"flatnet/internal/tracesim"
)

type fixture struct {
	in     *topogen.Internet
	plan   *netdb.Plan
	engine *tracesim.Engine
	res    Resolvers
}

func newFixture(t testing.TB, scale float64) *fixture {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := netdb.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResolvers(plan)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		in:     in,
		plan:   plan,
		engine: tracesim.New(plan, tracesim.DefaultOptions(7)),
		res:    res,
	}
}

// inference is a campaign folded through Neighbor, as the experiments fold
// theirs: the union of the retained traceroutes' neighbors, and how many
// traceroutes each side of the stage's sanitization kept.
type inference struct {
	neighbors           astopo.ASSet
	retained, discarded int
}

func infer(groups [][]tracesim.Traceroute, cloud astopo.ASN, res Resolvers, stage Stage) inference {
	out := inference{neighbors: make(astopo.ASSet)}
	chain := res.Chain(stage)
	for _, group := range groups {
		for i := range group {
			n, ok := Neighbor(&group[i], cloud, chain, stage)
			if !ok {
				out.discarded++
				continue
			}
			out.retained++
			out.neighbors.Add(n)
		}
	}
	return out
}

func (f *fixture) infer(t testing.TB, cloud string, nVMs int, stage Stage) (inference, Validation) {
	t.Helper()
	vms, err := f.engine.VMs(cloud, nVMs)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := f.engine.TraceAll(vms)
	if err != nil {
		t.Fatal(err)
	}
	asn := f.in.Clouds[cloud]
	inf := infer(traces, asn, f.res, stage)
	truth := append(append(f.in.Graph.Peers(asn), f.in.Graph.Providers(asn)...), f.in.Graph.Customers(asn)...)
	return inf, Validate(inf.neighbors, truth)
}

// The §5 story: the naive stage has a much higher FDR than the final
// methodology, and the final methodology keeps FDR low while FNR stays
// moderate (more neighbors exist than measurements can see).
func TestMethodologyStagesImproveFDR(t *testing.T) {
	f := newFixture(t, 0.02138)
	_, vNaive := f.infer(t, "Google", 6, StageNaive)
	_, vDiscard := f.infer(t, "Google", 6, StageDiscard)
	_, vFinal := f.infer(t, "Google", 6, StageFinal)
	t.Logf("naive: FDR=%.3f FNR=%.3f; discard: FDR=%.3f FNR=%.3f; final: FDR=%.3f FNR=%.3f",
		vNaive.FDR, vNaive.FNR, vDiscard.FDR, vDiscard.FNR, vFinal.FDR, vFinal.FNR)
	if vNaive.FDR <= vFinal.FDR {
		t.Errorf("naive FDR (%.3f) should exceed final FDR (%.3f)", vNaive.FDR, vFinal.FDR)
	}
	if vFinal.FDR > 0.20 {
		t.Errorf("final FDR = %.3f, want <= 0.20 (paper: 11-15%%)", vFinal.FDR)
	}
	if vFinal.FNR > 0.45 {
		t.Errorf("final FNR = %.3f, want <= 0.45 (paper: ~21%%)", vFinal.FNR)
	}
	if vDiscard.FDR > vNaive.FDR {
		t.Errorf("discard stage FDR (%.3f) should not exceed naive (%.3f)", vDiscard.FDR, vNaive.FDR)
	}
}

// More VM locations uncover more neighbors (lower FNR), §5.
func TestMoreVMsLowerFNR(t *testing.T) {
	f := newFixture(t, 0.02138)
	_, v2 := f.infer(t, "Google", 2, StageFinal)
	_, v12 := f.infer(t, "Google", 12, StageFinal)
	t.Logf("2 VMs: FNR=%.3f; 12 VMs: FNR=%.3f", v2.FNR, v12.FNR)
	if v12.FNR >= v2.FNR {
		t.Errorf("12 VMs FNR (%.3f) should be below 2 VMs FNR (%.3f)", v12.FNR, v2.FNR)
	}
}

func TestInferredNeighborsMostlyReal(t *testing.T) {
	f := newFixture(t, 0.02138)
	inf, v := f.infer(t, "Microsoft", 0, StageFinal)
	if len(inf.neighbors) == 0 {
		t.Fatal("no neighbors inferred")
	}
	if inf.retained == 0 || inf.discarded == 0 {
		t.Errorf("retained=%d discarded=%d; expected both nonzero", inf.retained, inf.discarded)
	}
	if v.TP < 50 {
		t.Errorf("only %d true positives", v.TP)
	}
}

func TestValidateArithmetic(t *testing.T) {
	inferred := astopo.NewASSet(1, 2, 3, 4)
	truth := []astopo.ASN{1, 2, 5, 6, 7}
	v := Validate(inferred, truth)
	if v.TP != 2 || v.FP != 2 || v.FN != 3 {
		t.Fatalf("TP/FP/FN = %d/%d/%d, want 2/2/3", v.TP, v.FP, v.FN)
	}
	if v.FDR != 0.5 {
		t.Errorf("FDR = %v", v.FDR)
	}
	if v.FNR != 0.6 {
		t.Errorf("FNR = %v", v.FNR)
	}
	empty := Validate(astopo.NewASSet(), nil)
	if empty.FDR != 0 || empty.FNR != 0 {
		t.Error("empty validation should be zero")
	}
}

func TestAugment(t *testing.T) {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(10, 20, astopo.P2C) // 10 is provider of cloud 20
	added := Augment(g, 20, astopo.NewASSet(10, 30, 40))
	if added != 2 {
		t.Errorf("added = %d, want 2 (existing p2c preserved)", added)
	}
	if rel, _ := g.HasLink(10, 20); rel != astopo.P2C {
		t.Error("existing link type modified")
	}
	for _, n := range []astopo.ASN{30, 40} {
		if rel, ok := g.HasLink(20, n); !ok || rel != astopo.P2P {
			t.Errorf("AS%d not added as peer", n)
		}
	}
}

// The inference pipeline must work from observable data alone: running it
// on traceroutes that round-tripped through the scamper JSON wire format
// (which strips every ground-truth field) must give identical neighbor
// sets.
func TestInferWorksFromWireFormat(t *testing.T) {
	f := newFixture(t, 0.01425)
	vms, err := f.engine.VMs("Google", 4)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := f.engine.TraceAll(vms)
	if err != nil {
		t.Fatal(err)
	}
	asn := f.in.Clouds["Google"]
	direct := infer(traces, asn, f.res, StageFinal)

	var stripped [][]tracesim.Traceroute
	for _, group := range traces {
		var buf bytes.Buffer
		if err := tracesim.WriteJSON(&buf, group); err != nil {
			t.Fatal(err)
		}
		back, err := tracesim.ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		stripped = append(stripped, back)
	}
	fromWire := infer(stripped, asn, f.res, StageFinal)
	if len(fromWire.neighbors) != len(direct.neighbors) {
		t.Fatalf("wire-format inference found %d neighbors, direct %d",
			len(fromWire.neighbors), len(direct.neighbors))
	}
	for a := range direct.neighbors {
		if !fromWire.neighbors.Has(a) {
			t.Errorf("AS%d missing from wire-format inference", a)
		}
	}
}

// refNeighbor is the border rule in its first form: resolve every hop
// forward, remember the last cloud hop, then apply the stage's skip or
// discard to the hop after it. Neighbor scans back from the end and
// resolves only what it reads; the answer must not change.
func refNeighbor(tr *tracesim.Traceroute, cloud astopo.ASN, chain ipasn.Resolver, stage Stage) (astopo.ASN, bool) {
	type hopRes struct {
		asn               astopo.ASN
		resolved, replied bool
	}
	hops := make([]hopRes, len(tr.Hops))
	lastCloud := -1
	for i, h := range tr.Hops {
		hops[i].replied = h.Responded()
		if h.Responded() {
			if asn, ok := chain.Resolve(h.Addr); ok {
				hops[i].asn, hops[i].resolved = asn, true
				if asn == cloud {
					lastCloud = i
				}
			}
		}
	}
	if lastCloud < 0 || lastCloud == len(hops)-1 {
		return 0, false
	}
	j := lastCloud + 1
	if stage == StageNaive {
		if !hops[j].resolved && j+1 < len(hops) {
			j++
		}
	} else if !hops[j].replied {
		return 0, false
	}
	if !hops[j].resolved || hops[j].asn == cloud {
		return 0, false
	}
	return hops[j].asn, true
}

func TestNeighborMatchesForwardScan(t *testing.T) {
	f := newFixture(t, 0.01425)
	for _, cloud := range []string{"Google", "Amazon"} {
		vms, err := f.engine.VMs(cloud, 3)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := f.engine.TraceAll(vms)
		if err != nil {
			t.Fatal(err)
		}
		asn := f.in.Clouds[cloud]
		for _, stage := range Stages() {
			chain := f.res.Chain(stage)
			kept := 0
			for _, group := range traces {
				for i := range group {
					tr := &group[i]
					got, gotOK := Neighbor(tr, asn, chain, stage)
					want, wantOK := refNeighbor(tr, asn, chain, stage)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s %v, VM %d to AS%d: Neighbor = AS%d %v, reference AS%d %v",
							cloud, stage, tr.VM.Index, tr.DstASN, got, gotOK, want, wantOK)
					}
					if gotOK {
						kept++
					}
				}
			}
			if kept == 0 {
				t.Errorf("%s %v: no traceroute kept a neighbor", cloud, stage)
			}
		}
	}
}
