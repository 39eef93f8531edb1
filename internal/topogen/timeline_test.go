package topogen_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/geo"
	"flatnet/internal/topogen"
)

// timelineTestScale keeps the fold fast while leaving every class and
// growth mechanism populated (hundreds of ASes, all 45+ IXPs).
const timelineTestScale = 0.012

func worldHash(in *topogen.Internet) string {
	return cluster.DatasetHash(in.Graph, in.Tier1, in.Tier2)
}

func TestSpecForYearAnchorsMatchPresets(t *testing.T) {
	for _, scale := range []float64{0.012, 0.04987, 1.0} {
		got2015, err := topogen.SpecForYear(2015, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2015, topogen.Internet2015(scale)) {
			t.Errorf("scale %v: SpecForYear(2015) differs from Internet2015", scale)
		}
		got2020, err := topogen.SpecForYear(2020, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2020, topogen.Internet2020(scale)) {
			t.Errorf("scale %v: SpecForYear(2020) differs from Internet2020", scale)
		}
	}
}

func TestSpecForYearCurves(t *testing.T) {
	// Interpolation and extrapolation anchors: AS count, IXP count,
	// content fraction, and the seed schedule.
	sp2025, err := topogen.SpecForYear(2025, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if sp2025.NumASes != 87175 {
		t.Errorf("2025 NumASes = %d, want 87175", sp2025.NumASes)
	}
	if sp2025.NumIXPs != 75 {
		t.Errorf("2025 NumIXPs = %d, want 75", sp2025.NumIXPs)
	}
	if got := sp2025.FracContent; got < 0.1499 || got > 0.1501 {
		t.Errorf("2025 FracContent = %v, want 0.15", got)
	}
	if sp2025.Seed != 20250901 {
		t.Errorf("2025 Seed = %d, want 20250901", sp2025.Seed)
	}
	prevASes, prevIXPs := 0, 0
	for y := 2015; y <= 2025; y++ {
		sp, err := topogen.SpecForYear(y, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumASes <= prevASes || sp.NumIXPs <= prevIXPs {
			t.Errorf("year %d: growth curves must be strictly increasing (ASes %d<=%d or IXPs %d<=%d)",
				y, sp.NumASes, prevASes, sp.NumIXPs, prevIXPs)
		}
		prevASes, prevIXPs = sp.NumASes, sp.NumIXPs
	}
	if _, err := topogen.SpecForYear(2014, 1.0); err == nil {
		t.Error("SpecForYear(2014) should fail")
	}
	if _, err := topogen.SpecForYear(2026, 1.0); err == nil {
		t.Error("SpecForYear(2026) should fail")
	}
}

func TestCloudPeeringCurvesGrow(t *testing.T) {
	// Microsoft's flattening (PeerTransit 0.22 -> 0.74) is the paper's
	// headline trend; the interpolated years must walk it monotonically.
	prev := -1.0
	for y := 2015; y <= 2025; y++ {
		sp, err := topogen.SpecForYear(y, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		var ms topogen.Profile
		for _, p := range sp.Clouds {
			if p.Name == "Microsoft" {
				ms = p
			}
		}
		if ms.PeerTransit < prev {
			t.Errorf("year %d: Microsoft PeerTransit %v below previous year %v", y, ms.PeerTransit, prev)
		}
		prev = ms.PeerTransit
	}
}

func TestEvolveStepDeterministic(t *testing.T) {
	base, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("EvolveStep is not deterministic: two runs over the same base world differ")
	}
	// The same delta must also fall out when the base world was built by
	// an independent fold.
	base2, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := topogen.EvolveStep(base2, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d3) {
		t.Fatal("EvolveStep differs across independently generated (equal) base worlds")
	}
}

// TestAdjacentYearsByteIdentical is the tentpole equivalence: for every
// adjacent year pair, applying the stored delta to year N reproduces the
// freshly generated year N+1 world exactly — same world hash, same link
// list, same annotations.
func TestAdjacentYearsByteIdentical(t *testing.T) {
	in, err := topogen.GenerateYear(2015, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	for y := 2016; y <= 2025; y++ {
		d, err := topogen.EvolveStep(in, y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		evolved, err := topogen.ApplyDelta(in, d)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		fresh, err := topogen.GenerateYear(y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if gh, fh := worldHash(evolved), worldHash(fresh); gh != fh {
			t.Fatalf("year %d: evolved world hash %s != fresh %s", y, gh[:16], fh[:16])
		}
		if !reflect.DeepEqual(evolved.Graph.Links(), fresh.Graph.Links()) {
			t.Fatalf("year %d: evolved link list differs from fresh", y)
		}
		if !reflect.DeepEqual(evolved.Meta, fresh.Meta) {
			t.Fatalf("year %d: evolved annotations differ from fresh", y)
		}
		if !reflect.DeepEqual(evolved.IXPs, fresh.IXPs) {
			t.Fatalf("year %d: evolved IXPs differ from fresh", y)
		}
		if !reflect.DeepEqual(evolved.Spec, fresh.Spec) {
			t.Fatalf("year %d: evolved spec differs from fresh", y)
		}
		in = evolved
	}
}

// TestTimelineWorldsAuditClean: every evolved year remains a structurally
// sound topology — no provider cycles, no islands, clique intact, every
// new AS reachable through at least one provider.
func TestTimelineWorldsAuditClean(t *testing.T) {
	for _, y := range []int{2016, 2018, 2021, 2025} {
		in, err := topogen.GenerateYear(y, timelineTestScale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if issues := astopo.Audit(in.Graph); len(issues) != 0 {
			t.Errorf("year %d: audit found %d issues, first: %+v", y, len(issues), issues[0])
		}
		wantIXPs := 45 + 3*(y-2015)
		if len(in.IXPs) != wantIXPs {
			t.Errorf("year %d: %d IXPs, want %d", y, len(in.IXPs), wantIXPs)
		}
		sp, _ := topogen.SpecForYear(y, timelineTestScale)
		if in.Graph.NumASes() != sp.NumASes {
			t.Errorf("year %d: %d ASes, want %d", y, in.Graph.NumASes(), sp.NumASes)
		}
	}
}

func TestGenerateYearMatchesBasePreset(t *testing.T) {
	in, err := topogen.GenerateYear(2015, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := topogen.Generate(topogen.Internet2015(timelineTestScale))
	if err != nil {
		t.Fatal(err)
	}
	if worldHash(in) != worldHash(direct) {
		t.Fatal("GenerateYear(2015) differs from the 2015 preset world")
	}
}

func TestApplyDeltaFailsClosed(t *testing.T) {
	base, err := topogen.GenerateYear(2016, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}
	good, err := topogen.EvolveStep(base, 2017, timelineTestScale)
	if err != nil {
		t.Fatal(err)
	}

	copyDelta := func() *topogen.GrowthDelta {
		d := *good
		d.NewASes = append([]topogen.NewAS(nil), good.NewASes...)
		d.RemovedLinks = append([]astopo.Link(nil), good.RemovedLinks...)
		d.AddedLinks = append([]astopo.Link(nil), good.AddedLinks...)
		d.IXPJoins = append([]topogen.IXPJoin(nil), good.IXPJoins...)
		d.NewIXPs = append([]topogen.NewIXP(nil), good.NewIXPs...)
		return &d
	}
	if len(good.NewASes) == 0 || len(good.NewIXPs) == 0 {
		t.Fatal("delta creates no AS or no exchange")
	}
	// refused applies a delta that copyDelta's copy was edited into and
	// wants an error naming what is wrong with it.
	refused := func(t *testing.T, edit func(d *topogen.GrowthDelta), want string) {
		t.Helper()
		d := copyDelta()
		edit(d)
		if _, err := topogen.ApplyDelta(base, d); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want one containing %q", err, want)
		}
	}
	nCities := geo.CityID(len(geo.Cities()))

	t.Run("wrong base year", func(t *testing.T) {
		d := copyDelta()
		d.FromYear, d.ToYear = 2017, 2018
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for mispaired delta")
		}
	})
	t.Run("removal not in base", func(t *testing.T) {
		d := copyDelta()
		d.RemovedLinks = append(d.RemovedLinks, astopo.Link{A: 1, B: 2, Rel: astopo.P2P})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for unmatched removal")
		}
	})
	t.Run("duplicate addition", func(t *testing.T) {
		d := copyDelta()
		d.AddedLinks = append(d.AddedLinks, base.Graph.Links()[0])
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for addition that already exists")
		}
	})
	t.Run("reversed base link", func(t *testing.T) {
		d := copyDelta()
		for _, l := range base.Graph.Links() {
			if l.Rel == astopo.P2C {
				d.AddedLinks = append(d.AddedLinks, astopo.Link{A: l.B, B: l.A, Rel: l.Rel})
				break
			}
		}
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for a base link added in reversed orientation")
		}
	})
	t.Run("pair added twice", func(t *testing.T) {
		d := copyDelta()
		d.AddedLinks = append(d.AddedLinks, good.AddedLinks[0])
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for a pair listed twice in AddedLinks")
		}
	})
	t.Run("removed pair re-added", func(t *testing.T) {
		if len(good.RemovedLinks) == 0 {
			t.Fatal("delta removes no link")
		}
		d := copyDelta()
		r := good.RemovedLinks[0]
		d.AddedLinks = append(d.AddedLinks, astopo.Link{A: r.B, B: r.A, Rel: astopo.P2C})
		next, err := topogen.ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("re-adding a pair the delta removes should apply: %v", err)
		}
		if rel, ok := next.Graph.HasLink(r.B, r.A); !ok || rel != astopo.P2C {
			t.Fatalf("re-added pair AS%d-AS%d = %v,%v; want p2c", r.B, r.A, rel, ok)
		}
	})
	t.Run("self link", func(t *testing.T) {
		refused(t, func(d *topogen.GrowthDelta) {
			d.AddedLinks = append(d.AddedLinks, astopo.Link{A: 15169, B: 15169, Rel: astopo.P2P})
		}, "p2p or p2c")
	})
	t.Run("c2p link", func(t *testing.T) {
		refused(t, func(d *topogen.GrowthDelta) {
			l := good.AddedLinks[0]
			d.AddedLinks[0] = astopo.Link{A: l.B, B: l.A, Rel: astopo.C2P}
		}, "p2p or p2c")
	})
	t.Run("link to an undeclared AS", func(t *testing.T) {
		refused(t, func(d *topogen.GrowthDelta) {
			d.AddedLinks = append(d.AddedLinks, astopo.Link{A: 3356, B: 64512, Rel: astopo.P2C})
		}, "neither the base world nor its new ASes")
	})
	for _, c := range []topogen.ASClass{topogen.ClassTier1, topogen.ClassCloud, topogen.ClassCloud + 1} {
		t.Run("new AS of class "+c.String(), func(t *testing.T) {
			refused(t, func(d *topogen.GrowthDelta) { d.NewASes[0].Class = c }, "of class")
		})
	}
	for _, home := range []geo.CityID{-1, nCities} {
		t.Run(fmt.Sprintf("new AS homed in city %d", home), func(t *testing.T) {
			refused(t, func(d *topogen.GrowthDelta) { d.NewASes[0].Home = home }, "homes AS")
		})
	}
	t.Run("new AS listed twice", func(t *testing.T) {
		refused(t, func(d *topogen.GrowthDelta) { d.NewASes = append(d.NewASes, d.NewASes[0]) }, "twice")
	})
	t.Run("new AS the base has", func(t *testing.T) {
		refused(t, func(d *topogen.GrowthDelta) { d.NewASes[0].ASN = base.Graph.ASes()[0] }, "already has")
	})
	for _, city := range []geo.CityID{-1, nCities} {
		t.Run(fmt.Sprintf("new exchange in city %d", city), func(t *testing.T) {
			refused(t, func(d *topogen.GrowthDelta) { d.NewIXPs[0].City = city }, "opens an exchange")
		})
	}
	t.Run("IXP index out of range", func(t *testing.T) {
		d := copyDelta()
		d.IXPJoins = append(d.IXPJoins, topogen.IXPJoin{IXP: int32(len(base.IXPs)), Member: 15169})
		if _, err := topogen.ApplyDelta(base, d); err == nil {
			t.Fatal("want error for out-of-range IXP join")
		}
	})
	t.Run("good delta still applies", func(t *testing.T) {
		if _, err := topogen.ApplyDelta(base, good); err != nil {
			t.Fatalf("unmodified delta should apply: %v", err)
		}
	})
}

// EvolveStep keeps a row for every generated AS up to the base world's
// last, so a base world that numbers an AS far past its AS count, or an
// exchange member past its last AS, is refused with an error rather than
// sized into rows up to that ASN or read out of range.
func TestEvolveStepRefusesForeignNumbering(t *testing.T) {
	t.Run("AS past the count", func(t *testing.T) {
		base, err := topogen.GenerateYear(2016, timelineTestScale)
		if err != nil {
			t.Fatal(err)
		}
		links := append([]astopo.Link(nil), base.Graph.Links()...)
		links = append(links, astopo.Link{A: 3356, B: 4_000_000_000, Rel: astopo.P2C})
		base.Graph = astopo.FromLinks(links)
		if _, err := topogen.EvolveStep(base, 2017, timelineTestScale); err == nil || !strings.Contains(err.Error(), "not a generated world") {
			t.Fatalf("err = %v, want a refusal of the base world", err)
		}
	})
	t.Run("IXP member past the last AS", func(t *testing.T) {
		base, err := topogen.GenerateYear(2016, timelineTestScale)
		if err != nil {
			t.Fatal(err)
		}
		nodes := base.Graph.ASes()
		base.IXPs[0].Members = append(base.IXPs[0].Members, nodes[len(nodes)-1]+1)
		if _, err := topogen.EvolveStep(base, 2017, timelineTestScale); err == nil || !strings.Contains(err.Error(), "does not number") {
			t.Fatalf("err = %v, want a refusal of the member", err)
		}
	})
}
