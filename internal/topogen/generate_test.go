package topogen

import (
	"math"
	"strings"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
	"flatnet/internal/geo"
)

func gen2020(t testing.TB, scale float64) *Internet {
	t.Helper()
	in, err := Generate(Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen2020(t, 0.0285)
	b := gen2020(t, 0.0285)
	la, lb := a.Graph.Links(), b.Graph.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %v vs %v", i, la[i], lb[i])
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	in := gen2020(t, 0.04275)
	g := in.Graph

	// Every Tier-1 is provider-free and the clique is fully meshed.
	for a := range in.Tier1 {
		if provs := g.Providers(a); len(provs) != 0 {
			t.Errorf("Tier-1 AS%d has providers %v", a, provs)
		}
		for b := range in.Tier1 {
			if a >= b {
				continue
			}
			if rel, ok := g.HasLink(a, b); !ok || rel != astopo.P2P {
				t.Errorf("clique members AS%d-AS%d: %v,%v", a, b, rel, ok)
			}
		}
	}

	// Every non-Tier-1, non-provider-free AS has at least one provider
	// (upward connectivity to the clique).
	providerFree := astopo.NewASSet(6939, 3491, 6830) // HE, PCCW, Liberty Global
	for _, a := range g.ASes() {
		if in.Tier1.Has(a) || providerFree.Has(a) {
			continue
		}
		if len(g.Providers(a)) == 0 {
			t.Errorf("AS%d (%s) has no providers", a, in.ClassOf(a))
		}
	}

	// Google's transit providers are the documented three.
	provs := g.Providers(15169)
	if len(provs) != 3 {
		t.Fatalf("Google providers = %v, want 3", provs)
	}
	want := astopo.NewASSet(6453, 3257, 22356)
	for _, p := range provs {
		if !want.Has(p) {
			t.Errorf("unexpected Google provider AS%d", p)
		}
	}

	// Every AS has a class and a home city within range.
	cities := len(geo.Cities())
	for i, a := range g.ASes() {
		if in.ClassAt(i) > ClassCloud {
			t.Fatalf("AS%d has class %d out of range", a, int(in.ClassAt(i)))
		}
		if c := int(in.HomeCityAt(i)); c < 0 || c >= cities {
			t.Fatalf("AS%d has home city %d out of range", a, c)
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	in := gen2020(t, 0.04275)
	want := in.Spec.NumASes
	got := in.Graph.NumASes()
	// A handful of enterprises may end up linkless if attachment fails;
	// allow 1% slack.
	if got < want*99/100 || got > want {
		t.Errorf("NumASes = %d, want ~%d", got, want)
	}
	// Link density should be in the plausible Internet range (the real
	// 2020 graph has ~7 links per AS).
	density := float64(in.Graph.NumLinks()) / float64(got)
	if density < 3 || density > 20 {
		t.Errorf("link density = %.1f links/AS, want 3-20", density)
	}
}

func TestGenerateValidation(t *testing.T) {
	spec := Internet2020(0.0285)
	spec.NumASes = 10
	if _, err := Generate(spec); err == nil {
		t.Error("tiny NumASes accepted")
	}
	spec = Internet2020(0.0285)
	spec.FracAccess, spec.FracContent = 0.9, 0.9
	if _, err := Generate(spec); err == nil {
		t.Error("fractions > 1 accepted")
	}
	spec = Internet2020(0.0285)
	spec.NumIXPs = 0
	if _, err := Generate(spec); err == nil {
		t.Error("zero IXPs accepted")
	}
	spec = Internet2020(0.0285)
	spec.Tier1[0].ASN = synthBase + 5
	if _, err := Generate(spec); err == nil {
		t.Error("synthetic-range profile ASN accepted")
	}
	spec = Internet2020(0.0285)
	spec.Tier1[0].ASN = spec.Tier2[0].ASN
	if _, err := Generate(spec); err == nil {
		t.Error("duplicate profile ASN accepted")
	}
}

// TestGenerateRejectsHostileScale feeds the generators scales that round
// to no ASes at all or to more ASes than the 32-bit ASN space numbers:
// each must fail with an error, never panic.
func TestGenerateRejectsHostileScale(t *testing.T) {
	base, err := GenerateYear(2015, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		scale float64
		want  string
	}{
		{"NaN", math.NaN(), "scale"},
		{"-1", -1, "scale"},
		{"0", 0, "scale"},
		{"1e9", 1e9, "ASN space"},
	} {
		for _, gen := range []struct {
			name string
			run  func(float64) error
		}{
			{"Internet2020", func(s float64) error { _, err := Generate(Internet2020(s)); return err }},
			{"Internet2015", func(s float64) error { _, err := Generate(Internet2015(s)); return err }},
			{"GenerateYear", func(s float64) error { _, err := GenerateYear(2017, s); return err }},
			// timeline delta grows a snapshot at the scale the file records.
			{"EvolveStep", func(s float64) error { _, err := EvolveStep(base, 2016, s); return err }},
		} {
			t.Run(tc.name+"/"+gen.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				err := gen.run(tc.scale)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want an error mentioning %q", err, tc.want)
				}
			})
		}
	}
	// The ~1.4M-AS stress preset is far inside the ASN space.
	if err := validate(Internet2020(20)); err != nil {
		t.Fatalf("scale-20 preset: %v", err)
	}
}

func TestMasks(t *testing.T) {
	in := gen2020(t, 0.0285)
	g := in.Graph
	m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	google := in.Clouds["Google"]
	pf := m.Mask(google, core.ProviderFree)
	for _, p := range g.Providers(google) {
		i, _ := g.Index(p)
		if !pf[i] {
			t.Errorf("provider AS%d not masked", p)
		}
	}
	hf := m.Mask(google, core.HierarchyFree)
	nMasked := 0
	for _, masked := range hf {
		if masked {
			nMasked++
		}
	}
	wantMin := len(in.Tier1) + len(in.Tier2) // providers overlap T1/T2 sets sometimes
	if nMasked < wantMin {
		t.Errorf("hierarchy-free mask covers %d ASes, want >= %d", nMasked, wantMin)
	}
	// An origin inside the exclusion set must not be masked out of its
	// own propagation.
	he := astopo.ASN(6939)
	i, _ := g.Index(he)
	if m.Mask(he, core.HierarchyFree)[i] {
		t.Error("origin masked out of its own hierarchy-free mask")
	}
}

// TestGenerateShape verifies the headline qualitative property the whole
// reproduction rests on: the clouds' hierarchy-free reachability is high
// (>60% of ASes) and ordered Google >= Microsoft >= IBM >= Amazon, and a
// hierarchy-reliant Tier-1 (Sprint) collapses without the Tier-2s.
func TestGenerateShape(t *testing.T) {
	in := gen2020(t, 0.04987)
	sim := bgpsim.New(in.Graph)
	m := core.New(core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2})
	total := in.Graph.NumASes() - 1
	hfr := func(o astopo.ASN) float64 {
		n, err := sim.ReachabilityCount(bgpsim.Config{Origin: o, Exclude: m.Mask(o, core.HierarchyFree)})
		if err != nil {
			t.Fatal(err)
		}
		return float64(n) / float64(total)
	}
	google := hfr(15169)
	microsoft := hfr(8075)
	ibm := hfr(36351)
	amazon := hfr(16509)
	sprint := hfr(1239)
	level3 := hfr(3356)
	t.Logf("hierarchy-free: google=%.3f microsoft=%.3f ibm=%.3f amazon=%.3f level3=%.3f sprint=%.3f",
		google, microsoft, ibm, amazon, level3, sprint)
	if google < 0.60 {
		t.Errorf("Google hierarchy-free reachability = %.3f, want >= 0.60", google)
	}
	if !(google >= microsoft && microsoft >= ibm && ibm >= amazon) {
		t.Errorf("cloud ordering violated: g=%.3f m=%.3f i=%.3f a=%.3f", google, microsoft, ibm, amazon)
	}
	if amazon < 0.5 {
		t.Errorf("Amazon hierarchy-free reachability = %.3f, want >= 0.5", amazon)
	}
	if sprint > amazon {
		t.Errorf("Sprint (%.3f) should collapse below the clouds (Amazon %.3f)", sprint, amazon)
	}
	if level3 < google-0.15 {
		t.Errorf("Level 3 (%.3f) should stay near the top (Google %.3f)", level3, google)
	}
}

// The generator's output must pass the structural audit that guards real
// dataset drop-ins: no provider cycles, no islands, and a consistent
// clique (the three intentionally provider-free Tier-2s peer with every
// Tier-1, so they are clique members rather than gaps).
func TestGeneratedTopologyAuditsClean(t *testing.T) {
	in := gen2020(t, 0.25)
	for _, issue := range astopo.Audit(in.Graph) {
		t.Errorf("audit issue: %v (ASes %v)", issue, issue.ASes)
	}
}

// The 2015 preset must reflect §6.5's retrospective: a smaller Internet and
// much weaker Amazon/Microsoft peering footprints than 2020.
func TestInternet2015Shape(t *testing.T) {
	in15, err := Generate(Internet2015(0.04275))
	if err != nil {
		t.Fatal(err)
	}
	in20 := gen2020(t, 0.04275)
	if in15.Graph.NumASes() >= in20.Graph.NumASes() {
		t.Errorf("2015 graph (%d ASes) not smaller than 2020 (%d)",
			in15.Graph.NumASes(), in20.Graph.NumASes())
	}
	ratio := float64(in15.Graph.NumASes()) / float64(in20.Graph.NumASes())
	if ratio < 0.6 || ratio > 0.9 {
		t.Errorf("2015/2020 size ratio %.2f, want ~0.75 (51,801/69,488)", ratio)
	}
	for _, cloud := range []string{"Amazon", "Microsoft"} {
		p15 := len(in15.Graph.Peers(in15.Clouds[cloud]))
		p20 := len(in20.Graph.Peers(in20.Clouds[cloud]))
		if float64(p15) > 0.5*float64(p20) {
			t.Errorf("%s 2015 peers (%d) not far below 2020 (%d)", cloud, p15, p20)
		}
	}
	// Google was already well peered in 2015 (App. E: 6,397 of 51,801).
	g15 := len(in15.Graph.Peers(in15.Clouds["Google"]))
	if frac := float64(g15) / float64(in15.Graph.NumASes()); frac < 0.05 {
		t.Errorf("2015 Google peers %.3f of ASes, want >= 0.05", frac)
	}
}
