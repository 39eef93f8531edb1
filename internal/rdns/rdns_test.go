package rdns

import (
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/netdb"
	"flatnet/internal/topogen"
)

func buildCorpus(t testing.TB) (*topogen.Internet, *netdb.Plan, *Corpus) {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(0.02138))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := netdb.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan, Synthesize(plan, 17)
}

func TestAmazonHasNoRDNS(t *testing.T) {
	in, _, corpus := buildCorpus(t)
	amazon := in.Clouds["Amazon"]
	if n := len(corpus.ByAS[amazon]); n != 0 {
		t.Errorf("Amazon has %d rDNS records, want 0 (Table 3)", n)
	}
}

func TestCoverageTracksTable3(t *testing.T) {
	in, _, corpus := buildCorpus(t)
	ntt := astopo.ASN(2914)
	orange := astopo.ASN(5511)
	frac := func(asn astopo.ASN) float64 {
		return float64(len(corpus.CoveredPoPs[asn])) / float64(len(in.PoPsOf(asn)))
	}
	if f := frac(ntt); f < 0.9 {
		t.Errorf("NTT coverage %.2f, want ~1.0", f)
	}
	if f := frac(orange); f > 0.55 {
		t.Errorf("Orange coverage %.2f, want ~0.27", f)
	}
	if frac(ntt) <= frac(orange) {
		t.Error("NTT should out-cover Orange")
	}
}

func TestManualExtraction(t *testing.T) {
	in, _, corpus := buildCorpus(t)
	for _, asn := range []astopo.ASN{2914, 6939, 15169, 1299} {
		name := in.NameOf(asn)
		conv := ConventionFor(asn, name)
		confirmed, total, hostnames := ConfirmedPoPs(in, corpus, asn, conv.Regexp)
		if hostnames == 0 {
			t.Fatalf("%s: no hostnames", name)
		}
		covered := len(corpus.CoveredPoPs[asn])
		if confirmed != covered {
			t.Errorf("%s: confirmed %d PoPs, want %d (all rDNS-covered PoPs)", name, confirmed, covered)
		}
		if total != len(in.PoPsOf(asn)) {
			t.Errorf("%s: total = %d, want %d", name, total, len(in.PoPsOf(asn)))
		}
	}
}
