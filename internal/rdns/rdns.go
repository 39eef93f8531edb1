// Package rdns synthesizes and parses router reverse-DNS hostnames, the
// data source behind the paper's PoP-map confirmation (§4.2, Appendix C).
//
// Real operators encode PoP locations in router hostnames (airport codes or
// city abbreviations) under per-network naming conventions — e.g. NTT's
// routers live under gin.ntt.net with an IATA token. The package:
//
//   - synthesizes per-network hostname corpora over a provider's PoP
//     cities, at the per-network rDNS coverage levels of Table 3 (Amazon
//     publishes no rDNS at all; NTT covers ~100%);
//   - extracts locations with hand-written convention regexes (the paper's
//     first method). The paper's second method, learning conventions from
//     MIDAR alias groups with sc_hoiho, is not implemented: the two agreed
//     in the paper, and Table 3 runs on the hand-written conventions.
package rdns

import (
	"fmt"
	"math/rand"
	"net/netip"
	"regexp"
	"strings"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/netdb"
	"flatnet/internal/topogen"
)

// Convention is a network's router naming scheme.
type Convention struct {
	// Suffix is the DNS zone (e.g. "gin.ntt.net").
	Suffix string
	// Pattern renders a hostname from an IATA code, a router index, and
	// an interface index.
	Pattern func(iata string, router, iface int) string
	// Regexp extracts the IATA code from a hostname of this convention
	// (submatch 1) — the "manual inspection" method of §4.2.
	Regexp *regexp.Regexp
}

// conventions gives each named network a distinct hostname structure.
var conventions = []Convention{
	{
		Suffix:  "gin.%s.net",
		Pattern: func(iata string, r, i int) string { return fmt.Sprintf("ae-%d.r%02d.%s01", i, r, iata) },
		Regexp:  regexp.MustCompile(`^ae-\d+\.r\d+\.([a-z]{3})\d+\.`),
	},
	{
		Suffix:  "core.%s.net",
		Pattern: func(iata string, r, i int) string { return fmt.Sprintf("%dge%d.%s%d", 100, i, iata, r) },
		Regexp:  regexp.MustCompile(`^\d+ge\d+\.([a-z]{3})\d+\.`),
	},
	{
		Suffix:  "bb.%s.net",
		Pattern: func(iata string, r, i int) string { return fmt.Sprintf("%s-b%d-link%d", iata, r, i) },
		Regexp:  regexp.MustCompile(`^([a-z]{3})-b\d+-link\d+\.`),
	},
	{
		Suffix:  "%s.net",
		Pattern: func(iata string, r, i int) string { return fmt.Sprintf("et-%d-0-%d.edge%d.%s", i, r, r, iata) },
		Regexp:  regexp.MustCompile(`^et-\d+-0-\d+\.edge\d+\.([a-z]{3})\.`),
	},
}

// ConventionFor returns the deterministic convention assigned to a network
// (by ASN) with its zone rendered from the network's name.
func ConventionFor(asn astopo.ASN, name string) Convention {
	c := conventions[int(asn)%len(conventions)]
	zone := strings.ToLower(strings.NewReplacer(" ", "", ".", "", "&", "").Replace(name))
	if zone == "" {
		zone = fmt.Sprintf("as%d", asn)
	}
	return Convention{
		Suffix:  fmt.Sprintf(c.Suffix, zone),
		Pattern: c.Pattern,
		Regexp:  c.Regexp,
	}
}

// Record is one PTR record.
type Record struct {
	Addr     netip.Addr
	Hostname string
}

// Corpus holds the synthesized rDNS data for one Internet.
type Corpus struct {
	// ByAS groups records per network.
	ByAS map[astopo.ASN][]Record
	// CoveredPoPs records which PoP cities actually received records.
	CoveredPoPs map[astopo.ASN]map[geo.CityID]bool
}

// Table3Coverage reproduces Appendix C's per-network "% rDNS" column: the
// share of a network's PoPs with router hostnames in reverse DNS.
var Table3Coverage = map[string]float64{
	"NTT": 1.00, "HE": 0.991, "AT&T": 0.923, "Tata": 0.904,
	"Google": 0.892, "PCCW": 0.855, "Vodafone": 0.839, "Zayo": 0.833,
	"Sprint": 0.674, "Telxius": 0.667, "Telia": 0.654, "Microsoft": 0.453,
	"It Sparkle": 0.397, "Orange": 0.267, "Amazon": 0.0,
}

// defaultCoverage applies to named networks absent from Table 3 (the paper
// found 73% of PoPs confirmed overall).
const defaultCoverage = 0.73

// Synthesize builds the rDNS corpus for every named network with PoPs.
func Synthesize(plan *netdb.Plan, seed int64) *Corpus {
	in := plan.Internet()
	rng := rand.New(rand.NewSource(seed))
	corpus := &Corpus{
		ByAS:        make(map[astopo.ASN][]Record),
		CoveredPoPs: make(map[astopo.ASN]map[geo.CityID]bool),
	}
	cities := geo.Cities()

	// Named networks are the ones with PoP lists; the graph's node order
	// is already sorted by ASN.
	var asns []astopo.ASN
	for i, asn := range in.Graph.ASes() {
		if len(in.PoPsAt(i)) > 0 {
			asns = append(asns, asn)
		}
	}

	for _, asn := range asns {
		pops := in.PoPsOf(asn)
		name := in.NameOf(asn)
		cov, ok := Table3Coverage[name]
		if !ok {
			cov = defaultCoverage
		}
		conv := ConventionFor(asn, name)
		corpus.CoveredPoPs[asn] = make(map[geo.CityID]bool)
		addrIdx := 1000
		for _, pop := range pops {
			if rng.Float64() >= cov {
				continue // this PoP has no rDNS entries
			}
			corpus.CoveredPoPs[asn][pop] = true
			iata := cities[pop].IATA
			routers := 1 + rng.Intn(3)
			for r := 1; r <= routers; r++ {
				ifaces := 2 + rng.Intn(3)
				for i := 0; i < ifaces; i++ {
					addr, ok := plan.InternalAddr(asn, addrIdx)
					addrIdx++
					if !ok {
						continue
					}
					host := conv.Pattern(iata, r, i) + "." + conv.Suffix
					corpus.ByAS[asn] = append(corpus.ByAS[asn], Record{Addr: addr, Hostname: host})
				}
			}
		}
	}
	return corpus
}

// ExtractIATA applies a convention regex to a hostname, returning the
// location token.
func ExtractIATA(re *regexp.Regexp, hostname string) (string, bool) {
	m := re.FindStringSubmatch(hostname)
	if m == nil || len(m) < 2 {
		return "", false
	}
	return m[1], true
}

// ConfirmedPoPs runs the §4.2 confirmation: extract location tokens from a
// network's hostnames with the given regex and count how many of its PoP
// cities are confirmed. Returns (confirmed, total PoPs, hostnames seen).
func ConfirmedPoPs(in *topogen.Internet, corpus *Corpus, asn astopo.ASN, re *regexp.Regexp) (confirmed, total, hostnames int) {
	pops := in.PoPsOf(asn)
	total = len(pops)
	records := corpus.ByAS[asn]
	hostnames = len(records)
	found := make(map[string]bool)
	for _, rec := range records {
		if tok, ok := ExtractIATA(re, rec.Hostname); ok {
			found[tok] = true
		}
	}
	cities := geo.Cities()
	for _, pop := range pops {
		if found[cities[pop].IATA] {
			confirmed++
		}
	}
	return confirmed, total, hostnames
}
