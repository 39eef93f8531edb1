package ipasn

import (
	"net/netip"
	"slices"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/netdb"
	"flatnet/internal/topogen"
)

type fixture struct {
	in    *topogen.Internet
	plan  *netdb.Plan
	cymru *Cymru
	pdb   *PeeringDB
	whois *Whois
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(0.02138))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := netdb.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	cymru, err := NewCymru(plan.AnnouncedPrefixes())
	if err != nil {
		t.Fatal(err)
	}
	whois, err := NewWhois(plan)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{in: in, plan: plan, cymru: cymru, pdb: NewPeeringDB(plan.Lans), whois: whois}
}

func (f *fixture) lanByAnnounced(t *testing.T, announced bool) netdb.IXPLan {
	t.Helper()
	for _, lan := range f.plan.Lans {
		if lan.Announced == announced && len(lan.MemberAddr) > 0 {
			return lan
		}
	}
	t.Fatalf("no IXP LAN with announced=%v", announced)
	return netdb.IXPLan{}
}

func TestCymruResolvesASSpace(t *testing.T) {
	f := newFixture(t)
	for _, a := range f.in.Graph.ASes()[:100] {
		addr := f.plan.ASPrefix[a].Addr().Next()
		got, ok := f.cymru.Resolve(addr)
		if !ok || got != a {
			t.Fatalf("Cymru(%v) = %d,%v, want AS%d", addr, got, ok, a)
		}
	}
}

func TestCymruFailsOnUnannouncedLan(t *testing.T) {
	f := newFixture(t)
	lan := f.lanByAnnounced(t, false)
	for _, addr := range lan.MemberAddr {
		if asn, ok := f.cymru.Resolve(addr); ok {
			t.Fatalf("Cymru resolved unannounced LAN addr %v to AS%d", addr, asn)
		}
		break
	}
}

func TestCymruReturnsOperatorForAnnouncedLan(t *testing.T) {
	f := newFixture(t)
	lan := f.lanByAnnounced(t, true)
	var member astopo.ASN
	var addr netip.Addr
	for m, a := range lan.MemberAddr {
		member, addr = m, a
		break
	}
	got, ok := f.cymru.Resolve(addr)
	if !ok {
		t.Fatal("announced LAN addr did not resolve")
	}
	if got != lan.OperatorASN {
		t.Errorf("Cymru(%v) = AS%d, want exchange operator AS%d", addr, got, lan.OperatorASN)
	}
	if got == member {
		t.Error("Cymru returned the member — the §5 artifact is not reproduced")
	}
}

func TestPeeringDBResolvesMembers(t *testing.T) {
	f := newFixture(t)
	good, bad, stale := 0, 0, 0
	for _, lan := range f.plan.Lans {
		for member, addr := range lan.MemberAddr {
			got, ok := f.pdb.Resolve(addr)
			if !ok {
				t.Fatalf("PeeringDB(%v) unresolved", addr)
			}
			switch {
			case got == member:
				good++
			case lan.StaleEntries[addr] == got:
				stale++
			default:
				bad++
			}
		}
	}
	if bad != 0 {
		t.Errorf("%d addresses resolved to neither the member nor a recorded stale entry", bad)
	}
	if good == 0 || stale == 0 {
		t.Errorf("good=%d stale=%d; want both nonzero", good, stale)
	}
	if frac := float64(stale) / float64(good+stale); frac > 0.10 {
		t.Errorf("stale fraction %.3f too high", frac)
	}
	if _, ok := f.pdb.Resolve(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("PeeringDB answered for non-IXP space")
	}
}

func TestWhoisCoversAllocationsNotLans(t *testing.T) {
	f := newFixture(t)
	a := f.in.Clouds["Google"]
	addr := f.plan.ASPrefix[a].Addr().Next().Next()
	if got, ok := f.whois.Resolve(addr); !ok || got != a {
		t.Errorf("Whois(%v) = %d,%v, want AS%d", addr, got, ok, a)
	}
	lan := f.lanByAnnounced(t, false)
	for _, addr := range lan.MemberAddr {
		if asn, ok := f.whois.Resolve(addr); ok {
			t.Errorf("Whois resolved IXP LAN addr %v to AS%d; exchanges are orgs, not ASes", addr, asn)
		}
		break
	}
}

func TestChainOrderingMatters(t *testing.T) {
	f := newFixture(t)
	lan := f.lanByAnnounced(t, true)
	cymruFirst := NewChain("cymru-first", f.cymru, f.pdb, f.whois)
	pdbFirst := NewChain("pdb-first", f.pdb, f.cymru, f.whois)
	members := make([]astopo.ASN, 0, len(lan.MemberAddr))
	for m := range lan.MemberAddr {
		members = append(members, m)
	}
	slices.Sort(members)
	for _, member := range members {
		addr := lan.MemberAddr[member]
		if got, _ := cymruFirst.Resolve(addr); got != lan.OperatorASN {
			t.Errorf("cymru-first chain(%v) = AS%d, want operator AS%d", addr, got, lan.OperatorASN)
		}
		// PeeringDB answers first: a deliberately stale row wins over the
		// member that really holds the address.
		want := member
		if stale, ok := lan.StaleEntries[addr]; ok {
			want = stale
		}
		if got, _ := pdbFirst.Resolve(addr); got != want {
			t.Errorf("pdb-first chain(%v) = AS%d, want AS%d", addr, got, want)
		}
	}
	if cymruFirst.Name() != "cymru-first" {
		t.Error("chain name lost")
	}
	if _, ok := pdbFirst.Resolve(netip.MustParseAddr("240.0.0.1")); ok {
		t.Error("chain resolved garbage")
	}
}
