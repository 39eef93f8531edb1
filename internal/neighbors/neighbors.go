// Package neighbors infers a cloud provider's neighbor ASes from traceroute
// measurements, reproducing the paper's methodology including the iterative
// refinements of §5:
//
//	StageNaive     Team-Cymru-only resolution; a single unknown or
//	               unresponsive hop after the last cloud hop is skipped
//	               (the initial assumption the paper identified as the
//	               leading cause of false positives).
//	StageDiscard   unresponsive border hops discard the traceroute;
//	               unresolved-but-responsive hops fall through Cymru to
//	               PeeringDB and whois.
//	StageFinal     PeeringDB preferred over Cymru for resolution, so that
//	               addresses inside *announced* IXP LANs resolve to the
//	               member AS rather than the exchange ASN.
//
// Validation against the generator's ground truth yields the same
// false-discovery-rate / false-negative-rate quantities the cloud operators
// reported to the authors.
package neighbors

import (
	"fmt"

	"flatnet/internal/astopo"
	"flatnet/internal/ipasn"
	"flatnet/internal/netdb"
	"flatnet/internal/tracesim"
)

// Stage selects the methodology variant.
type Stage int

const (
	// StageNaive is the initial methodology (~50% FDR in the paper).
	StageNaive Stage = iota
	// StageDiscard discards unresponsive borders and adds PeeringDB and
	// whois fallbacks after Cymru.
	StageDiscard
	// StageFinal prefers PeeringDB over Cymru.
	StageFinal
)

func (s Stage) String() string {
	switch s {
	case StageNaive:
		return "naive"
	case StageDiscard:
		return "discard-unresponsive"
	case StageFinal:
		return "final"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists the methodology stages in refinement order.
func Stages() []Stage { return []Stage{StageNaive, StageDiscard, StageFinal} }

// Resolvers bundles the three data sources.
type Resolvers struct {
	Cymru *ipasn.Cymru
	PDB   *ipasn.PeeringDB
	Whois *ipasn.Whois
}

// NewResolvers builds the bundle from an address plan.
func NewResolvers(plan *netdb.Plan) (Resolvers, error) {
	cymru, err := ipasn.NewCymru(plan.AnnouncedPrefixes())
	if err != nil {
		return Resolvers{}, err
	}
	whois, err := ipasn.NewWhois(plan)
	if err != nil {
		return Resolvers{}, err
	}
	return Resolvers{Cymru: cymru, PDB: ipasn.NewPeeringDB(plan.Lans), Whois: whois}, nil
}

// Chain returns the stage's resolver ordering. A chain only reads its
// sources, so one serves any number of concurrent Neighbor calls.
func (r Resolvers) Chain(stage Stage) ipasn.Resolver {
	switch stage {
	case StageNaive:
		return ipasn.NewChain("naive", r.Cymru)
	case StageDiscard:
		return ipasn.NewChain("discard", r.Cymru, r.PDB, r.Whois)
	default:
		return ipasn.NewChain("final", r.PDB, r.Cymru, r.Whois)
	}
}

// Neighbor applies the paper's border rule to one traceroute: find the last
// hop resolving to the cloud, then identify the first subsequent hop
// resolving to a different AS, subject to the stage's skip/discard rules
// for unresponsive and unresolved hops in between. chain must be
// Chain(stage). ok=false means the stage's sanitization discards the
// traceroute; a cloud's inferred neighbor set is the union over its
// retained traceroutes.
func Neighbor(tr *tracesim.Traceroute, cloud astopo.ASN, chain ipasn.Resolver, stage Stage) (astopo.ASN, bool) {
	resolve := func(h tracesim.Hop) (astopo.ASN, bool) {
		if !h.Responded() {
			return 0, false
		}
		return chain.Resolve(h.Addr)
	}
	hops := tr.Hops
	lastCloud := -1
	for i := len(hops) - 1; i >= 0; i-- {
		if asn, ok := resolve(hops[i]); ok && asn == cloud {
			lastCloud = i
			break
		}
	}
	if lastCloud < 0 || lastCloud == len(hops)-1 {
		return 0, false
	}
	j := lastCloud + 1
	asn, resolved := resolve(hops[j])
	if stage == StageNaive {
		// The initial assumption: one unknown or unresponsive hop
		// between the last cloud hop and the first resolved hop is
		// "unlikely to be an intermediate AS" — skip it.
		if !resolved && j+1 < len(hops) {
			j++
			asn, resolved = resolve(hops[j])
		}
	} else if !hops[j].Responded() {
		return 0, false // discard the whole traceroute
	}
	if !resolved || asn == cloud {
		return 0, false
	}
	return asn, true
}

// Validation quantifies an inference against ground truth.
type Validation struct {
	TP, FP, FN int
	// FDR is FP/(FP+TP); FNR is FN/(FN+TP) — §5's reported quantities.
	FDR, FNR float64
}

// Validate compares the inferred set against the true neighbor list.
func Validate(inferred astopo.ASSet, truth []astopo.ASN) Validation {
	truthSet := astopo.NewASSet(truth...)
	var v Validation
	for a := range inferred {
		if truthSet.Has(a) {
			v.TP++
		} else {
			v.FP++
		}
	}
	for _, a := range truth {
		if !inferred.Has(a) {
			v.FN++
		}
	}
	if v.TP+v.FP > 0 {
		v.FDR = float64(v.FP) / float64(v.FP+v.TP)
	}
	if v.TP+v.FN > 0 {
		v.FNR = float64(v.FN) / float64(v.FN+v.TP)
	}
	return v
}

// Augment adds the inferred neighbors to a (typically BGP-feed-derived)
// topology as p2p links, never modifying pre-existing link types (§4.1),
// and returns the number of links added.
func Augment(g *astopo.Graph, cloud astopo.ASN, inferred astopo.ASSet) int {
	added := 0
	for a := range inferred {
		if g.AddLinkIfAbsent(cloud, a, astopo.P2P) {
			added++
		}
	}
	return added
}
