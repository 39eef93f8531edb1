package tracesim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync/atomic"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// traceAllSerial is the reference implementation TraceAllMulti is measured
// against: one propagation per destination per call, single-threaded, no
// distance caching. Its output is identical to TraceAll's.
func traceAllSerial(e *Engine, vms []VM) ([][]Traceroute, error) {
	g := e.in.Graph
	g.Freeze()
	dests := g.ASes()
	out := make([][]Traceroute, len(vms))
	for i := range out {
		out[i] = make([]Traceroute, len(dests))
	}
	sim := bgpsim.New(g)
	for di, d := range dests {
		res, err := sim.Run(bgpsim.Config{Origin: d, TrackNextHops: true})
		if err != nil {
			return nil, err
		}
		for vi, vm := range vms {
			out[vi][di] = e.trace(vm, d, res)
		}
	}
	return out, nil
}

// TraceAllMulti shares one propagation per destination across every VM set;
// what it hands its caller must be the serial reference, trace for trace,
// each (set, VM, destination) exactly once.
func TestTraceAllMultiMatchesSerial(t *testing.T) {
	e := newEngine(t, 0.01425)
	clouds := []string{"Google", "Amazon", "Microsoft", "IBM"}
	sets := make([][]VM, len(clouds))
	multi := make([][][]Traceroute, len(clouds))
	visits := make([][][]int32, len(clouds))
	n := e.in.Graph.NumASes()
	for i, c := range clouds {
		vms, err := e.VMs(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = vms
		for range vms {
			multi[i] = append(multi[i], make([]Traceroute, n))
			visits[i] = append(visits[i], make([]int32, n))
		}
	}
	err := e.TraceAllMulti(sets, func(si, vi, di int, tr Traceroute) {
		multi[si][vi][di] = tr
		atomic.AddInt32(&visits[si][vi][di], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clouds {
		for vi := range visits[i] {
			for di, k := range visits[i][vi] {
				if k != 1 {
					t.Fatalf("cloud %s VM %d destination %d: visited %d times, want once", c, vi, di, k)
				}
			}
		}
		serial, err := traceAllSerial(e, sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(multi[i], serial) {
			t.Fatalf("cloud %s: TraceAllMulti differs from the serial reference", c)
		}
	}
}

// TraceAll fills its table from a one-set TraceAllMulti; it must still
// equal the serial reference byte for byte.
func TestTraceAllMatchesSerial(t *testing.T) {
	e := newEngine(t, 0.01425)
	vms, err := e.VMs("Amazon", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.TraceAll(vms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := traceAllSerial(e, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("TraceAll differs from the serial reference")
	}
}

// onBestPath reports whether every step of the forwarding path follows a
// tied-best next hop of the destination's propagation. forwardPath computes
// the same verdict incrementally; this is its reference form.
func onBestPath(g *astopo.Graph, path []astopo.ASN, res *bgpsim.Result) bool {
	for k := 1; k < len(path); k++ {
		ci, ok := g.Index(path[k-1])
		if !ok {
			return false
		}
		ni, ok := g.Index(path[k])
		if !ok {
			return false
		}
		found := false
		for _, h := range res.NextHops(int32(ci)) {
			if h == int32(ni) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// forwardPath folds the Appendix A containment verdict into the DAG walk;
// it must agree with the reference onBestPath predicate for every trace.
func TestOnBestPathVerdictMatchesReference(t *testing.T) {
	e := newEngine(t, 0.01425)
	vms, err := e.VMs("Amazon", 2)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := e.TraceAll(vms)
	if err != nil {
		t.Fatal(err)
	}
	g := e.in.Graph
	sim := bgpsim.New(g)
	checked := 0
	for _, perVM := range traces {
		for _, tr := range perVM {
			if tr.TruePath == nil {
				continue
			}
			res, err := sim.Run(bgpsim.Config{Origin: tr.DstASN, TrackNextHops: true})
			if err != nil {
				t.Fatal(err)
			}
			if want := onBestPath(g, tr.TruePath, res); tr.OnBestPath != want {
				t.Fatalf("VM %v dst AS%d: OnBestPath=%v, reference says %v",
					tr.VM, tr.DstASN, tr.OnBestPath, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no traces with paths to check")
	}
}

// pathHasher was rewritten without fmt/hash.Hash; the digest must stay
// byte-for-byte identical to the original formulation, since every
// synthesized hop sequence is derived from it.
func TestPathHasherMatchesReference(t *testing.T) {
	ref := func(vm VM, dst astopo.ASN) uint64 {
		f := fnv.New64a()
		fmt.Fprintf(f, "%s/%d/%d", vm.Cloud, vm.City, dst)
		if vm.Cloud == "Amazon" {
			fmt.Fprintf(f, "/%d", vm.Index)
		}
		return f.Sum64()
	}
	cases := []VM{
		{Cloud: "Google", City: 0, Index: 0},
		{Cloud: "Google", City: 117, Index: 3},
		{Cloud: "Amazon", City: 42, Index: 0},
		{Cloud: "Amazon", City: 42, Index: 19},
		{Cloud: "Microsoft", City: 5, Index: 1},
		{Cloud: "IBM", City: 200, Index: 5},
	}
	for _, vm := range cases {
		for _, dst := range []astopo.ASN{1, 15169, 4294967295, 90210} {
			if got, want := pathHasher(vm, dst), ref(vm, dst); got != want {
				t.Fatalf("pathHasher(%+v, %d) = %#x, reference %#x", vm, dst, got, want)
			}
		}
	}
}
