package bgpfeed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/netdb"
	"flatnet/internal/topogen"
)

// tinyGraph is a two-branch hierarchy: VP 100 reaches origins 1 and 2
// through its customer 10, VP 200 reaches only origin 1, through 20.
func tinyGraph() (*astopo.Graph, []astopo.ASN) {
	g := astopo.NewGraph(0, 5)
	g.MustAddLink(10, 1, astopo.P2C)
	g.MustAddLink(10, 2, astopo.P2C)
	g.MustAddLink(20, 1, astopo.P2C)
	g.MustAddLink(100, 10, astopo.P2C)
	g.MustAddLink(200, 20, astopo.P2C)
	return g, []astopo.ASN{100, 200}
}

func tinyPrefixOf(o astopo.ASN) (netip.Prefix, bool) {
	switch o {
	case 1:
		return netip.MustParsePrefix("192.0.2.0/24"), true
	case 2:
		return netip.MustParsePrefix("198.51.100.0/24"), true
	}
	return netip.Prefix{}, false
}

func TestMRTRoundTrip(t *testing.T) {
	g, vps := tinyGraph()
	var buf bytes.Buffer
	if n, err := WriteMRT(&buf, g, vps, tinyPrefixOf, 1600000000); err != nil || n != 3 {
		t.Fatalf("WriteMRT = %d paths, %v; want 3", n, err)
	}
	rib, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rib.Peers, vps) {
		t.Errorf("peers = %v, want %v", rib.Peers, vps)
	}
	if len(rib.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(rib.Entries))
	}
	wantPaths := map[string][][]astopo.ASN{
		"192.0.2.0/24":    {{100, 10, 1}, {200, 20, 1}},
		"198.51.100.0/24": {{100, 10, 2}},
	}
	got := map[string][][]astopo.ASN{}
	for _, e := range rib.Entries {
		got[e.Prefix.String()] = append(got[e.Prefix.String()], e.ASPath)
		if e.ASPath[0] != rib.Peers[e.PeerIndex] {
			t.Errorf("entry path %v does not start at its peer AS%d", e.ASPath, rib.Peers[e.PeerIndex])
		}
	}
	if !reflect.DeepEqual(got, wantPaths) {
		t.Errorf("paths = %v, want %v", got, wantPaths)
	}
}

// Golden bytes for the common header and peer table of a minimal dump, so
// the wire format stays RFC-6396-compatible.
func TestMRTGoldenHeader(t *testing.T) {
	g := astopo.NewGraph(0, 1)
	g.MustAddLink(65000, 7, astopo.P2C)
	var buf bytes.Buffer
	if _, err := WriteMRT(&buf, g, []astopo.ASN{65000}, func(astopo.ASN) (netip.Prefix, bool) {
		return netip.MustParsePrefix("10.0.0.0/8"), true
	}, 0x5F000000); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Common header: ts, type 13, subtype 1, length.
	if ts := binary.BigEndian.Uint32(b[0:4]); ts != 0x5F000000 {
		t.Errorf("timestamp = %#x", ts)
	}
	if typ := binary.BigEndian.Uint16(b[4:6]); typ != 13 {
		t.Errorf("type = %d, want 13 (TABLE_DUMP_V2)", typ)
	}
	if sub := binary.BigEndian.Uint16(b[6:8]); sub != 1 {
		t.Errorf("subtype = %d, want 1 (PEER_INDEX_TABLE)", sub)
	}
	bodyLen := binary.BigEndian.Uint32(b[8:12])
	// collector(4) + viewlen(2) + count(2) + peer(1+4+4+4) = 21
	if bodyLen != 21 {
		t.Errorf("peer table length = %d, want 21", bodyLen)
	}
	// Second record: RIB_IPV4_UNICAST.
	second := b[12+bodyLen:]
	if sub := binary.BigEndian.Uint16(second[6:8]); sub != 2 {
		t.Errorf("second subtype = %d, want 2", sub)
	}
}

func TestMRTRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		// Truncated header.
		{0, 0, 0, 0, 0, 13},
		// Header declaring a body that never arrives.
		{0, 0, 0, 0, 0, 13, 0, 1, 0, 0, 0, 99},
	}
	for i, in := range cases {
		if _, err := ReadMRT(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
	// Unknown MRT types are skipped, not errors.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 0, 99, 0, 1, 0, 0, 0, 2, 0xAA, 0xBB})
	rib, err := ReadMRT(&buf)
	if err != nil {
		t.Fatalf("unknown type not skipped: %v", err)
	}
	if len(rib.Entries) != 0 || len(rib.Peers) != 0 {
		t.Error("unknown type produced data")
	}
}

// planPrefixOf maps each origin to the prefix the generated plan gives it.
func planPrefixOf(t testing.TB, in *topogen.Internet) func(astopo.ASN) (netip.Prefix, bool) {
	t.Helper()
	plan, err := netdb.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	return func(o astopo.ASN) (netip.Prefix, bool) {
		p, ok := plan.ASPrefix[o]
		return p, ok
	}
}

// The RIB of the bgpfeed test world with `flatnet collect`'s vantage-point
// rule: its bytes are pinned, so neither the walk nor the record encoding
// can move a byte of a collector's file, whatever the number of workers
// that finish records out of origin order.
func TestWriteMRTGolden(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.01425))
	if err != nil {
		t.Fatal(err)
	}
	prefixOf := planPrefixOf(t, in)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var buf bytes.Buffer
			n, err := WriteMRT(&buf, in.Graph, VantagePoints(in, 6), prefixOf, 1700000000)
			if err != nil {
				t.Fatal(err)
			}
			const want = "f2bda8d0d4c2392c4d98f120b9b7297e7e87f4f9b5ff63bf569a67a771070de6"
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want || buf.Len() != 247312 || n != 5934 {
				t.Errorf("RIB sha256 %s, %d B, %d paths; want %s, 247312 B, 5934 paths", got, buf.Len(), n, want)
			}
		})
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errWriteFailed = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errWriteFailed
	}
	w.limit -= len(p)
	return len(p), nil
}

// A writer that fails partway through the records stops the sweep: WriteMRT
// returns the writer's error, and no worker is left waiting for a record
// that will never be written.
func TestWriteMRTReturnsWriteError(t *testing.T) {
	in, vps := testWorld(t, 0.01425, 6)
	prefixOf := planPrefixOf(t, in)
	for _, procs := range []int{1, 2, 8} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		done := make(chan error, 1)
		go func() {
			_, err := WriteMRT(&failingWriter{limit: 50_000}, in.Graph, vps, prefixOf, 1700000000)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errWriteFailed) {
				t.Errorf("GOMAXPROCS=%d: WriteMRT returned %v, want the writer's error", procs, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("GOMAXPROCS=%d: WriteMRT hangs after its writer failed", procs)
		}
	}
}

// Both folds against one walk: the RIB that WriteMRT writes reads back
// with one entry per walked path, and the links those AS paths cross are
// exactly the links of Collect's graph.
func TestMRTOnGeneratedView(t *testing.T) {
	in, vps := testWorld(t, 0.01425, 6)
	key := func(p []astopo.ASN) string { return fmt.Sprint(p) }
	var (
		mu     sync.Mutex
		walked = map[string]int{}
	)
	err := walk(in.Graph, vps, func(int) func(int, [][]astopo.ASN) error {
		return func(_ int, paths [][]astopo.ASN) error {
			mu.Lock()
			defer mu.Unlock()
			for _, p := range paths {
				if p != nil {
					walked[key(p)]++
				}
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteMRT(&buf, in.Graph, vps, planPrefixOf(t, in), 1700000000)
	if err != nil {
		t.Fatal(err)
	}
	rib, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rib.Entries) != n {
		t.Fatalf("entries = %d, WriteMRT reported %d", len(rib.Entries), n)
	}
	crossed := map[uint64]bool{}
	for _, e := range rib.Entries {
		walked[key(e.ASPath)]--
		for i := 1; i < len(e.ASPath); i++ {
			crossed[astopo.PairKey(e.ASPath[i-1], e.ASPath[i])] = true
		}
	}
	for k, c := range walked {
		if c != 0 {
			t.Fatalf("path multiset mismatch at %s (%+d)", k, c)
		}
	}
	feed, err := Collect(in.Graph, vps)
	if err != nil {
		t.Fatal(err)
	}
	if len(crossed) != feed.NumLinks() {
		t.Errorf("RIB paths cross %d links, feed graph has %d", len(crossed), feed.NumLinks())
	}
	for _, l := range feed.Links() {
		if !crossed[astopo.PairKey(l.A, l.B)] {
			t.Errorf("feed link %v crossed by no RIB path", l)
		}
	}
}
