package population

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"flatnet/internal/topogen"
)

const sampleASPop = `# rank,AS,cc,users,pct-of-internet
1,AS4134,CN,340000000,7.5
2,4837,CN,200000000,4.4
3,AS9829,IN,150000000,3.3
`

func TestReadASPop(t *testing.T) {
	recs, err := ReadASPop(strings.NewReader(sampleASPop))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].AS != 4134 || recs[0].CC != "CN" || recs[0].Users != 340000000 {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[1].AS != 4837 {
		t.Error("bare ASN (no AS prefix) not accepted")
	}
}

func TestReadASPopErrors(t *testing.T) {
	cases := []string{
		"1,AS1,US,100\n",      // 4 fields
		"x,AS1,US,100,1\n",    // bad rank
		"1,ASx,US,100,1\n",    // bad ASN
		"1,AS1,US,many,1\n",   // bad users
		"1,AS1,US,100,lots\n", // bad pct
	}
	for _, in := range cases {
		if _, err := ReadASPop(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestASPopRoundTripAndExport(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.02138))
	if err != nil {
		t.Fatal(err)
	}
	m := Build(in, 1.1)
	recs := m.Export(nil)
	if len(recs) == 0 {
		t.Fatal("empty export")
	}
	// Ranked by users descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Users > recs[i-1].Users {
			t.Fatal("export not sorted by users")
		}
		if recs[i].Rank != i+1 {
			t.Fatalf("rank %d at position %d", recs[i].Rank, i)
		}
	}
	var pctSum float64
	for _, r := range recs {
		pctSum += r.PctInternet
	}
	if math.Abs(pctSum-100) > 0.1 {
		t.Errorf("percent column sums to %v", pctSum)
	}

	var buf bytes.Buffer
	if err := WriteASPop(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadASPop(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip %d records, want %d", len(back), len(recs))
	}
	// Rebuild a model from the wire format: shares must match the
	// original closely (users are written with %.0f precision).
	m2 := ModelFromASPop(back)
	for _, r := range recs[:50] {
		want := m.Share(r.AS)
		got := m2.Share(r.AS)
		if math.Abs(want-got) > 1e-6 {
			t.Errorf("AS%d share %v after round trip, want %v", r.AS, got, want)
		}
	}
}
