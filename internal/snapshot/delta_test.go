package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flatnet/internal/cluster"
	"flatnet/internal/topogen"
)

const deltaTestScale = 0.012

// buildDelta generates an adjacent-year pair and the Delta connecting
// them, with real world hashes.
func buildDelta(t testing.TB) (*topogen.Internet, *Delta) {
	t.Helper()
	base, err := topogen.GenerateYear(2016, deltaTestScale)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topogen.EvolveStep(base, 2017, deltaTestScale)
	if err != nil {
		t.Fatal(err)
	}
	next, err := topogen.ApplyDelta(base, g)
	if err != nil {
		t.Fatal(err)
	}
	return base, &Delta{
		FromYear:   g.FromYear,
		ToYear:     g.ToYear,
		Scale:      g.Scale,
		BaseHash:   cluster.DatasetHash(base.Graph, base.Tier1, base.Tier2),
		ResultHash: cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2),
		Growth:     g,
	}
}

func encodeDeltaBytes(t testing.TB, d *Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeltaRoundTrip(t *testing.T) {
	base, want := buildDelta(t)
	raw := encodeDeltaBytes(t, want)
	got, err := DecodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded delta differs from encoded")
	}
	// The decoded growth must still apply and produce the promised world.
	next, err := topogen.ApplyDelta(base, got.Growth)
	if err != nil {
		t.Fatal(err)
	}
	if h := cluster.DatasetHash(next.Graph, next.Tier1, next.Tier2); h != got.ResultHash {
		t.Fatalf("applied world hash %s != recorded result hash %s", h[:16], got.ResultHash[:16])
	}
	// Two encodes are byte-identical (determinism).
	if !bytes.Equal(raw, encodeDeltaBytes(t, want)) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDeltaFileRoundTrip(t *testing.T) {
	_, want := buildDelta(t)
	path := filepath.Join(t.TempDir(), "step.snapd")
	if err := WriteDeltaFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip differs")
	}
}

func TestDeltaInfoLineage(t *testing.T) {
	_, d := buildDelta(t)
	raw := encodeDeltaBytes(t, d)
	info, err := ReadInfo(raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta == nil {
		t.Fatal("ReadInfo on a delta file reported no lineage")
	}
	if info.Delta.FromYear != d.FromYear || info.Delta.ToYear != d.ToYear {
		t.Fatalf("lineage years %d→%d, want %d→%d", info.Delta.FromYear, info.Delta.ToYear, d.FromYear, d.ToYear)
	}
	if info.Delta.BaseHash != d.BaseHash || info.Delta.ResultHash != d.ResultHash {
		t.Fatal("lineage hashes differ from encoded")
	}
	if len(info.Sections) != 1 || info.Sections[0].Label != "delta" {
		t.Fatalf("sections = %+v, want one delta section", info.Sections)
	}
}

func TestDeltaFailsClosed(t *testing.T) {
	_, d := buildDelta(t)
	raw := encodeDeltaBytes(t, d)

	t.Run("world reader rejects delta", func(t *testing.T) {
		if _, err := newReader(raw, nil); !errors.Is(err, ErrIsDelta) {
			t.Fatalf("newReader on delta: %v, want ErrIsDelta", err)
		}
		path := filepath.Join(t.TempDir(), "step.snapd")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrIsDelta) {
			t.Fatalf("Open on delta: %v, want ErrIsDelta", err)
		}
	})
	t.Run("delta reader rejects world", func(t *testing.T) {
		world := encode(t, buildWorld(t))
		if _, err := DecodeDelta(world); err == nil || !strings.Contains(err.Error(), "delta") {
			t.Fatalf("DecodeDelta on world snapshot: %v", err)
		}
	})
	t.Run("payload corruption", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[len(bad)-5] ^= 0xff
		if _, err := DecodeDelta(bad); err == nil {
			t.Fatal("corrupted payload decoded")
		}
	})
	t.Run("header corruption", func(t *testing.T) {
		bad := bytes.Clone(raw)
		bad[v2HeaderLen+2] ^= 0xff
		if _, err := DecodeDelta(bad); err == nil {
			t.Fatal("corrupted header decoded")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{4, 23, v2HeaderLen + 3, len(raw) / 2, len(raw) - 1} {
			if _, err := DecodeDelta(raw[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeDelta(append(bytes.Clone(raw), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("mispaired header", func(t *testing.T) {
		bad := *d
		bad.FromYear = 2019
		var buf bytes.Buffer
		if err := EncodeDelta(&buf, &bad); err == nil {
			t.Fatal("encode accepted header/payload year mismatch")
		}
	})
}

// FuzzDeltaDecode mirrors FuzzSnapshotDecode for the delta codec: never
// panic, never hang, errors for everything but a valid delta.
func FuzzDeltaDecode(f *testing.F) {
	_, d := buildDelta(f)
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, d); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	for _, off := range []int{0, 9, 21, 25, 40, len(raw) / 2, len(raw) - 3} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	f.Add(raw[:24])
	f.Add(raw[:len(raw)/3])
	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := DecodeDelta(b); err == nil && d == nil {
			t.Fatal("DecodeDelta returned neither delta nor error")
		}
		if info, err := ReadInfo(b); err == nil && info == nil {
			t.Fatal("ReadInfo returned neither info nor error")
		}
	})
}
