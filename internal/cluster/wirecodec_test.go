package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

func TestWireCountsRoundTrip(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{42},
		{-7, 0, 7},
		{1 << 40, -(1 << 40), 0, math.MaxInt32, math.MinInt32},
	}
	rng := rand.New(rand.NewSource(1))
	big := make([]int, 4096)
	for i := range big {
		// Shaped like real sweep counts: large values, small deltas.
		big[i] = 40000 + rng.Intn(30000)
	}
	cases = append(cases, big)

	for _, counts := range cases {
		frame := AppendCounts(nil, counts)
		if err := CheckCounts(frame, len(counts)); err != nil {
			t.Fatalf("CheckCounts(%d elems): %v", len(counts), err)
		}
		got := make([]int, len(counts))
		if err := DecodeCountsInto(got, frame); err != nil {
			t.Fatalf("DecodeCountsInto(%d elems): %v", len(counts), err)
		}
		for i := range counts {
			if got[i] != counts[i] {
				t.Fatalf("counts[%d] = %d, want %d", i, got[i], counts[i])
			}
		}
	}
}

func TestWireFracsRoundTrip(t *testing.T) {
	fracs := []float64{0, 1, 0.25, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -0.0}
	frame := AppendFracs(nil, fracs)
	if err := CheckFracs(frame, len(fracs)); err != nil {
		t.Fatalf("CheckFracs: %v", err)
	}
	got := make([]float64, len(fracs))
	if err := DecodeFracsInto(got, frame); err != nil {
		t.Fatalf("DecodeFracsInto: %v", err)
	}
	for i := range fracs {
		if math.Float64bits(got[i]) != math.Float64bits(fracs[i]) {
			t.Fatalf("fracs[%d] = %x, want %x (bits must round-trip exactly)", i, got[i], fracs[i])
		}
	}
	// NaN payload bits must survive too: aggregation downstream compares
	// byte-identity with the single-process answer.
	nan := []float64{math.Float64frombits(0x7ff8000000000001)}
	got1 := make([]float64, 1)
	if err := DecodeFracsInto(got1, AppendFracs(nil, nan)); err != nil {
		t.Fatalf("NaN round trip: %v", err)
	}
	if math.Float64bits(got1[0]) != 0x7ff8000000000001 {
		t.Fatalf("NaN bits = %x, want 7ff8000000000001", math.Float64bits(got1[0]))
	}
}

func TestWireAppendReusesBuffer(t *testing.T) {
	counts := []int{1, 2, 3, 500000, 499999}
	buf := AppendCounts(nil, counts)
	grown := cap(buf)
	buf2 := AppendCounts(buf[:0], counts)
	if &buf2[0] != &buf[:1][0] || cap(buf2) != grown {
		t.Fatalf("re-encode into a sized buffer reallocated (cap %d -> %d)", grown, cap(buf2))
	}
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	counts := []int{10, 20, 30}
	frame := AppendCounts(nil, counts)
	dst := make([]int, len(counts))

	corrupt := func(mutate func(f []byte) []byte) error {
		f := append([]byte(nil), frame...)
		return DecodeCountsInto(dst, mutate(f))
	}

	if err := corrupt(func(f []byte) []byte { return f[:wireHeaderLen] }); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if err := corrupt(func(f []byte) []byte { f[0] = 'X'; return f }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := corrupt(func(f []byte) []byte { binary.LittleEndian.PutUint32(f[8:], 99); return f }); err == nil {
		t.Fatal("unknown version accepted")
	}
	if err := corrupt(func(f []byte) []byte { f[12] = wireKindFracs; reseal(f); return f }); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if err := corrupt(func(f []byte) []byte { binary.LittleEndian.PutUint32(f[13:], 7); reseal(f); return f }); err == nil {
		t.Fatal("element-count mismatch accepted")
	}
	if err := corrupt(func(f []byte) []byte { f[wireHeaderLen] ^= 0x40; return f }); err == nil {
		t.Fatal("payload corruption accepted (CRC should catch it)")
	}
	if err := corrupt(func(f []byte) []byte { f[len(f)-1] ^= 0x01; return f }); err == nil {
		t.Fatal("CRC corruption accepted")
	}
	if err := corrupt(func(f []byte) []byte { f = append(f[:len(f)-wireTrailerLen], 0x00); reseal2(f); return f }); err == nil {
		t.Fatal("trailing payload bytes accepted")
	}
	// Short dst: frame says 3 elements, caller expects 2.
	if err := DecodeCountsInto(make([]int, 2), frame); err == nil {
		t.Fatal("dst length mismatch accepted")
	}
	if err := DecodeFracsInto(make([]float64, 3), frame); err == nil {
		t.Fatal("fracs decoder accepted a counts frame")
	}
}

// reseal recomputes the trailing CRC after a header mutation so the test
// reaches the check it targets instead of tripping on the checksum.
func reseal(f []byte) {
	binary.LittleEndian.PutUint32(f[len(f)-wireTrailerLen:], crc32.ChecksumIEEE(f[:len(f)-wireTrailerLen]))
}

// reseal2 appends a fresh CRC to a frame whose old trailer was repurposed
// as payload.
func reseal2(f []byte) {
	reseal(append(f, 0, 0, 0, 0))
}

func TestWireNextFrame(t *testing.T) {
	f1 := AppendCounts(nil, []int{1, 2, 3})
	f2 := AppendCounts(nil, []int{9})
	body := AppendFramePrefix(nil, len(f1))
	body = append(body, f1...)
	body = AppendFramePrefix(body, len(f2))
	body = append(body, f2...)
	got1, rest, err := NextFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, f1) {
		t.Fatal("first frame does not round-trip")
	}
	got2, rest, err := NextFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, f2) || len(rest) != 0 {
		t.Fatalf("second frame wrong or %d trailing bytes", len(rest))
	}
	if _, _, err := NextFrame([]byte{1, 2}); err == nil {
		t.Fatal("truncated prefix accepted")
	}
	if _, _, err := NextFrame(AppendFramePrefix(nil, 5)); err == nil {
		t.Fatal("overrunning frame length accepted")
	}
}

// FuzzWireDecode feeds arbitrary bytes to every decoder entry point. The
// wire is fail-closed: malformed input must error, never panic, and a
// frame that passes Check must then Decode without error.
func FuzzWireDecode(f *testing.F) {
	valid := AppendCounts(nil, []int{100, 105, 95, -3})
	f.Add(valid, 4)
	multi := AppendFramePrefix(nil, len(valid))
	multi = append(multi, valid...)
	f.Add(append(multi, multi...), 4) // two-frame multi-range body
	f.Add(AppendFracs(nil, []float64{0.5, 0.25}), 2)
	f.Add(valid[:len(valid)-3], 4)                     // truncated trailer
	f.Add(valid[:wireHeaderLen], 4)                    // header only
	f.Add([]byte("FLATWIREjunkjunkjunk"), 1)           // header-shaped garbage
	f.Add(append(append([]byte(nil), valid...), 1), 4) // trailing byte
	flipped := append([]byte(nil), valid...)
	flipped[wireHeaderLen] ^= 0xff
	f.Add(flipped, 4) // payload corruption
	f.Add([]byte{}, 0)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		n = int(uint(n) % (1 << 14))
		counts := make([]int, n)
		if CheckCounts(data, n) == nil {
			if err := DecodeCountsInto(counts, data); err != nil {
				t.Fatalf("CheckCounts passed but DecodeCountsInto failed: %v", err)
			}
			// A decoded frame must re-encode to something that decodes to
			// the same values (encoding is canonical; the input frame may
			// not be, e.g. non-minimal varints).
			again := make([]int, n)
			if err := DecodeCountsInto(again, AppendCounts(nil, counts)); err != nil {
				t.Fatalf("re-encode of decoded counts failed: %v", err)
			}
			for i := range counts {
				if again[i] != counts[i] {
					t.Fatalf("re-encode changed counts[%d]: %d -> %d", i, counts[i], again[i])
				}
			}
		} else {
			_ = DecodeCountsInto(counts, data) // must not panic
		}
		fracs := make([]float64, n)
		if CheckFracs(data, n) == nil {
			if err := DecodeFracsInto(fracs, data); err != nil {
				t.Fatalf("CheckFracs passed but DecodeFracsInto failed: %v", err)
			}
		} else {
			_ = DecodeFracsInto(fracs, data)
		}
		// The multi-range envelope walker is fail-closed too: it must
		// stop at the first bad prefix and never panic or loop.
		rest := data
		for len(rest) > 0 {
			frame, next, err := NextFrame(rest)
			if err != nil {
				break
			}
			_ = CheckCounts(frame, n)
			rest = next
		}
	})
}
