package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flatnet/internal/population"
	"flatnet/internal/topogen"
)

// buildWorld assembles a small world: two internets, one of them with a
// population model.
func buildWorld(t testing.TB) *World {
	t.Helper()
	const scale = 0.00855 // ≈600 ASes under true-scale presets (1.0 = 69,488)
	in, err := topogen.Generate(topogen.Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	in15, err := topogen.Generate(topogen.Internet2015(scale))
	if err != nil {
		t.Fatal(err)
	}
	return &World{
		Scale:     scale,
		Internets: map[int]*topogen.Internet{2020: in, 2015: in15},
		Pops:      map[int]*population.Model{2020: population.Build(in, 1.1)},
	}
}

func encode(t testing.TB, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load reads raw through the one read path — newReader, then Verify, which
// checksums every section.
func load(raw []byte) (*Reader, error) {
	r, err := newReader(raw, nil)
	if err != nil {
		return nil, err
	}
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return r, nil
}

// served gathers everything a verified Reader serves into a World.
func served(r *Reader) *World {
	return &World{Scale: r.scale, Internets: r.internets, Pops: r.pops}
}

func mustLoad(t *testing.T, raw []byte) *World {
	t.Helper()
	r, err := load(raw)
	if err != nil {
		t.Fatal(err)
	}
	return served(r)
}

// checkInternetEqual compares two internets through the public surface:
// spec, links, tier sets, named networks, IXPs, and every AS's metadata.
func checkInternetEqual(t *testing.T, year int, got, want *topogen.Internet) {
	t.Helper()
	if got == nil {
		t.Fatalf("no %d internet after round trip", year)
	}
	if !reflect.DeepEqual(got.Spec, want.Spec) {
		t.Fatalf("%d spec differs", year)
	}
	if !slices.Equal(got.Graph.Links(), want.Graph.Links()) {
		t.Fatalf("%d links differ", year)
	}
	if !reflect.DeepEqual(got.Tier1, want.Tier1) || !reflect.DeepEqual(got.Tier2, want.Tier2) {
		t.Fatalf("%d tier sets differ after round trip", year)
	}
	if !reflect.DeepEqual(got.Clouds, want.Clouds) || !reflect.DeepEqual(got.Hypergiants, want.Hypergiants) {
		t.Fatalf("%d named networks differ after round trip", year)
	}
	if len(got.IXPs) != len(want.IXPs) {
		t.Fatalf("%d has %d IXPs, want %d", year, len(got.IXPs), len(want.IXPs))
	}
	for i := range got.IXPs {
		if got.IXPs[i].City != want.IXPs[i].City || !slices.Equal(got.IXPs[i].Members, want.IXPs[i].Members) {
			t.Fatalf("%d IXP %d differs after round trip", year, i)
		}
	}
	n := got.Graph.NumASes()
	if n != want.Graph.NumASes() {
		t.Fatalf("%d has %d ASes, want %d", year, n, want.Graph.NumASes())
	}
	for i := 0; i < n; i++ {
		if got.ClassAt(i) != want.ClassAt(i) || got.HomeCityAt(i) != want.HomeCityAt(i) ||
			got.NameAt(i) != want.NameAt(i) || !slices.Equal(got.PoPsAt(i), want.PoPsAt(i)) {
			t.Fatalf("%d AS index %d metadata differs after round trip", year, i)
		}
	}
}

func checkWorldEqual(t *testing.T, got, w *World) {
	t.Helper()
	if got.Scale != w.Scale {
		t.Fatalf("scale %v, want %v", got.Scale, w.Scale)
	}
	for year, in := range w.Internets {
		checkInternetEqual(t, year, got.Internets[year], in)
	}
	// Population: entries and the exact float total must survive.
	gotE, gotTotal := got.Pops[2020].Snapshot()
	wantE, wantTotal := w.Pops[2020].Snapshot()
	if !slices.Equal(gotE, wantE) {
		t.Fatal("population entries differ")
	}
	if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
		t.Fatalf("population total %x differs from %x (must be bit-exact)",
			math.Float64bits(gotTotal), math.Float64bits(wantTotal))
	}
}

func TestRoundTrip(t *testing.T) {
	w := buildWorld(t)
	checkWorldEqual(t, mustLoad(t, encode(t, w)), w)
}

// The mmap-backed Reader must serve the world it was written from.
func TestOpenReader(t *testing.T) {
	w := buildWorld(t)
	path := t.TempDir() + "/world.snap"
	if err := WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Scale() != w.Scale {
		t.Fatalf("scale %v, want %v", r.Scale(), w.Scale)
	}
	if got, want := r.Years(), []int{2015, 2020}; !slices.Equal(got, want) {
		t.Fatalf("years %v, want %v", got, want)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	checkWorldEqual(t, served(r), w)
}

// Equal worlds must produce identical bytes: nothing about map iteration
// order or pointer identity may leak into the encoding.
func TestDeterministicEncoding(t *testing.T) {
	w := buildWorld(t)
	a := encode(t, w)
	b := encode(t, w)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same world differ")
	}
	// And an encode of the decode must reproduce the original bytes.
	c := encode(t, mustLoad(t, a))
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded world changed the bytes")
	}
}

// reseal recomputes the header CRC after a deliberate patch, so tests
// exercise the structural checks rather than the checksum.
func reseal(raw []byte) []byte {
	out := bytes.Clone(raw)
	n := int(binary.LittleEndian.Uint32(out[20:24]))
	end := v2HeaderLen + v2EntryLen*n
	binary.LittleEndian.PutUint32(out[end:end+4], crc32.ChecksumIEEE(out[:end]))
	return out
}

// entry returns section i's table entry, for patching in place.
func entry(raw []byte, i int) []byte { return raw[v2HeaderLen+i*v2EntryLen:] }

// framingCorruptions breaks a container's framing one way per case; want is
// a fragment of the error parseTable must answer with. Every case applies
// to any container, world or delta.
var framingCorruptions = []struct {
	name   string
	want   string
	mutate func(raw []byte) []byte
}{
	{"bad magic", "bad magic", func(raw []byte) []byte { raw[0] = 'X'; return reseal(raw) }},
	{"v1 header", "version 1 is no longer read", func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[8:], 1)
		return reseal(raw)
	}},
	{"future version", "unsupported version", func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[8:], Version+1)
		return reseal(raw)
	}},
	{"header CRC byte", "header checksum", func(raw []byte) []byte {
		n := int(binary.LittleEndian.Uint32(raw[20:24]))
		raw[v2HeaderLen+v2EntryLen*n] ^= 0x01
		return raw
	}},
	{"section count past end", "do not fit", func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[20:], uint32(len(raw)))
		return raw
	}},
	{"section length past end", "outside", func(raw []byte) []byte {
		binary.LittleEndian.PutUint64(entry(raw, 0)[16:], uint64(len(raw)))
		return reseal(raw)
	}},
	{"unknown kind", "unknown section kind", func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(entry(raw, 0), 99)
		return reseal(raw)
	}},
	{"misaligned offset", "misaligned", func(raw []byte) []byte {
		e := entry(raw, 0)
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+4)
		return reseal(raw)
	}},
	{"nonzero padding", "nonzero padding", func(raw []byte) []byte {
		// Open an 8-byte gap before the first payload, with one nonzero
		// byte in it, and move every payload to make room.
		n := int(binary.LittleEndian.Uint32(raw[20:24]))
		for i := 0; i < n; i++ {
			e := entry(raw, i)
			binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+8)
		}
		first := int(binary.LittleEndian.Uint64(entry(raw, 0)[8:])) - 8
		gap := []byte{0, 0, 0, 1, 0, 0, 0, 0}
		return reseal(slices.Concat(raw[:first], gap, raw[first:]))
	}},
	{"trailing byte", "trailing bytes", func(raw []byte) []byte { return append(raw, 0) }},
	{"truncated header", "truncated", func(raw []byte) []byte { return raw[:v2HeaderLen+3] }},
	{"truncated payload", "outside", func(raw []byte) []byte { return raw[:len(raw)-1] }},
}

// Every framing corruption is refused, for the same reason, by every reader
// of both kinds of container: Open, DecodeDelta and ReadInfo all frame
// through parseTable.
func TestCorruptionRejected(t *testing.T) {
	_, d := buildDelta(t)
	files := []struct {
		name string
		raw  []byte
	}{
		{"world", encode(t, buildWorld(t))},
		{"delta", encodeDeltaBytes(t, d)},
	}
	dir := t.TempDir()
	for _, f := range files {
		for _, c := range framingCorruptions {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				bad := c.mutate(bytes.Clone(f.raw))
				path := filepath.Join(dir, "bad")
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				_, openErr := Open(path)
				_, deltaErr := DecodeDelta(bad)
				_, infoErr := ReadInfo(bad)
				for reader, err := range map[string]error{"Open": openErr, "DecodeDelta": deltaErr, "ReadInfo": infoErr} {
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Errorf("%s: err = %v, want one containing %q", reader, err, c.want)
					}
				}
			})
		}
	}
}

// Any single-byte corruption must be caught: the header CRC covers the
// section table, padding gaps must be zero, and Verify checks the payload
// CRCs that the zero-copy open path skips.
func TestVerifyDetectsCorruption(t *testing.T) {
	w := buildWorld(t)
	raw := encode(t, w)
	dir := t.TempDir()
	stride := len(raw) / 97
	for off := 0; off < len(raw); off += stride {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x40
		path := dir + "/bad.snap"
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			continue // structurally rejected at open — also fine
		}
		err = r.Verify()
		r.Close()
		if err == nil {
			t.Fatalf("flipping byte %d of %d survived Open+Verify", off, len(raw))
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	raw := encode(t, buildWorld(t))
	for _, n := range []int{0, 1, 7, 8, 23, 24, len(raw) / 3, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, err := load(raw[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes was not detected", n, len(raw))
		}
		if _, err := ReadInfo(raw[:n]); err == nil {
			t.Fatalf("ReadInfo accepted a truncation to %d of %d bytes", n, len(raw))
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	raw := encode(t, buildWorld(t))
	bad := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(bad[8:12], Version+1)
	bad = reseal(bad)
	_, err := load(bad)
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("future version accepted (err=%v)", err)
	}
	if _, err := ReadInfo(bad); err == nil {
		t.Fatal("ReadInfo accepted a future version")
	}
}

// A kind no build ever wrote, and the three retired kinds an older build
// wrote (plan, rdns, traces), are refused by every reader before any
// section is read: an old file is never half-read.
func TestUnknownSectionKindRejected(t *testing.T) {
	for _, c := range []struct {
		kind sectKind
		want []string
	}{
		{99, []string{"unknown section kind 99"}},
		{17, []string{"retired plan section (kind 17)", "rebuild the snapshot"}},
		{18, []string{"retired rdns section (kind 18)", "rebuild the snapshot"}},
		{19, []string{"retired traces section (kind 19)", "rebuild the snapshot"}},
	} {
		var buf bytes.Buffer
		if err := writeSections(&buf, 1.0, []v2sect{{kind: c.kind, year: 2020, chunks: [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}}}}); err != nil {
			t.Fatal(err)
		}
		_, loadErr := load(buf.Bytes())
		_, infoErr := ReadInfo(buf.Bytes())
		for reader, err := range map[string]error{"load": loadErr, "ReadInfo": infoErr} {
			for _, want := range c.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("kind %d: %s err = %v, want one containing %q", c.kind, reader, err, want)
				}
			}
		}
	}
}

func TestReadInfo(t *testing.T) {
	w := buildWorld(t)
	raw := encode(t, w)
	info, err := ReadInfo(raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version || info.Scale != w.Scale {
		t.Fatalf("info header = %+v", info)
	}
	// 14 topology sections per internet + 2 population columns.
	if len(info.Sections) != 14*2+2 {
		t.Fatalf("got %d sections, want %d", len(info.Sections), 14*2+2)
	}
	counts := map[string]int{}
	var total uint64
	for _, s := range info.Sections {
		counts[s.Label]++
		total += s.Length
	}
	for label, want := range map[string]int{
		"world": 2, "nodes": 2, "adjacency-arena": 2, "link-ends": 2,
		"pop-types": 1, "pop-users": 1,
	} {
		if counts[label] != want {
			t.Fatalf("%d %s sections, want %d (all: %v)", counts[label], label, want, counts)
		}
	}
	// Header, table, payloads, and up to 7 padding bytes per section must
	// account for every byte.
	headerEnd := uint64(v2HeaderLen + v2EntryLen*len(info.Sections) + 4)
	if sum := headerEnd + total; sum > uint64(len(raw)) || uint64(len(raw))-sum > 8*uint64(len(info.Sections)) {
		t.Fatalf("section lengths sum to %d of %d file bytes", sum, len(raw))
	}
}

func TestWriteReadFile(t *testing.T) {
	w := buildWorld(t)
	path := t.TempDir() + "/world.snap"
	if err := WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	got := served(r)
	checkWorldEqual(t, got, w)
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), disk) {
		t.Fatal("re-encoding the file's world changed the bytes")
	}
}

// v1Header is a version 1 file's fixed header: magic, version 1, scale,
// section count. No v1 payload follows — every entry point must refuse the
// file on the header alone.
func v1Header() []byte {
	hdr := append([]byte(nil), magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(0.02))
	return binary.LittleEndian.AppendUint32(hdr, 5)
}

// Version 1 files are no longer read: Open, DecodeDelta and ReadInfo must
// all refuse one with the same explicit error naming the version and the
// way out, not a generic "unsupported version" or a truncation complaint.
func TestV1SnapshotRefused(t *testing.T) {
	hdr := v1Header()
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(path)
	_, deltaErr := DecodeDelta(hdr)
	_, infoErr := ReadInfo(hdr)
	for name, err := range map[string]error{"Open": openErr, "DecodeDelta": deltaErr, "ReadInfo": infoErr} {
		if err == nil || !strings.Contains(err.Error(), "version 1 is no longer read") ||
			!strings.Contains(err.Error(), "flatnet snapshot build") {
			t.Errorf("%s on a v1 header: err = %v, want the explicit version 1 error", name, err)
		}
	}
}
