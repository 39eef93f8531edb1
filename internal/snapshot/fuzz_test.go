package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode throws arbitrary bytes at the world reader (newReader,
// then Verify, which checksums every section) and the info reader. The
// contract under fuzz is purely "never panic, never hang": a valid world
// loads, everything else must come back as an error. Seeds cover a valid
// file, a refused version 1 header, and systematic one-byte corruptions
// and truncations of the valid file.
func FuzzSnapshotDecode(f *testing.F) {
	raw := encode(f, buildWorld(f))
	f.Add(raw)
	f.Add(v1Header())
	for _, off := range []int{0, 9, 21, 30, 40, len(raw) / 2, len(raw) - 3} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	f.Add(raw[:24])
	f.Add(raw[:len(raw)/3])
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := load(b); err == nil && r == nil {
			t.Fatal("load returned neither reader nor error")
		}
		if info, err := ReadInfo(b); err == nil && info == nil {
			t.Fatal("ReadInfo returned neither info nor error")
		}
	})
}
