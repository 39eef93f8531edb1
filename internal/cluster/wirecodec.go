package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary wire frames: the only encoding of the cluster's shard responses.
// A full-scale sweep moves 69,488 counts per query; the frame carries them
// in one to two bytes per count (zig-zag varint deltas: sweep counts are
// large but near each other, so deltas are small) and decodes by appending
// nothing — the coordinator streams values straight into its preallocated
// merge slice.
//
// Frame layout (all fixed-width fields little-endian, matching
// internal/snapshot):
//
//	magic   [8]byte  "FLATWIRE"
//	version uint32   (WireVersion)
//	kind    uint8    (1 = counts, 2 = fracs)
//	n       uint32   element count
//	payload counts: n zig-zag varints, value[0] then successive deltas
//	        fracs:  n × 8 bytes, raw IEEE-754 float64 bits
//	crc32   uint32   IEEE, over every byte before it
//
// A shard response body is a sequence of such frames, each behind a 4-byte
// length prefix (AppendFramePrefix / NextFrame), one per requested range.
//
// The decoder is fail-closed like the snapshot codec: bad magic, unknown
// version, wrong kind, a count that disagrees with the caller's expected
// shard width, a CRC mismatch, a truncated payload, or trailing bytes all
// return an error and never panic — frames arrive over the network from
// peers the coordinator does not control. Anything else a worker might
// answer (a JSON body, an error page) fails the same checks and is handled
// like any other failed attempt.

// WireContentType is the media type of a shard response body.
const WireContentType = "application/x-flatnet-wire"

// WireVersion is the frame header's version. A worker joins only when its
// JoinRequest.Wire equals the coordinator's, so version skew is refused at
// registration rather than discovered per shard.
const WireVersion = 1

const (
	wireKindCounts = 1
	wireKindFracs  = 2

	wireHeaderLen  = 8 + 4 + 1 + 4 // magic + version + kind + n
	wireTrailerLen = 4             // crc32
)

var wireMagic = [8]byte{'F', 'L', 'A', 'T', 'W', 'I', 'R', 'E'}

// wireHeader appends the fixed frame header.
func wireHeader(dst []byte, kind uint8, n int) []byte {
	dst = append(dst, wireMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, WireVersion)
	dst = append(dst, kind)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendCounts appends a counts frame to dst and returns the extended
// slice. Counts are zig-zag varint encoded as first-value-then-deltas; the
// encoder needs no scratch beyond dst itself, so callers reusing a pooled
// buffer encode allocation-free once the buffer reaches its high-water
// size.
func AppendCounts(dst []byte, counts []int) []byte {
	if need := wireHeaderLen + len(counts)*binary.MaxVarintLen64 + wireTrailerLen; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	dst = wireHeader(dst, wireKindCounts, len(counts))
	prev := int64(0)
	for _, c := range counts {
		d := int64(c) - prev
		dst = binary.AppendUvarint(dst, uint64(d<<1)^uint64(d>>63))
		prev = int64(c)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// AppendFracs appends a fracs frame to dst: raw little-endian float64 bits,
// so the decoded values are bit-for-bit the floats the worker computed —
// the property that keeps cluster leak aggregates byte-identical to the
// single-process answer.
func AppendFracs(dst []byte, fracs []float64) []byte {
	if need := wireHeaderLen + len(fracs)*8 + wireTrailerLen; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	dst = wireHeader(dst, wireKindFracs, len(fracs))
	for _, f := range fracs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// checkWireHeader validates everything kind-independent — length, magic,
// version, kind, element count, CRC — and returns the payload bytes.
func checkWireHeader(frame []byte, kind uint8, n int) ([]byte, error) {
	if len(frame) < wireHeaderLen+wireTrailerLen {
		return nil, fmt.Errorf("cluster: wire: frame of %d bytes is shorter than the %d-byte envelope", len(frame), wireHeaderLen+wireTrailerLen)
	}
	if [8]byte(frame[:8]) != wireMagic {
		return nil, fmt.Errorf("cluster: wire: bad magic %q", frame[:8])
	}
	if v := binary.LittleEndian.Uint32(frame[8:12]); v != WireVersion {
		return nil, fmt.Errorf("cluster: wire: unsupported version %d (this build speaks %d)", v, WireVersion)
	}
	if k := frame[12]; k != kind {
		return nil, fmt.Errorf("cluster: wire: payload kind %d, want %d", k, kind)
	}
	if c := binary.LittleEndian.Uint32(frame[13:17]); int64(c) != int64(n) {
		return nil, fmt.Errorf("cluster: wire: frame carries %d elements, shard expects %d", c, n)
	}
	body := frame[:len(frame)-wireTrailerLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(frame[len(frame)-wireTrailerLen:]); got != want {
		return nil, fmt.Errorf("cluster: wire: CRC mismatch (frame %08x, computed %08x)", want, got)
	}
	return body[wireHeaderLen:], nil
}

// CheckCounts validates a counts frame of exactly n elements — envelope,
// CRC, and varint payload shape — without writing anywhere. A frame that
// passes cannot fail DecodeCountsInto, which is what lets the coordinator
// validate a response before the merge CAS and decode straight into the
// shared output slice after winning it.
func CheckCounts(frame []byte, n int) error {
	payload, err := checkWireHeader(frame, wireKindCounts, n)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		_, w := binary.Uvarint(payload)
		if w <= 0 {
			return fmt.Errorf("cluster: wire: truncated varint payload at element %d of %d", i, n)
		}
		payload = payload[w:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("cluster: wire: %d trailing payload bytes after %d elements", len(payload), n)
	}
	return nil
}

// DecodeCountsInto decodes a counts frame into dst, which must have
// exactly the frame's element count — the caller's preallocated merge
// slice, no intermediate vector. Fail-closed: any malformed input returns
// an error with dst contents unspecified.
func DecodeCountsInto(dst []int, frame []byte) error {
	payload, err := checkWireHeader(frame, wireKindCounts, len(dst))
	if err != nil {
		return err
	}
	prev := int64(0)
	for i := range dst {
		zz, w := binary.Uvarint(payload)
		if w <= 0 {
			return fmt.Errorf("cluster: wire: truncated varint payload at element %d of %d", i, len(dst))
		}
		payload = payload[w:]
		prev += int64(zz>>1) ^ -int64(zz&1)
		dst[i] = int(prev)
	}
	if len(payload) != 0 {
		return fmt.Errorf("cluster: wire: %d trailing payload bytes after %d elements", len(payload), len(dst))
	}
	return nil
}

// CheckFracs validates a fracs frame of exactly n elements without
// writing anywhere; see CheckCounts for the contract.
func CheckFracs(frame []byte, n int) error {
	payload, err := checkWireHeader(frame, wireKindFracs, n)
	if err != nil {
		return err
	}
	if len(payload) != n*8 {
		return fmt.Errorf("cluster: wire: fracs payload of %d bytes, want %d", len(payload), n*8)
	}
	return nil
}

// DecodeFracsInto decodes a fracs frame into dst, which must have exactly
// the frame's element count.
func DecodeFracsInto(dst []float64, frame []byte) error {
	payload, err := checkWireHeader(frame, wireKindFracs, len(dst))
	if err != nil {
		return err
	}
	if len(payload) != len(dst)*8 {
		return fmt.Errorf("cluster: wire: fracs payload of %d bytes, want %d", len(payload), len(dst)*8)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return nil
}

// AppendFramePrefix appends the 4-byte little-endian length prefix that
// separates frames in a shard response body. The body is a plain
// concatenation of prefixed frames — no outer magic or checksum, because
// every member frame carries its own envelope and CRC.
func AppendFramePrefix(dst []byte, frameLen int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(frameLen))
}

// NextFrame splits the first length-prefixed frame off a shard response
// body, returning the frame and the remaining bytes. Fail-closed
// like the frame decoders: a truncated prefix or a length that overruns
// the buffer is an error, never a panic. The frame's own contents are
// validated separately (CheckCounts); this walks only the envelope.
func NextFrame(b []byte) (frame, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("cluster: wire: frame prefix of %d bytes, want 4", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("cluster: wire: frame length %d overruns the %d remaining bytes", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}
