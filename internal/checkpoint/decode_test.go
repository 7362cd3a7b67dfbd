package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// TestHugeCountRejected: a u32 element count patched to 0x7fffffff in an
// otherwise valid snapshot, CRC recomputed, is a decode error — never an
// allocation of the claimed size (which throws an unrecoverable runtime
// out-of-memory).
func TestHugeCountRejected(t *testing.T) {
	body, err := encodeBody(&Snapshot{Kind: KindSearch})
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into the empty body: kind (1), empty fingerprint (4) and
	// shard depth (8) precede the units count; the seven counters (56)
	// sit between the done count and the entries count.
	for name, off := range map[string]int{
		"units":     13,
		"done":      17,
		"entries":   17 + 4 + 7*8,
		"telemetry": 17 + 4 + 7*8 + 4,
	} {
		t.Run(name, func(t *testing.T) {
			patched := bytes.Clone(body)
			if got := binary.LittleEndian.Uint32(patched[off:]); got != 0 {
				t.Fatalf("offset %d holds %d, not the empty %s count", off, got, name)
			}
			binary.LittleEndian.PutUint32(patched[off:], 0x7fffffff)
			if _, err := decode(rawSnapshot(version, patched), "patched.rpck"); err == nil {
				t.Fatalf("a %s count of 0x7fffffff decoded without error", name)
			}
		})
	}
}

// FuzzRead: no snapshot file — whatever its version and body — may crash
// the reader, and whatever it accepts writes back and reads as the same
// snapshot. The header is framed with a correct CRC so the fuzzer's
// mutations reach the body decoder.
func FuzzRead(f *testing.F) {
	v4 := compatSnapshot()
	v4.Telemetry = []CounterSample{{Name: "repro_engine_nodes_total", Value: 48213}}
	body4, err := encodeBody(v4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(2), encodeBodyV2(compatSnapshot()))
	f.Add(uint16(3), encodeBodyV3(compatSnapshot()))
	f.Add(uint16(version), body4)
	f.Fuzz(func(t *testing.T, v uint16, body []byte) {
		s, err := decode(rawSnapshot(v, body), "fuzz.rpck")
		if err != nil {
			return
		}
		again, err := encodeBody(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		back, err := decode(rawSnapshot(version, again), "fuzz.rpck")
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip diverged:\n read %+v\nagain %+v", s, back)
		}
	})
}
