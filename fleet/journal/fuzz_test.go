package journal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// wireProbes are the request bodies that once crashed or confused fleetd
// (an out-of-memory horizon, a NaN wind, a negative capacity, a misspelled
// field); FuzzScan seeds with them framed the way fleetd journals a SUBMIT.
var wireProbes = []string{
	`{"id":1,"spec":{"seed":1,"max_seconds":1e9}}`,
	`{"id":2,"spec":{"seed":1,"wind_mean_ms":NaN}}`,
	`{"id":3,"spec":{"seed":1,"battery_capacity_mah":-3000}}`,
	`{"id":4,"spec":{"seed":1,"max_second":5}}`,
}

// FuzzScan fuzzes replay: whatever the bytes, Scan's clean prefix lies
// inside the input, and framing the records it returns reproduces that
// prefix byte for byte, so truncating to it loses no intact record and
// keeps no torn one.
func FuzzScan(f *testing.F) {
	var stream []byte
	for _, r := range sampleRecords() {
		stream, _ = frame(stream, r.Kind, r.Payload)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-1])     // torn body
	f.Add(stream[:headerSize+3])      // header and a partial body
	f.Add(append(stream, 0xFF, 0x00)) // torn header
	flipped := bytes.Clone(stream)
	flipped[headerSize+2] ^= 0x40 // CRC mismatch in the first record
	f.Add(flipped)
	absurd := bytes.Clone(stream)
	binary.LittleEndian.PutUint32(absurd, MaxRecord+1)
	f.Add(absurd)
	f.Add([]byte{})
	var probes []byte
	for _, p := range wireProbes {
		probes, _ = frame(probes, 1, []byte(p))
		f.Add([]byte(p))
	}
	f.Add(probes)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean := Scan(data)
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [0, %d]", clean, len(data))
		}
		var re []byte
		for _, r := range recs {
			var err error
			if re, err = frame(re, r.Kind, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, data[:clean]) {
			t.Fatalf("re-framed %d records (%d bytes) != the %d-byte clean prefix", len(recs), len(re), clean)
		}
	})
}
