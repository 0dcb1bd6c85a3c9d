package mavlink_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dronedse/faultx"
	"dronedse/mavlink"
)

// FuzzParser fuzzes the streaming decoder with arbitrary bytes pushed whole
// and split at an arbitrary boundary. Neither may panic; each parser's
// Complete counts exactly the frames it returned, no frame exceeds the wire
// maximum, every pushed byte is framed, discarded or still buffered, and
// the split changes none of the decoded frames.
func FuzzParser(f *testing.F) {
	var clean []byte
	for _, c := range heartbeatStream(f, 8) {
		clean = append(clean, c...)
	}
	f.Add(clean, uint16(0))
	f.Add(clean, uint16(13)) // inside the second frame's header
	f.Add(clean[:len(clean)-3], uint16(40))
	// Radio-damaged telemetry, as the lossy-link corpus produces it.
	for seed := int64(1); seed <= 3; seed++ {
		link := faultx.NewLossyLink(seed)
		link.DropProb, link.CorruptProb = 0.15, 0.25
		link.DupProb, link.TruncProb, link.ReorderProb = 0.1, 0.2, 0.1
		var lossy []byte
		for _, c := range heartbeatStream(f, 12) {
			lossy = append(lossy, link.Transmit(c)...)
		}
		f.Add(append(lossy, link.Flush()...), uint16(seed*29))
	}
	// Noise salted with magic bytes: frames that start and never finish.
	r := rand.New(rand.NewSource(7))
	noise := make([]byte, 700)
	r.Read(noise)
	for i := 0; i < len(noise); i += 97 {
		noise[i] = mavlink.Magic
	}
	f.Add(noise, uint16(350))
	f.Add([]byte{mavlink.Magic, 0xFF}, uint16(1)) // a maximum-length claim
	f.Add([]byte(`{"seed": 1, "max_seconds": 1e9}`), uint16(5))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var whole, split mavlink.Parser
		want := whole.Push(data)
		k := int(cut) % (len(data) + 1)
		got := split.Push(data[:k])
		got = append(got, split.Push(data[k:])...)
		for _, c := range []struct {
			name   string
			p      *mavlink.Parser
			frames []mavlink.Frame
		}{{"whole", &whole, want}, {"split", &split, got}} {
			if c.p.Complete != len(c.frames) {
				t.Fatalf("%s: Complete = %d, returned %d frames", c.name, c.p.Complete, len(c.frames))
			}
			framed := 0
			for _, fr := range c.frames {
				if len(fr.Payload) > mavlink.MaxPayload {
					t.Fatalf("%s: %d-byte payload exceeds the wire maximum %d", c.name, len(fr.Payload), mavlink.MaxPayload)
				}
				framed += 8 + len(fr.Payload)
			}
			if framed+c.p.Discarded+c.p.BufferedBytes() != len(data) {
				t.Fatalf("%s: framed %d + discarded %d + buffered %d != pushed %d",
					c.name, framed, c.p.Discarded, c.p.BufferedBytes(), len(data))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("split at %d decoded %d frames, whole %d", k, len(got), len(want))
		}
		for i := range want {
			a, b := want[i], got[i]
			if a.Seq != b.Seq || a.SysID != b.SysID || a.CompID != b.CompID || a.MsgID != b.MsgID || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("split at %d changed frame %d", k, i)
			}
		}
	})
}
