package microarch

import "testing"

// TestPrefetchAsymmetry quantifies the Figure 1 design question: a cheap
// general-purpose stream prefetcher speeds the regular inner-loop workload
// noticeably while barely moving the pointer-chasing SLAM workload.
func TestPrefetchAsymmetry(t *testing.T) {
	ap := RunPrefetchAblation(func() Workload { return NewAutopilotWorkload(1) }, 30000)
	sl := RunPrefetchAblation(func() Workload { return NewSLAMWorkload(2) }, 30000)

	if s := ap.Speedup(); s < 1.08 {
		t.Errorf("autopilot prefetch speedup = %.3f, strided walks should benefit", s)
	}
	if s := sl.Speedup(); s > 1.06 {
		t.Errorf("SLAM prefetch speedup = %.3f, pointer chasing should not benefit", s)
	}
	if ap.Speedup() <= sl.Speedup() {
		t.Error("asymmetry inverted")
	}
	if ap.PrefetchesIssued == 0 {
		t.Error("no prefetches issued for the streaming workload")
	}
}

// prefetched returns the line addresses onMiss asks the core to fill.
func prefetched(p *StreamPrefetcher, line uint64) []uint64 {
	var out []uint64
	for i, n := 1, p.onMiss(line); i <= n; i++ {
		out = append(out, line+uint64(i))
	}
	return out
}

func TestStreamDetection(t *testing.T) {
	p := NewStreamPrefetcher()
	// Random lines: no stream, no prefetches.
	for _, l := range []uint64{10, 500, 7, 9000} {
		if got := prefetched(p, l); len(got) != 0 {
			t.Errorf("random miss %d prefetched %v", l, got)
		}
	}
	// Sequential lines confirm a stream.
	p.onMiss(100)
	got := prefetched(p, 101)
	if len(got) != 2 || got[0] != 102 || got[1] != 103 {
		t.Errorf("stream prefetch = %v, want [102 103]", got)
	}
	// Stride-2 streams (the autopilot's 128-byte stride) also confirm.
	p2 := NewStreamPrefetcher()
	p2.onMiss(200)
	if got := prefetched(p2, 202); len(got) == 0 {
		t.Error("stride-2 stream not detected")
	}
}

func TestPrefetcherDoesNotChangeCorrectness(t *testing.T) {
	// Same instruction count either way; only cycles differ.
	a := RunPrefetchAblation(func() Workload { return NewAutopilotWorkload(5) }, 5000)
	if a.With.Instructions != a.Without.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", a.With.Instructions, a.Without.Instructions)
	}
	if a.With.IPC < a.Without.IPC {
		t.Error("prefetching slowed the streaming workload down")
	}
}
