package microarch

// Prefetcher ablation: the paper's Figure 1 asks whether a drone chip
// should "accelerate tasks similar to other areas" or rely on
// general-purpose features. A next-N-line stream prefetcher is the
// cheapest general-purpose feature there is: it should erase most of the
// autopilot's L1 misses (strided filter-state walks) while doing little
// for SLAM's pointer-chasing — quantifying which workload class benefits
// from conventional microarchitecture.

// StreamPrefetcher issues next-line prefetches on L1 misses with simple
// stream detection: a miss within one line-stride of the previous miss
// confirms a stream and prefetches the next `Degree` lines.
type StreamPrefetcher struct {
	// Degree is how many lines ahead to prefetch once a stream confirms.
	Degree int

	lastMissLine uint64
	streaming    bool

	Issued uint64
}

// NewStreamPrefetcher returns a degree-2 prefetcher.
func NewStreamPrefetcher() *StreamPrefetcher { return &StreamPrefetcher{Degree: 2} }

// onMiss reacts to an L1 miss at the given line address and returns how
// many of the lines right after it to prefetch: Degree once a stream has
// confirmed, else 0.
func (p *StreamPrefetcher) onMiss(line uint64) int {
	last := p.lastMissLine
	p.lastMissLine = line
	if line == last+1 || line == last+2 {
		p.streaming = true
	} else if line != last {
		p.streaming = false
	}
	if !p.streaming {
		return 0
	}
	p.Issued += uint64(p.Degree)
	return p.Degree
}

// AttachPrefetcher equips a core's L1D with the stream prefetcher; the
// core's Load path consults it on every L1 miss.
func (c *Core) AttachPrefetcher(p *StreamPrefetcher) { c.prefetch = p }

// PrefetchAblation compares a workload's IPC with and without the stream
// prefetcher.
type PrefetchAblation struct {
	Without Metrics
	With    Metrics
	// PrefetchesIssued counts issued prefetch lines in the With run.
	PrefetchesIssued uint64
}

// Speedup is the IPC ratio With/Without.
func (a PrefetchAblation) Speedup() float64 {
	if a.Without.IPC == 0 {
		return 0
	}
	return a.With.IPC / a.Without.IPC
}

// RunPrefetchAblation measures one workload both ways. The factory must
// produce identical workloads (same seed) per call.
func RunPrefetchAblation(mk func() Workload, iters int) PrefetchAblation {
	var out PrefetchAblation
	out.Without = RunSolo(mk(), iters)

	c := NewCore()
	pf := NewStreamPrefetcher()
	c.AttachPrefetcher(pf)
	before := c.counters()
	mk().Burst(c, iters)
	out.With = diffMetrics(before, c.counters())
	out.PrefetchesIssued = pf.Issued
	return out
}
