package microarch

// Oracle tests for the flat-array cache and TLB: test-local reference
// implementations with the straightforward layout (per-set slices with a
// valid bit, a page→stamp map scanned for the LRU victim) are driven with
// the same seeded address streams as the real structures, and every access
// must agree on hit or miss. Geometries cover the degenerate shapes (one
// set, one way, a one-entry TLB) and every production size.

import (
	"math/rand"
	"testing"
)

// refCache is a set-associative LRU cache over [set][way] slices.
type refCache struct {
	sets, ways int
	lineShift  uint
	tags       [][]uint64
	valid      [][]bool
	lru        [][]uint64
	stamp      uint64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := sizeBytes / (ways * lineBytes)
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := &refCache{sets: sets, ways: ways, lineShift: shift}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

func (c *refCache) access(addr uint64) bool {
	c.stamp++
	line := addr >> c.lineShift
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.stamp
			return true
		}
	}
	victim, oldest := 0, c.lru[set][0]
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < oldest {
			victim, oldest = w, c.lru[set][w]
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.stamp
	return false
}

// refTLB is a fully-associative LRU TLB kept as a page→stamp map.
type refTLB struct {
	entries int
	pages   map[uint64]uint64
	stamp   uint64
}

func newRefTLB(entries int) *refTLB {
	return &refTLB{entries: entries, pages: make(map[uint64]uint64, entries)}
}

func (t *refTLB) access(addr uint64) bool {
	t.stamp++
	page := addr >> 12
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.stamp
		return true
	}
	if len(t.pages) >= t.entries {
		var victim uint64
		oldest := t.stamp + 1
		for p, s := range t.pages {
			if s < oldest {
				victim, oldest = p, s
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.stamp
	return false
}

// addrStream returns n seeded addresses: half revisit a small hot pool,
// the rest land anywhere in span bytes, so both hit and miss paths (and
// the LRU victim choice) are exercised heavily.
func addrStream(seed int64, n int, span uint64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	hot := make([]uint64, 48)
	for i := range hot {
		hot[i] = uint64(r.Int63n(int64(span)))
	}
	out := make([]uint64, n)
	for i := range out {
		if r.Intn(2) == 0 {
			out[i] = hot[r.Intn(len(hot))] + uint64(r.Intn(64))
		} else {
			out[i] = uint64(r.Int63n(int64(span)))
		}
	}
	return out
}

func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name             string
		size, ways, line int
		span             uint64
		wantSets         int
	}{
		{"1set_4way", 256, 4, 64, 1 << 10, 1},
		{"1set_1way", 64, 1, 64, 1 << 9, 1},
		{"8set_1way", 512, 1, 64, 1 << 12, 8},
		{"L1_128x4", 32 << 10, 4, 64, 1 << 17, 128},
		{"L2_512x16", 512 << 10, 16, 64, 1 << 21, 512},
		{"roofline_1024x8", 512 << 10, 8, 64, 1 << 21, 1024},
	} {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				c := NewCache(g.size, g.ways, g.line)
				ref := newRefCache(g.size, g.ways, g.line)
				if ref.sets != g.wantSets {
					t.Fatalf("reference has %d sets, want %d", ref.sets, g.wantSets)
				}
				var misses uint64
				for i, a := range addrStream(seed, 200000, g.span) {
					got, want := c.Access(a), ref.access(a)
					if got != want {
						t.Fatalf("seed %d access %d (addr %#x): hit=%v, reference hit=%v", seed, i, a, got, want)
					}
					if !want {
						misses++
					}
				}
				if c.Accesses != 200000 || c.Misses != misses {
					t.Fatalf("seed %d: counters %d/%d, reference %d/%d", seed, c.Misses, c.Accesses, misses, 200000)
				}
				if misses == 0 || misses == 200000 {
					t.Fatalf("seed %d: %d misses of 200000 exercises only one path", seed, misses)
				}
			}
		})
	}
}

func TestTLBMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 4, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			tl := NewTLB(entries)
			ref := newRefTLB(entries)
			// Span enough pages to overflow the TLB about half the time.
			span := uint64(entries) * 4 << 12
			var misses uint64
			for i, a := range addrStream(seed, 200000, span) {
				got, want := tl.Access(a), ref.access(a)
				if got != want {
					t.Fatalf("entries %d seed %d access %d (page %d): hit=%v, reference hit=%v",
						entries, seed, i, a>>12, got, want)
				}
				if !want {
					misses++
				}
			}
			if tl.Accesses != 200000 || tl.Misses != misses {
				t.Fatalf("entries %d seed %d: counters %d/%d, reference %d/%d",
					entries, seed, tl.Misses, tl.Accesses, misses, 200000)
			}
			if misses == 0 || misses == 200000 {
				t.Fatalf("entries %d seed %d: %d misses of 200000 exercises only one path", entries, seed, misses)
			}
		}
	}
}
