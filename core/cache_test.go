package core

import (
	"errors"
	"testing"

	"dronedse/components"
)

// cacheSpecs spans the interesting regions: feasible designs across the
// frame classes, validation errors, and a non-converging (infeasible) point.
func cacheSpecs() []Spec {
	specs := []Spec{
		DefaultSpec(),
		{WheelbaseMM: 100, Cells: 1, CapacityMah: 500, TWR: 2,
			Compute: components.BasicComputeTier, ESCClass: components.LongFlight},
		{WheelbaseMM: 800, Cells: 6, CapacityMah: 8000, TWR: 3,
			Compute: components.AdvancedComputeTier, ESCClass: components.LongFlight,
			SensorsW: 10, SensorsG: 200, PayloadG: 300},
		// Validation errors.
		{WheelbaseMM: 10, Cells: 3, CapacityMah: 3000, TWR: 2},
		{WheelbaseMM: 450, Cells: 9, CapacityMah: 3000, TWR: 2},
		{WheelbaseMM: 450, Cells: 3, CapacityMah: -5, TWR: 2},
		{WheelbaseMM: 450, Cells: 3, CapacityMah: 3000, TWR: 1.0},
		// Weight-closure divergence: a tiny 2" prop hauling a huge payload.
		{WheelbaseMM: 100, Cells: 1, CapacityMah: 1000, TWR: 2, PayloadG: 5e5,
			ESCClass: components.LongFlight},
	}
	return specs
}

// TestResolveCachedMatchesResolve: the memoized path returns the same Design
// and the same error class as the uncached function, on both the cold and
// the warm path.
func TestResolveCachedMatchesResolve(t *testing.T) {
	ResetResolveCache()
	p := DefaultParams()
	for round := 0; round < 2; round++ { // round 0 cold, round 1 warm
		for i, spec := range cacheSpecs() {
			want, wantErr := Resolve(spec, p)
			got, gotErr := ResolveCached(spec, p)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d spec %d: err mismatch: %v vs %v", round, i, wantErr, gotErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, errors.Unwrap(wantErr)) && gotErr.Error() != wantErr.Error() {
					t.Fatalf("round %d spec %d: error %q != %q", round, i, gotErr, wantErr)
				}
				continue
			}
			if got != want {
				t.Fatalf("round %d spec %d: cached Design differs:\n got %+v\nwant %+v", round, i, got, want)
			}
		}
	}
	hits, misses, entries := ResolveCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got hits=%d misses=%d", hits, misses)
	}
	if entries == 0 {
		t.Fatal("cache should retain entries")
	}
}

// TestResolveCachedParamsSensitive: same Spec under different Params must
// not collide.
func TestResolveCachedParamsSensitive(t *testing.T) {
	ResetResolveCache()
	spec := DefaultSpec()
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.MotorOversize = 1.6
	d1, err1 := ResolveCached(spec, p1)
	d2, err2 := ResolveCached(spec, p2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if d1.MotorMaxCurrentA == d2.MotorMaxCurrentA {
		t.Fatal("different Params produced identical cached designs: key collision")
	}
}

// TestResolveCacheEviction: overflowing a shard clears it rather than
// growing without bound, and results stay correct across the eviction.
func TestResolveCacheEviction(t *testing.T) {
	prev := maxResolveEntriesPerShard
	maxResolveEntriesPerShard = 8
	defer func() { maxResolveEntriesPerShard = prev; ResetResolveCache() }()
	ResetResolveCache()

	p := DefaultParams()
	spec := DefaultSpec()
	for i := 0; i < 4096; i++ {
		spec.CapacityMah = 1000 + float64(i)
		want, _ := Resolve(spec, p)
		got, err := ResolveCached(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("i=%d: cached design differs after eviction churn", i)
		}
	}
	_, _, entries := ResolveCacheStats()
	if entries > resolveShardCount*8 {
		t.Fatalf("cache grew past its bound: %d entries", entries)
	}
}

// TestResolveCacheConcurrent hammers one hot key plus a spread of cold keys
// from many goroutines; run under -race this is the cache's safety test.
func TestResolveCacheConcurrent(t *testing.T) {
	ResetResolveCache()
	p := DefaultParams()
	hot := DefaultSpec()
	want, _ := Resolve(hot, p)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			spec := DefaultSpec()
			for i := 0; i < 200; i++ {
				if d, err := ResolveCached(hot, p); err != nil || d != want {
					done <- errors.New("hot key mismatch under concurrency")
					return
				}
				spec.CapacityMah = 1000 + float64(g*200+i)
				if _, err := ResolveCached(spec, p); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
