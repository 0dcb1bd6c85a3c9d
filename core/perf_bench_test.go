package core

import (
	"fmt"
	"runtime"
	"testing"

	"dronedse/parallelx"
)

// benchPools are the pool sizes the perf trajectory is tracked at.
func benchPools() []int {
	pools := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		pools = append(pools, n)
	}
	return pools
}

// atEachPool runs the body as a sub-benchmark per pool size.
func atEachPool(b *testing.B, body func(b *testing.B)) {
	for _, pool := range benchPools() {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			prev := parallelx.SetPoolSize(pool)
			defer parallelx.SetPoolSize(prev)
			body(b)
		})
	}
}

func BenchmarkResolve(b *testing.B) {
	spec := DefaultSpec()
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(spec, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepCapacity(b *testing.B) {
	spec := DefaultSpec()
	p := DefaultParams()
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := SweepCapacity(spec, p, 1000, 8000, 100); len(pts) == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
}

func BenchmarkBestConfig(b *testing.B) {
	spec := DefaultSpec()
	p := DefaultParams()
	cells := []int{1, 2, 3, 4, 5, 6}
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := BestConfig(spec, p, cells, 1000, 8000, 250); !ok {
				b.Fatal("no feasible config")
			}
		}
	})
}

func BenchmarkParetoPayloadFrontier(b *testing.B) {
	spec := DefaultSpec()
	p := DefaultParams()
	payloads := []float64{0, 100, 200, 300, 500, 750, 1000}
	atEachPool(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := ParetoPayloadFrontier(spec, p, payloads); len(pts) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
}
