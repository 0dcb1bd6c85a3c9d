package bench

import (
	"reflect"
	"testing"

	"dronedse/components"
	"dronedse/core"
	"dronedse/parallelx"
)

// renderAll regenerates the compute-heavy figure tables at the current pool
// size and returns their rendered text — the regression oracle: parallel
// output must be byte-identical to serial output.
func renderAll(t *testing.T) map[string]string {
	t.Helper()
	p := core.DefaultParams()
	out := map[string]string{}
	out["fig9"] = RunFigure9(p).Table().Render()
	for _, wb := range []float64{100, 450, 800} {
		out["fig10"] += RunFigure10(wb, p).Table().Render()
	}
	out["fig15"] = RunFigure15(7).Table().Render()
	fg17, err := RunFigure17(3)
	if err != nil {
		t.Fatal(err)
	}
	out["fig17"] = fg17.Table().Render()
	out["twr"] = RunTWRStudy(p).Table().Render()
	out["pareto"] = RunParetoStudy(p).Table().Render()
	return out
}

// TestFigureTablesPoolInvariant: every parallelized figure generator renders
// byte-identically at pool sizes 1, 2, and 8.
func TestFigureTablesPoolInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("SLAM sequences are slow; skipping in -short")
	}
	var serial map[string]string
	func() {
		prev := parallelx.SetPoolSize(1)
		defer parallelx.SetPoolSize(prev)
		serial = renderAll(t)
	}()
	for name, text := range serial {
		if text == "" {
			t.Fatalf("serial %s rendered empty", name)
		}
	}
	for _, pool := range []int{2, 8} {
		func() {
			prev := parallelx.SetPoolSize(pool)
			defer parallelx.SetPoolSize(prev)
			got := renderAll(t)
			for name, text := range got {
				if text != serial[name] {
					t.Errorf("pool=%d: %s output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
						pool, name, text, serial[name])
				}
			}
		}()
	}
}

// TestRunFigure10MatchesIndependentSweeps: sharing the six Basic-tier cell
// sweeps across panels a-c, the 3 W share series and the best-configuration
// search changes nothing — every wheelbase deep-equals independent
// SweepCapacity and BestConfig calls at pools 1 and 2.
func TestRunFigure10MatchesIndependentSweeps(t *testing.T) {
	p := core.DefaultParams()
	for _, pool := range []int{1, 2} {
		prev := parallelx.SetPoolSize(pool)
		for _, wb := range []float64{100, 450, 800} {
			mk := func(cells int, tier components.ComputeTier) core.Spec {
				return core.Spec{
					WheelbaseMM: wb, Cells: cells, CapacityMah: 1000, TWR: 2,
					Compute: tier, ESCClass: components.LongFlight,
				}
			}
			sweep := func(cells int, tier components.ComputeTier) []core.SweepPoint {
				return core.SweepCapacity(mk(cells, tier), p, 1000, 8000, 250)
			}
			want := Figure10{
				WheelbaseMM: wb,
				Sweeps: map[int][]core.SweepPoint{
					1: sweep(1, components.BasicComputeTier),
					3: sweep(3, components.BasicComputeTier),
					6: sweep(6, components.BasicComputeTier),
				},
				Shares20W:    sweep(3, components.AdvancedComputeTier),
				Shares3W:     sweep(3, components.BasicComputeTier),
				PaperBestMin: paperBestMinutes[wb],
			}
			if best, ok := core.BestConfig(mk(3, components.BasicComputeTier), p, []int{1, 2, 3, 4, 5, 6}, 1000, 8000, 250); ok {
				want.Best = best
				want.BestFlight = best.HoverFlightTimeMin()
			}
			for _, cd := range components.CommercialDrones() {
				if cd.WheelbaseClassMM == wb {
					want.Validation = append(want.Validation, cd)
				}
			}
			if got := RunFigure10(wb, p); !reflect.DeepEqual(got, want) {
				t.Errorf("pool=%d wb=%v: RunFigure10 differs from independent sweeps", pool, wb)
			}
		}
		parallelx.SetPoolSize(prev)
	}
}
