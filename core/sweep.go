package core

import (
	"dronedse/components"
	"dronedse/parallelx"
	"dronedse/propulsion"
	"dronedse/units"
)

// SweepPoint is one resolved configuration along a Figure 10 battery sweep.
type SweepPoint struct {
	CapacityMah             float64
	TotalWeightG            float64
	HoverPowerW             float64
	ManeuverPowerW          float64
	HoverFlightMin          float64
	ComputeShareHoverPct    float64
	ComputeShareManeuverPct float64
	Design                  Design
}

// gridSize returns the number of samples in [lo, lo+step, ..., hi]. The grid
// is indexed (lo + i*step) rather than accumulated, so float rounding can
// never drop the last point on long sweeps.
func gridSize(lo, hi, step float64) int {
	if step <= 0 || hi < lo {
		return 0
	}
	return int((hi-lo)/step+1e-9) + 1
}

// SweepCapacity resolves the design at each battery capacity from loMah to
// hiMah in stepMah increments (the paper sweeps 1000-8000 mAh), returning
// the Figure 10 series for one wheelbase / cell-count / compute choice.
// Infeasible points are skipped. Grid points fan out across the parallelx
// pool; output is identical to the serial (PoolSize=1) loop.
func SweepCapacity(spec Spec, p Params, loMah, hiMah, stepMah float64) []SweepPoint {
	n := gridSize(loMah, hiMah, stepMah)
	pts := parallelx.MapIndex(n, func(i int) *SweepPoint {
		capacityMah := loMah + float64(i)*stepMah
		s := spec
		s.CapacityMah = capacityMah
		d, err := Resolve(s, p)
		if err != nil {
			return nil
		}
		return &SweepPoint{
			CapacityMah:             capacityMah,
			TotalWeightG:            d.TotalG,
			HoverPowerW:             d.HoverPowerW(),
			ManeuverPowerW:          d.ManeuverPowerW(),
			HoverFlightMin:          d.HoverFlightTimeMin(),
			ComputeShareHoverPct:    d.ComputeSharePct(p.HoverLoad),
			ComputeShareManeuverPct: d.ComputeSharePct(p.ManeuverLoad),
			Design:                  d,
		}
	})
	var out []SweepPoint
	for _, pt := range pts {
		if pt != nil {
			out = append(out, *pt)
		}
	}
	return out
}

// BestConfig searches cells x capacity for the configuration with the
// longest hovering flight time — the "Best Configuration" annotation of
// Figures 10a-c. The whole grid fans out across the pool and BestOf reduces
// the per-cell sweeps. It returns ok=false when nothing is feasible.
func BestConfig(spec Spec, p Params, cellsOptions []int, loMah, hiMah, stepMah float64) (Design, bool) {
	return BestOf(parallelx.Map(cellsOptions, func(cells int) []SweepPoint {
		s := spec
		s.Cells = cells
		return SweepCapacity(s, p, loMah, hiMah, stepMah)
	}))
}

// BestOf returns the design with the longest hovering flight time across
// the sweeps. It scans in input order and keeps the first of equal times,
// so ties resolve exactly as a serial cells x capacity double loop. It
// returns ok=false when every sweep is empty.
func BestOf(sweeps [][]SweepPoint) (Design, bool) {
	var best Design
	bestMin := -1.0
	for _, pts := range sweeps {
		for _, pt := range pts {
			if ft := pt.HoverFlightMin; ft > bestMin {
				bestMin = ft
				best = pt.Design
			}
		}
	}
	return best, bestMin >= 0
}

// MotorCurrentPoint is one Figure 9 sample: the minimum required per-motor
// max current draw for a drone of the given basic weight.
type MotorCurrentPoint struct {
	BasicWeightG float64
	CurrentA     float64
	Kv           float64
}

// MotorCurrentVsBasicWeight reproduces one Figure 9 line: for each basic
// weight (everything except battery, ESCs and motors — the figure's x-axis
// convention), it closes the motor/ESC weight loop at the target TWR and
// returns the per-motor max current and matching Kv for the wheelbase's
// propeller and the given supply. Non-converging weights are skipped.
func MotorCurrentVsBasicWeight(wheelbaseMM float64, cells int, twr float64, p Params, basicWeightsG []float64) []MotorCurrentPoint {
	propIn := components.MaxPropellerInches(wheelbaseMM)
	propD := units.InchToMeter(propIn)
	v := units.CellsToVoltage(cells)
	return parallelx.FilterMap(basicWeightsG, func(basic float64) (MotorCurrentPoint, bool) {
		// Close the motor+ESC loop on top of the basic weight (no
		// battery, no wiring — the figure's x-axis convention).
		wc := closeWeightLoop(basic, basic*1.3, twr, propD, v, p, components.LongFlight, false)
		if !wc.Converged {
			return MotorCurrentPoint{}, false
		}
		return MotorCurrentPoint{
			BasicWeightG: basic,
			CurrentA:     wc.RequiredA,
			Kv: propulsion.KvForDesign(
				units.GramsToNewtons(twr*wc.TotalG/4), propD, v),
		}, true
	})
}

// MinFeasibleBasicWeightG estimates Figure 9's "Min. Possible Weight Line":
// the lightest basic weight a wheelbase class supports (bare frame, smallest
// controller, props and wiring, no payload).
func MinFeasibleBasicWeightG(wheelbaseMM float64, p Params) float64 {
	frame := components.FrameWeightModel(wheelbaseMM)
	props := 4 * components.PropellerWeightG(components.MaxPropellerInches(wheelbaseMM))
	const minController = 8 // lightest Table 4 basic controller
	basic := frame + props + minController
	return basic + p.WiringBaseG + p.WiringFrac*basic
}
