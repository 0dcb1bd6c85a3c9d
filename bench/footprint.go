package bench

import (
	"fmt"

	"dronedse/components"
	"dronedse/core"
	"dronedse/parallelx"
)

// Figure10 regenerates the computation-footprint sweeps for the three
// studied wheelbases: total power vs weight per battery configuration
// (panels a-c) and the compute share of total power for the 3 W and 20 W
// chips at hovering and maneuvering loads (panels d-f), plus the
// best-configuration flight time annotation and the commercial validation
// points.
type Figure10 struct {
	WheelbaseMM float64
	// Sweeps[cells] is the battery sweep for that configuration.
	Sweeps map[int][]core.SweepPoint
	// Shares are the 20 W and 3 W compute-share series (panels d-f),
	// sampled along the 3S sweep.
	Shares20W []core.SweepPoint
	Shares3W  []core.SweepPoint
	// Best is the longest-hovering configuration across cells/capacity.
	Best         core.Design
	BestFlight   float64
	PaperBestMin float64
	// Validation points: commercial drones of this class with their
	// spec-derived hover power.
	Validation []components.CommercialDrone
}

// paperBestMinutes are the Figure 10 annotations.
var paperBestMinutes = map[float64]float64{100: 23, 450: 19, 800: 22}

// RunFigure10 sweeps one wheelbase class.
func RunFigure10(wheelbaseMM float64, p core.Params) Figure10 {
	out := Figure10{
		WheelbaseMM:  wheelbaseMM,
		Sweeps:       map[int][]core.SweepPoint{},
		PaperBestMin: paperBestMinutes[wheelbaseMM],
	}
	mk := func(cells int, tier components.ComputeTier) core.Spec {
		return core.Spec{
			WheelbaseMM: wheelbaseMM, Cells: cells, CapacityMah: 1000, TWR: 2,
			Compute: tier, ESCClass: components.LongFlight,
		}
	}
	// One Basic-tier sweep per cell count feeds panels a-c (1S/3S/6S, like
	// the legend), the 3 W share series (3S) and the best-configuration
	// search; the Advanced-tier 3S sweep is the 20 W share series.
	var basic [][]core.SweepPoint
	parallelx.Do(
		func() {
			basic = parallelx.Map([]int{1, 2, 3, 4, 5, 6}, func(cells int) []core.SweepPoint {
				return core.SweepCapacity(mk(cells, components.BasicComputeTier), p, 1000, 8000, 250)
			})
		},
		func() { out.Shares20W = core.SweepCapacity(mk(3, components.AdvancedComputeTier), p, 1000, 8000, 250) },
	)
	out.Sweeps[1], out.Sweeps[3], out.Sweeps[6] = basic[0], basic[2], basic[5]
	out.Shares3W = basic[2]
	if best, ok := core.BestOf(basic); ok {
		out.Best = best
		out.BestFlight = best.HoverFlightTimeMin()
	}
	for _, cd := range components.CommercialDrones() {
		if cd.WheelbaseClassMM == wheelbaseMM {
			out.Validation = append(out.Validation, cd)
		}
	}
	return out
}

// Table renders the sweep summary.
func (fg Figure10) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Figure 10 @ %.0f mm: power vs weight sweep and compute footprint", fg.WheelbaseMM),
		Columns: []string{"series", "weight(g) span", "hover power(W) span",
			"20W share hover(%)", "20W share maneuver(%)", "3W share hover(%)"},
		Notes: []string{
			fmt.Sprintf("best config: %dS %.0f mAh, %.0f g, %.1f min hovering (paper annotates %.0f min)",
				fg.Best.Spec.Cells, fg.Best.Spec.CapacityMah, fg.Best.TotalG, fg.BestFlight, fg.PaperBestMin),
		},
	}
	for _, cells := range []int{1, 3, 6} {
		pts := fg.Sweeps[cells]
		if len(pts) == 0 {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%dS", cells), "infeasible", "-", "-", "-", "-"})
			continue
		}
		lo, hi := pts[0], pts[len(pts)-1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dS", cells),
			fmt.Sprintf("%.0f-%.0f", lo.TotalWeightG, hi.TotalWeightG),
			fmt.Sprintf("%.0f-%.0f", lo.HoverPowerW, hi.HoverPowerW),
			"-", "-", "-",
		})
	}
	if len(fg.Shares20W) > 0 {
		lo, hi := fg.Shares20W[0], fg.Shares20W[len(fg.Shares20W)-1]
		t.Rows = append(t.Rows, []string{
			"20W chip", fmt.Sprintf("%.0f-%.0f", lo.TotalWeightG, hi.TotalWeightG), "-",
			fmt.Sprintf("%.1f→%.1f", lo.ComputeShareHoverPct, hi.ComputeShareHoverPct),
			fmt.Sprintf("%.1f→%.1f", lo.ComputeShareManeuverPct, hi.ComputeShareManeuverPct), "-",
		})
	}
	if len(fg.Shares3W) > 0 {
		lo, hi := fg.Shares3W[0], fg.Shares3W[len(fg.Shares3W)-1]
		t.Rows = append(t.Rows, []string{
			"3W chip", fmt.Sprintf("%.0f-%.0f", lo.TotalWeightG, hi.TotalWeightG), "-", "-", "-",
			fmt.Sprintf("%.1f→%.1f", lo.ComputeShareHoverPct, hi.ComputeShareHoverPct),
		})
	}
	for _, v := range fg.Validation {
		t.Notes = append(t.Notes, fmt.Sprintf("validation: %s %.0f g, spec-derived hover %.0f W",
			v.Name, v.TakeoffWeightG, v.HoverPowerW()))
	}
	return t
}

// Figure11 regenerates the small-commercial-drone study.
type Figure11 struct {
	Drones []components.CommercialDrone
}

// RunFigure11 loads the six Figure 11 products.
func RunFigure11() Figure11 { return Figure11{Drones: components.Figure11Drones()} }

// Table renders the figure.
func (fg Figure11) Table() Table {
	t := Table{
		Title: "Figure 11: commercial small drones — power, heavy-compute share, flight time",
		Columns: []string{"drone", "hover(W)", "maneuver(W)", "base compute(%)",
			"heavy compute(%)", "flight(min)"},
		Notes: []string{"paper: hovering compute 2-7%; heavy computation reaches 10-20% → up to +5 min potential"},
	}
	for _, d := range fg.Drones {
		t.Rows = append(t.Rows, []string{
			d.Name, f2(d.HoverPowerW()), f2(d.ManeuverPowerW()),
			f2(d.BaseComputeSharePct()), f2(d.HeavyComputeSharePct()),
			f2(d.RatedFlightMin),
		})
	}
	return t
}

// Figure14 renders the open-source drone's weight breakdown.
func Figure14() Table {
	t := Table{
		Title:   "Figure 14: open-source drone weight breakdown",
		Columns: []string{"component", "weight(g)", "share(%)"},
	}
	total := components.OurDroneTotalWeightG()
	for _, it := range components.OurDroneBreakdown() {
		t.Rows = append(t.Rows, []string{it.Name, f(it.WeightG), f2(100 * it.WeightG / total)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total %.0f g; frame+battery+motors+ESC dominate (paper: 25/23/21/10%%)", total))
	return t
}

// Table4Render renders the flight-controller/compute/sensor inventory.
func Table4Render() Table {
	t := Table{
		Title:   "Table 4: flight controllers, compute boards, external sensors",
		Columns: []string{"name", "class", "weight(g)", "power(W)", "self-powered"},
	}
	classNames := map[components.BoardClass]string{
		components.BasicController:    "basic FC",
		components.ImprovedController: "improved FC/compute",
		components.FPVCamera:          "FPV camera",
		components.LiDARUnit:          "LiDAR",
	}
	for _, b := range components.Table4() {
		sp := "no"
		if b.SelfPowered {
			sp = "yes"
		}
		t.Rows = append(t.Rows, []string{b.Name, classNames[b.Class], f(b.WeightG), f(b.PowerW), sp})
	}
	return t
}
