package main

import (
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"dronedse/bench"
	"dronedse/components"
	"dronedse/core"
	"dronedse/dataset"
	"dronedse/sensors"
)

// figureSetupReps is how many times a run times the paper_figures set-up
// (about 2 ms each).
const figureSetupReps = 101

// figureRun holds one regeneration's outputs for the band checks.
type figureRun struct {
	p    core.Params
	seed int64
	seqs int

	t2b    bench.Table2b
	inner  bench.InnerLoopAblation
	f7     bench.Figure7
	f8     bench.Figure8
	f9     bench.Figure9
	f10    []bench.Figure10
	f11    bench.Figure11
	f14    bench.Table
	t4     bench.Table
	f15    bench.Figure15
	f16    bench.Figure16
	twr    bench.TWRStudy
	sens   bench.SensorStudy
	gust   bench.GustStudy
	off    bench.OffloadStudy
	eslam  bench.ESLAMStudy
	pareto bench.ParetoStudy
	iso    bench.IsolationStudy
	pre    bench.PrefetchStudy
	f17    bench.Figure17
	t5     bench.Table5Bench
}

// figureGen is one generator behind `figures -fig all`: run calls the
// public bench function and renders its table; check returns the band
// misses of its headline values.
type figureGen struct {
	id    string
	core  bool // Eq 1-7 design-space core only (summed into core.dse_s)
	run   func(fr *figureRun) error
	check func(fr *figureRun) []string
}

// render formats a generator's table, as figures prints it; the text is
// discarded.
func render(t bench.Table) { io.WriteString(io.Discard, t.Render()) }

// figureGens lists the generators in the order cmd/figures -fig all runs
// them.
var figureGens = []figureGen{
	{id: "table2a", core: true,
		run: func(fr *figureRun) error { render(bench.Table2aRender()); return nil },
		check: func(fr *figureRun) []string {
			s := sensors.NewSuite(fr.seed)
			var bad []string
			bad = append(bad, band("imu_hz", s.IMU.RateHz, 100, 200)...)
			bad = append(bad, band("mag_hz", s.Mag.RateHz, 10, 10)...)
			bad = append(bad, band("baro_hz", s.Baro.RateHz, 10, 20)...)
			return append(bad, band("gps_hz", s.GPS.RateHz, 1, 40)...)
		}},
	{id: "table2b",
		run: func(fr *figureRun) error {
			fr.t2b = bench.RunTable2b()
			render(fr.t2b.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			t := fr.t2b
			bad := band("thrust_s", t.ThrustResponseS, 0.02, 0.5)
			bad = append(bad, band("attitude_s", t.AttitudeResponseS, 0.04, 0.8)...)
			bad = append(bad, band("position_s", t.PositionResponseS, 0.5, 6)...)
			if !(t.ThrustResponseS < t.AttitudeResponseS && t.AttitudeResponseS < t.PositionResponseS) {
				bad = append(bad, "time-scale separation violated")
			}
			return bad
		}},
	{id: "innerloop",
		run: func(fr *figureRun) error {
			fr.inner = bench.RunInnerLoopAblation()
			render(fr.inner.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			by := map[float64]float64{}
			for i, hz := range fr.inner.RateHz {
				by[hz] = fr.inner.ResponseS[i]
			}
			bad := band("response_1khz_s", by[1000], 1, 4)
			bad = append(bad, band("response_2khz_over_1khz", by[2000]/by[1000], 0.85, 1.15)...)
			return append(bad, band("response_50hz_over_1khz", by[50]/by[1000], 0.5, 1.35)...)
		}},
	{id: "fig7", core: true,
		run: func(fr *figureRun) error {
			var err error
			if fr.f7, err = bench.RunFigure7(fr.seed); err == nil {
				render(fr.f7.Table())
			}
			return err
		},
		check: func(fr *figureRun) []string {
			var bad []string
			if len(fr.f7.Fits) != 6 {
				bad = append(bad, fmt.Sprintf("%d fits, want 6", len(fr.f7.Fits)))
			}
			for cells, v := range fr.f7.Fits {
				bad = append(bad, band(fmt.Sprintf("%dS_slope_over_paper", cells), v.Slope/v.PaperSlope, 0.85, 1.15)...)
			}
			return bad
		}},
	{id: "fig8", core: true,
		run: func(fr *figureRun) error {
			var err error
			if fr.f8, err = bench.RunFigure8(fr.seed); err == nil {
				render(fr.f8.Table())
			}
			return err
		},
		check: func(fr *figureRun) []string {
			bad := band("esc_long_slope_over_paper", fr.f8.ESCLong.Slope/fr.f8.ESCLong.PaperSlope, 0.8, 1.2)
			return append(bad, band("frame_slope_over_paper", fr.f8.FrameHighSlope/fr.f8.PaperFrameSlope, 0.8, 1.2)...)
		}},
	{id: "fig9", core: true,
		run: func(fr *figureRun) error {
			fr.f9 = bench.RunFigure9(fr.p)
			render(fr.f9.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			var bad []string
			if len(fr.f9.Lines) != 5 {
				bad = append(bad, fmt.Sprintf("%d wheelbase lines, want 5", len(fr.f9.Lines)))
			}
			for wb, w := range fr.f9.MinBasicWeight {
				bad = append(bad, band(fmt.Sprintf("min_weight_%gmm_g", wb), w, 1e-9, 1e5)...)
			}
			return bad
		}},
	{id: "fig10", core: true,
		run: func(fr *figureRun) error {
			fr.f10 = fr.f10[:0]
			for _, wb := range []float64{100, 450, 800} {
				fg := bench.RunFigure10(wb, fr.p)
				fr.f10 = append(fr.f10, fg)
				render(fg.Table())
			}
			return nil
		},
		check: func(fr *figureRun) []string {
			// EXPERIMENTS.md: best configurations fly 12.3, 34.2 and 43.0 min.
			want := map[float64][2]float64{100: {10, 15}, 450: {30, 38}, 800: {38, 48}}
			var bad []string
			for _, fg := range fr.f10 {
				b := want[fg.WheelbaseMM]
				bad = append(bad, band(fmt.Sprintf("best_flight_%gmm_min", fg.WheelbaseMM), fg.BestFlight, b[0], b[1])...)
			}
			if len(fr.f10) != 3 {
				bad = append(bad, fmt.Sprintf("%d wheelbases, want 3", len(fr.f10)))
			}
			return bad
		}},
	{id: "fig11", core: true,
		run: func(fr *figureRun) error {
			fr.f11 = bench.RunFigure11()
			render(fr.f11.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			if n := len(fr.f11.Drones); n != 6 {
				return []string{fmt.Sprintf("%d drones, want 6", n)}
			}
			return nil
		}},
	{id: "fig14", core: true,
		run: func(fr *figureRun) error { fr.f14 = bench.Figure14(); render(fr.f14); return nil },
		check: func(fr *figureRun) []string {
			bad := band("our_drone_total_g", components.OurDroneTotalWeightG(), 1070, 1072)
			if n := len(fr.f14.Rows); n < 13 {
				bad = append(bad, fmt.Sprintf("%d rows, want 13 components", n))
			}
			return bad
		}},
	{id: "table4", core: true,
		run: func(fr *figureRun) error { fr.t4 = bench.Table4Render(); render(fr.t4); return nil },
		check: func(fr *figureRun) []string {
			if n := len(components.Table4()); n != 15 {
				return []string{fmt.Sprintf("%d Table 4 rows, want 15", n)}
			}
			return nil
		}},
	{id: "fig15",
		run: func(fr *figureRun) error {
			fr.f15 = bench.RunFigure15(fr.seed)
			render(fr.f15.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			bad := band("tlb_ratio", fr.f15.TLBRatio(), 3, 6.5)
			return append(bad, band("ipc_drop", fr.f15.IPCDrop(), 1.4, 2.2)...)
		}},
	{id: "fig16",
		run: func(fr *figureRun) error {
			var err error
			if fr.f16, err = bench.RunFigure16(fr.seed); err == nil {
				render(fr.f16.Table())
			}
			return err
		},
		check: func(fr *figureRun) []string {
			fg := fr.f16
			var bad []string
			if !fg.FlightOK {
				bad = append(bad, "mission did not complete")
			}
			for _, ph := range fg.RPiPhases {
				m := fg.RPiTrace.MeanPower(ph.FromS, ph.ToS)
				switch ph.Name {
				case "autopilot":
					bad = append(bad, band("rpi_autopilot_w", m, 3.34, 3.44)...)
				case "autopilot+SLAM(idle)":
					bad = append(bad, band("rpi_slam_idle_w", m, 4.0, 4.1)...)
				case "autopilot+SLAM(flying)":
					bad = append(bad, band("rpi_slam_flying_w", m, 4.3, 4.9)...)
				}
			}
			bad = append(bad, band("drone_avg_w", fg.DroneAvgW, 85, 170)...)
			return append(bad, band("drone_peak_over_avg", fg.DronePeakW/fg.DroneAvgW, 1, 5)...)
		}},
	{id: "twr", core: true,
		run: func(fr *figureRun) error {
			fr.twr = bench.RunTWRStudy(fr.p)
			render(fr.twr.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			if len(fr.twr.Points) < 4 || fr.twr.Points[0].TWR != 2 {
				return []string{"TWR sweep must have >=4 points anchored at TWR 2"}
			}
			// EXPERIMENTS.md: the 20 W share is 16.3% at TWR 2.
			return band("share_at_twr2_pct", fr.twr.Points[0].ComputeShareHoverPct, 12, 20)
		}},
	{id: "sensors", core: true,
		run: func(fr *figureRun) error {
			fr.sens = bench.RunSensorStudy(fr.p)
			render(fr.sens.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			pts := fr.sens.Points
			if len(pts) != 4 {
				return []string{fmt.Sprintf("%d rows, want 4", len(pts))}
			}
			var bad []string
			for i := 1; i < len(pts); i++ {
				if !(pts[i].ComputeShareHoverPct < pts[0].ComputeShareHoverPct) {
					bad = append(bad, fmt.Sprintf("%s did not squeeze the compute share", pts[i].SensorName))
				}
			}
			return bad
		}},
	{id: "gust",
		run: func(fr *figureRun) error {
			fr.gust = bench.RunGustStudy(fr.seed)
			render(fr.gust.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			by := map[float64]float64{}
			for i, hz := range fr.gust.RateHz {
				by[hz] = fr.gust.WorstErr[i]
			}
			var bad []string
			for _, hz := range []float64{50, 200, 1000} {
				bad = append(bad, band(fmt.Sprintf("worst_err_%ghz_m", hz), by[hz], 0, 2.5)...)
			}
			return append(bad, band("err_500hz_minus_2khz_m", by[500]-by[2000], -0.5, 0.5)...)
		}},
	{id: "offload",
		run: func(fr *figureRun) error {
			var err error
			if fr.off, err = bench.RunOffloadStudy(); err == nil {
				render(fr.off.Table())
			}
			return err
		},
		check: func(fr *figureRun) []string {
			feasible := 0
			for _, r := range fr.off.Reports {
				if r.Feasible() {
					feasible++
				}
			}
			if len(fr.off.Reports) != 3 || feasible == 0 {
				return []string{fmt.Sprintf("%d links, %d feasible; want 3 with WiFi feasible", len(fr.off.Reports), feasible)}
			}
			return nil
		}},
	{id: "eslam",
		run: func(fr *figureRun) error {
			var err error
			if fr.eslam, err = bench.RunESLAMStudy(fr.seqs); err == nil {
				render(fr.eslam.Table())
			}
			return err
		},
		check: func(fr *figureRun) []string {
			bad := band("without_eslam_gmean", fr.eslam.WithoutGMean, 4, 10)
			return append(bad, band("with_eslam_gmean", fr.eslam.WithGMean, 20, 40)...)
		}},
	{id: "pareto", core: true,
		run: func(fr *figureRun) error {
			fr.pareto = bench.RunParetoStudy(fr.p)
			render(fr.pareto.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			pts := fr.pareto.Points
			if len(pts) < 4 {
				return []string{fmt.Sprintf("%d frontier points, want >=4", len(pts))}
			}
			var bad []string
			for i := 1; i < len(pts); i++ {
				if pts[i].FlightMin >= pts[i-1].FlightMin {
					bad = append(bad, "frontier not strictly worsening with payload")
				}
			}
			// EXPERIMENTS.md: 0 g payload flies 34 min.
			return append(bad, band("zero_payload_min", pts[0].FlightMin, 30, 38)...)
		}},
	{id: "isolation",
		run: func(fr *figureRun) error {
			fr.iso = bench.RunIsolationStudy(fr.seed)
			render(fr.iso.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			r := fr.iso.Result
			bad := band("solo_ipc", r.Solo.IPC, 0.4, 0.8)
			if !(r.Solo.IPC >= r.DedicatedCore.IPC && r.DedicatedCore.IPC > r.SharedCore.IPC) {
				bad = append(bad, "isolation ladder violated")
			}
			return bad
		}},
	{id: "prefetch",
		run: func(fr *figureRun) error {
			fr.pre = bench.RunPrefetchStudy(fr.seed)
			render(fr.pre.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			bad := band("autopilot_speedup", fr.pre.Autopilot.Speedup(), 1.05, 1.3)
			if fr.pre.Autopilot.Speedup() <= fr.pre.SLAM.Speedup() {
				bad = append(bad, "prefetch asymmetry inverted")
			}
			return bad
		}},
	{id: "fig17_table5",
		run: func(fr *figureRun) error {
			var err error
			if fr.f17, err = bench.RunFigure17(fr.seqs); err != nil {
				return err
			}
			render(fr.f17.Table())
			if fr.t5, err = bench.RunTable5(fr.f17.Stats(), fr.p); err != nil {
				return err
			}
			render(fr.t5.Table())
			return nil
		},
		check: func(fr *figureRun) []string {
			bad := band("tx2_gmean", fr.f17.GMeanTX2, 1.8, 2.6)
			bad = append(bad, band("fpga_gmean", fr.f17.GMeanFPGA, 26, 36)...)
			for _, r := range fr.f17.Results {
				bad = append(bad, band(r.Name+"_ate_m", r.ATE, 0, 0.25)...)
			}
			if len(fr.t5.Rows) != 4 {
				bad = append(bad, fmt.Sprintf("%d Table 5 rows, want 4", len(fr.t5.Rows)))
			}
			for _, row := range fr.t5.Rows {
				if row.Platform == "FPGA" {
					// EXPERIMENTS.md: the FPGA gains +2.75 min on a small drone.
					bad = append(bad, band("fpga_gain_small_min", row.GainedSmallMin, 2, 3.5)...)
				}
			}
			return bad
		}},
}

// band reports name when v is not finite or lies outside [lo, hi].
func band(name string, v, lo, hi float64) []string {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < lo || v > hi {
		return []string{fmt.Sprintf("%s = %.4g outside [%g, %g]", name, v, lo, hi)}
	}
	return nil
}

// figuresSetup times one set-up of the workload: a fresh cmd/figures
// process started with -fig none, which loads the program, parses its
// flags, sizes the worker pool, builds the design parameters and exits
// before the first generator — what a researcher waits for before any
// figure is computed.
func figuresSetup(bin string) (time.Duration, error) {
	cmd := exec.Command(bin, "-fig", "none", "-procs", strconv.Itoa(runtime.NumCPU()))
	t0 := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("figures set-up (%s -fig none): %v: %s", bin, err, out)
	}
	return d, nil
}

// runFigures regenerates every table and figure for the run's rounds and
// checks each round's headline values against their bands. seqs limits the
// SLAM suite (0 = all eleven sequences, as figures -fig all runs it); bin is
// the cmd/figures binary whose start-up is the set-up.
func runFigures(seconds float64, seqs int, bin string, tr *tracer) (*result, error) {
	res := &result{}
	var setups []float64
	for i := 0; i < figureSetupReps; i++ {
		d, err := figuresSetup(bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	p := core.DefaultParams()

	rounds := workUnits(seconds, figuresRoundRefS)
	perGen := make(map[string][]float64)
	var roundS, roundCPU []float64
	var instr uint64
	var microS, slamS float64
	var last *figureRun
	for r := 0; r < rounds; r++ {
		fr := &figureRun{p: p, seed: components.DefaultSeed, seqs: seqs}
		genErr := make([]error, len(figureGens))
		cpu0, t0 := cpuTime(), time.Now()
		for i, g := range figureGens {
			g0 := time.Now()
			genErr[i] = g.run(fr)
			g1 := time.Now()
			tr.record(0, 0, 0, "figures."+g.id, g0, g1)
			d := g1.Sub(g0)
			perGen[g.id] = append(perGen[g.id], d.Seconds())
			switch g.id {
			case "fig15", "isolation", "prefetch":
				microS += d.Seconds()
			case "eslam", "fig17_table5":
				slamS += d.Seconds()
			}
		}
		last = fr
		roundS = append(roundS, time.Since(t0).Seconds())
		roundCPU = append(roundCPU, (cpuTime() - cpu0).Seconds())
		instr += microInstructions(fr)

		for i, g := range figureGens {
			res.attempted++
			bad := g.check(fr)
			if genErr[i] != nil {
				bad = append(bad, genErr[i].Error())
			}
			if len(bad) > 0 {
				res.failed++
				for _, b := range bad {
					res.fail("%s: %s", g.id, b)
				}
			}
		}
	}
	res.note("paper_figures: %d rounds of %d generators (SLAM suite: %s)", rounds, len(figureGens), suiteName(seqs))

	figS, figCPU := median(roundS), median(roundCPU)
	roundMS := make([]float64, len(roundS))
	for i, s := range roundS {
		roundMS[i] = 1000 * s
	}
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("figures_s", figS, "s", len(roundS))
	res.add("figures_cpu_s", figCPU, "s", len(roundCPU))
	res.add("jobs_per_s", 1/figS, "jobs/s", len(roundS))
	res.add("cpu_ms_per_job", 1000*figCPU, "ms", len(roundCPU))
	res.add("job_ms_p50", median(roundMS), "ms", len(roundMS))
	res.add("job_ms_p99", quantile(roundMS, 0.99), "ms", len(roundMS))
	res.add("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	res.add("peak_rss_mb", peakRSSMB(), "MB", 0)
	res.add("heap_retained_mb", heapRetainedMB(), "MB", 0)
	runtime.KeepAlive(last)
	res.note("a paper_figures job is one full regeneration; attempted counts the %d generators checked per round", len(figureGens))

	if tr != nil {
		coreS := 0.0
		for _, g := range figureGens {
			v := median(perGen[g.id])
			res.add("figures."+g.id+"_s", v, "s", len(perGen[g.id]))
			if g.core {
				coreS += v
			}
		}
		res.add("core.dse_s", coreS, "s", 0)
		res.add("microarch.study_instr_per_s", float64(instr)/microS, "instr/s", 0)

		// eslam and fig17 each fly the whole suite; the runs are
		// deterministic, so fig17's ledgers count both.
		var frames int
		var ops uint64
		for _, r := range last.f17.Results {
			frames += r.Frames
			ops += r.Stats.TotalOps()
		}
		runs := len(roundS) * 2
		res.add("slam.sequence_runs", float64(runs*len(last.f17.Results)), "count", 0)
		res.add("slam.frames", float64(runs*frames), "count", 0)
		res.add("slam.ops", float64(uint64(runs)*ops), "count", 0)
		res.add("slam.suite_ns_per_op", slamS*1e9/float64(uint64(runs)*ops), "ns", 0)
	}
	return res, nil
}

// microInstructions sums the simulated instructions of the three
// microarchitecture studies in one round.
func microInstructions(fr *figureRun) uint64 {
	f, i, p := fr.f15.Result, fr.iso.Result, fr.pre
	return f.Autopilot.Instructions + f.SLAM.Instructions + f.AutopilotWithSLAM.Instructions +
		i.Solo.Instructions + i.SharedCore.Instructions + i.DedicatedCore.Instructions +
		p.Autopilot.Without.Instructions + p.Autopilot.With.Instructions +
		p.SLAM.Without.Instructions + p.SLAM.With.Instructions
}

func suiteName(seqs int) string {
	n := len(dataset.EuRoCSpecs())
	if seqs > 0 && seqs < n {
		return fmt.Sprintf("first %d of %d sequences", seqs, n)
	}
	return fmt.Sprintf("all %d sequences", n)
}
