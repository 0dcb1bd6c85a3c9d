package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dronedse/autopilot"
	"dronedse/control"
	"dronedse/dataset"
	"dronedse/estimation"
	"dronedse/fleet"
	"dronedse/groundstation"
	"dronedse/mathx"
	"dronedse/microarch"
	"dronedse/power"
	"dronedse/scenario"
	"dronedse/sensors"
	"dronedse/sim"
	"dronedse/slam"
	"dronedse/trace"
)

// Layer-probe parameters. Every traced run measures the same probes on the
// same inputs — the first job of each kind in the seed's campaign list — so
// the per-layer numbers compare across workloads and commits.
const (
	physicsHz     = 1000 // autopilot physics rate
	replayReps    = 5    // timed passes per replayed layer (median reported)
	tickReps      = 3    // timed full flights per spec for scenario.tick
	buildReps     = 21   // scenario.Build calls per kind
	digestReps    = 21   // DigestResult calls per recorded flight
	slamKernelRep = 15   // calls per SLAM harness kernel
	slamWarm      = 30   // frames the SLAM harness processes before snapshotting
	microIters    = 3000 // microarch simulator iterations per probe call
	microReps     = 3
	// resyncSteps is how often the plant replay re-places the quad on the
	// recorded trajectory (see the plant stand-in below).
	resyncSteps = 1000
	// targetLeadSteps is how far ahead on the recorded trajectory the
	// control replay takes its position target.
	targetLeadSteps = 1000
)

// stepRec is one physics step's public inputs, read through the step bus
// after the plant and battery have advanced.
type stepRec struct {
	t      float64
	s      sim.State
	thrust [sim.NumMotors]float64
	totalW float64
}

// flightRec is one recorded flight.
type flightRec struct {
	kind  string
	spec  scenario.Spec
	steps []stepRec
	res   *scenario.Result
}

func (f *flightRec) simS() float64 { return float64(len(f.steps)) / physicsHz }

// probeSpecs returns the first job of each kind in the seed's first
// campaign round, as the server would expand it.
func probeSpecs(seed int64) ([]string, []scenario.Spec, error) {
	jobs := campaignRound(seed, 0, len(campaignKinds))
	kinds := make([]string, len(jobs))
	specs := make([]scenario.Spec, len(jobs))
	for i, j := range jobs {
		var js fleet.JobSpec
		if err := json.Unmarshal(j.encode(), &js); err != nil {
			return nil, nil, err
		}
		kinds[i], specs[i] = j.Workload.Kind, js.Scenario()
	}
	return kinds, specs, nil
}

// recordFlight flies spec once, recording every step's inputs.
func recordFlight(kind string, spec scenario.Spec) (*flightRec, error) {
	fr := &flightRec{kind: kind, spec: spec}
	spec.Observers = append(spec.Observers[:len(spec.Observers):len(spec.Observers)],
		func(a *autopilot.Autopilot, dt float64) {
			q := a.Quad()
			fr.steps = append(fr.steps, stepRec{t: a.Time(), s: q.State(), thrust: q.MotorThrusts(), totalW: a.TotalPowerW()})
		})
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("record %s flight: %w", kind, err)
	}
	fr.res = res
	return fr, nil
}

// runProbes measures every per-layer metric the final JSON line of a traced
// run carries.
func runProbes(seed int64) *result {
	res := &result{}
	kinds, specs, err := probeSpecs(seed)
	if err != nil {
		res.fail("probe specs: %v", err)
		return res
	}
	var flights []*flightRec
	for i, spec := range specs {
		fr, err := recordFlight(kinds[i], spec)
		if err != nil {
			res.fail("%v", err)
			return res
		}
		flights = append(flights, fr)
	}
	replayLayers(res, flights)
	tickProbe(res, specs)
	buildProbe(res, kinds, specs)
	digestProbe(res, flights)
	slamProbe(res)
	microProbe(res, seed)
	return res
}

// layerPass is one replayed layer: run does one full pass over every
// recorded flight and returns the number of public calls it made. The
// battery, plant and sensors counts, and recording's per-step Observe, are
// fixed by the replay loop itself (one call set per physics step); only the
// estimation count (sensor rates) and the control count (control rates)
// follow what the program exposes.
type layerPass struct {
	name string
	run  func() (calls int, err error)
}

// replayLayers times each flight-step layer's public calls on fresh
// instances fed the recorded inputs, and reports per-sim-second cost and
// call counts plus how much of a real tick the layers account for.
//
// Stand-ins for inputs that are not public are documented at each pass.
func replayLayers(res *result, flights []*flightRec) {
	simS := 0.0
	for _, f := range flights {
		simS += f.simS()
	}
	dt := 1.0 / physicsHz

	// Sensor outputs recorded by the sensors pass, replayed into the
	// estimator in the order Autopilot.Step delivers them.
	type sensorEvent struct {
		kind byte // 'i' IMU, 'g' GPS, 'b' baro, 'm' mag
		imu  sensors.IMUSample
		gps  sensors.GPSSample
		v    float64
	}
	var events [][]sensorEvent
	var imuDt, magDt float64

	passes := []layerPass{
		{"battery", func() (int, error) {
			calls := 0
			for _, f := range flights {
				b := f.spec.Battery // drawJob sets every field
				pack, err := power.NewPack(b.Cells, b.CapacityMah, b.CRating)
				if err != nil {
					return 0, err
				}
				for _, s := range f.steps {
					pack.DrawPower(s.totalW, dt)
				}
				calls += len(f.steps)
			}
			return calls, nil
		}},
		// Plant stand-in: the commanded thrusts are private, so the replay
		// commands the recorded rotor thrusts; open-loop integration drifts,
		// so the quad is re-placed on the recorded position every second.
		// Delivery payload changes are not replayed.
		{"plant", func() (int, error) {
			calls := 0
			for _, f := range flights {
				q, err := sim.NewQuad(sim.DefaultConfig())
				if err != nil {
					return 0, err
				}
				if f.spec.Wind.MeanMS > 0 {
					q.SetEnvironment(sim.WindyEnvironment(f.spec.Seed, f.spec.Wind.MeanMS, f.spec.Wind.GustMS))
				} else {
					q.SetEnvironment(sim.NewEnvironment(f.spec.Seed))
				}
				for i, s := range f.steps {
					if i%resyncSteps == 0 {
						q.Teleport(s.s.Pos)
					}
					q.CommandThrusts(s.thrust)
					q.Step(dt)
					q.ElectricalPowerW()
				}
				calls += 3 * len(f.steps)
			}
			return calls, nil
		}},
		// Sensors: every Sample* each step on the state before the step, as
		// Autopilot.Step does; the world acceleration is the recorded
		// velocity difference.
		{"sensors", func() (int, error) {
			events = events[:0]
			calls := 0
			for _, f := range flights {
				suite := sensors.NewSuite(f.spec.Seed)
				imuDt, magDt = 1/suite.IMU.RateHz, 1/suite.Mag.RateHz
				ev := make([]sensorEvent, 0, len(f.steps)/4)
				var prevVel mathx.Vec3
				for _, s := range f.steps {
					acc := s.s.Vel.Sub(prevVel).Scale(physicsHz)
					prevVel = s.s.Vel
					if imu, ok := suite.SampleIMU(s.t, s.s, acc); ok {
						ev = append(ev, sensorEvent{kind: 'i', imu: imu})
					}
					if fix, ok := suite.SampleGPS(s.t, s.s); ok {
						ev = append(ev, sensorEvent{kind: 'g', gps: fix})
					}
					if alt, ok := suite.SampleBaro(s.t, s.s); ok {
						ev = append(ev, sensorEvent{kind: 'b', v: alt})
					}
					if yaw, ok := suite.SampleMagYaw(s.t, s.s); ok {
						ev = append(ev, sensorEvent{kind: 'm', v: yaw})
					}
				}
				events = append(events, ev)
				calls += 4 * len(f.steps)
			}
			return calls, nil
		}},
		{"estimation", func() (int, error) {
			calls := 0
			for _, ev := range events {
				est := estimation.NewEstimator()
				for _, e := range ev {
					switch e.kind {
					case 'i':
						est.OnIMU(e.imu, imuDt)
					case 'g':
						est.OnGPS(e.gps)
					case 'b':
						est.OnBaro(e.v)
					case 'm':
						est.OnMag(e.v, magDt)
					}
				}
				calls += len(ev)
			}
			return calls, nil
		}},
		// Control stand-ins: the true state stands in for the estimate, and
		// the position target (private autopilot state) is the recorded
		// position one second ahead. All three loops run at the Table 2b
		// rates on every step, armed or not.
		{"control", func() (int, error) {
			rates := control.DefaultRates()
			posEvery := int(physicsHz/rates.PositionHz + 0.5)
			attEvery := int(physicsHz/rates.AttitudeHz + 0.5)
			calls := 0
			for _, f := range flights {
				q, err := sim.NewQuad(sim.DefaultConfig())
				if err != nil {
					return 0, err
				}
				c := control.NewCascade(q)
				for i, s := range f.steps {
					if i%posEvery == 0 {
						tgt := f.steps[min(i+targetLeadSteps, len(f.steps)-1)].s.Pos
						c.UpdatePosition(s.s, control.Targets{Position: tgt}, float64(posEvery)*dt)
						calls++
					}
					if i%attEvery == 0 {
						c.UpdateAttitude(s.s, float64(attEvery)*dt)
						calls++
					}
					c.UpdateRate(s.s, dt)
					calls++
				}
			}
			return calls, nil
		}},
		// Recording: the oscilloscope sees every step's total power; MAVLink
		// telemetry is encoded at the built stack's telemetry cadence from a
		// freshly built (unflown) autopilot of the same spec, a stand-in for
		// the flying one, and published to a hub with no subscribers, as
		// fleetd jobs are.
		{"recording", func() (int, error) {
			calls := 0
			for _, f := range flights {
				st, err := scenario.Build(f.spec)
				if err != nil {
					return 0, err
				}
				rec := trace.NewOscilloscope(f.spec.Seed)
				rec.Reserve(f.simS())
				hub := groundstation.NewHub()
				var seq uint8
				every := st.Spec.Telemetry.EverySteps
				for i, s := range f.steps {
					rec.Observe(s.t, s.totalW)
					calls++
					if i%every == 0 {
						raw, err := st.Autopilot.Telemetry(&seq)
						if err != nil {
							return 0, err
						}
						hub.Publish(raw)
						calls += 2
					}
				}
				hub.Close()
			}
			return calls, nil
		}},
	}

	sum := 0.0
	for _, p := range passes {
		var walls []float64
		calls := 0
		for r := 0; r < replayReps; r++ {
			t0 := time.Now()
			n, err := p.run()
			walls = append(walls, float64(time.Since(t0).Nanoseconds()))
			if err != nil {
				res.fail("replay %s: %v", p.name, err)
				return
			}
			calls = n
		}
		ns := median(walls) / simS
		sum += ns
		res.add("step."+p.name+"_ns_per_sim_s", ns, "ns", len(walls))
		res.add("step."+p.name+"_calls_per_sim_s", float64(calls)/simS, "calls/sim-s", 0)
	}
	res.add("step.replay_sim_s", simS, "sim-s", len(flights))
	res.add("step.layers_ns_per_sim_s", sum, "ns", 0)
}

// tickProbe flies each probe spec as a one-lane batch — serial, so the
// figure is a single core's cost — and reports wall time per lane-step.
// Build happens outside the timer.
func tickProbe(res *result, specs []scenario.Spec) {
	var ns, steps float64
	for _, spec := range specs {
		for r := 0; r < tickReps; r++ {
			st, err := scenario.Build(spec)
			if err != nil {
				res.fail("tick probe build: %v", err)
				return
			}
			b := scenario.NewBatchOf(st)
			t0 := time.Now()
			for !b.TickN(tickStride) {
			}
			ns += float64(time.Since(t0).Nanoseconds())
			steps += math.Round(st.SimTimeS() * physicsHz)
		}
	}
	tick := ns / steps
	res.add("scenario.tick_ns_per_lane_step", tick, "ns", len(specs)*tickReps)
	if layers, ok := res.get("step.layers_ns_per_sim_s"); ok {
		res.add("step.replay_coverage", layers.Value/(tick*physicsHz), "ratio", 0)
	}
}

// buildProbe times scenario.Build per kind.
func buildProbe(res *result, kinds []string, specs []scenario.Spec) {
	for i, spec := range specs {
		var walls []float64
		for r := 0; r < buildReps; r++ {
			t0 := time.Now()
			if _, err := scenario.Build(spec); err != nil {
				res.fail("build %s: %v", kinds[i], err)
				return
			}
			walls = append(walls, ms(time.Since(t0)))
		}
		res.add("scenario.build_ms."+kinds[i], median(walls), "ms", len(walls))
	}
}

// digestProbe times fleet.DigestResult on the recorded flights' results.
func digestProbe(res *result, flights []*flightRec) {
	var walls []float64
	for _, f := range flights {
		for r := 0; r < digestReps; r++ {
			t0 := time.Now()
			fleet.DigestResult(f.res)
			walls = append(walls, ms(time.Since(t0)))
		}
	}
	res.add("fleet.digest_ms_p50", median(walls), "ms", len(walls))
}

// slamProbe runs the first EuRoC sequence through slam.RunSequence for the
// cost per charged op, then times the front-end and local-BA kernels on
// slam.BenchHarness.
func slamProbe(res *result) {
	seq, err := dataset.Generate(dataset.EuRoCSpecs()[0])
	if err != nil {
		res.fail("slam probe: %v", err)
		return
	}
	t0 := time.Now()
	r := slam.RunSequence(seq)
	wall := time.Since(t0)
	res.add("slam.ns_per_op", float64(wall.Nanoseconds())/float64(r.Stats.TotalOps()), "ns", 0)

	h := slam.NewBenchHarness(seq, slamWarm)
	kernel := func(name string, fn func()) {
		var walls []float64
		for i := 0; i < slamKernelRep; i++ {
			t0 := time.Now()
			fn()
			walls = append(walls, ms(time.Since(t0)))
		}
		res.add("slam."+name+"_ms", median(walls), "ms", len(walls))
	}
	kernel("detect", func() { h.Detect() })
	kernel("match", func() { h.MatchByProjection() })
	kernel("local_ba", func() { h.LocalBA() })
}

// microProbe reports the microarchitecture simulator's speed on the
// autopilot workload.
func microProbe(res *result, seed int64) {
	var rates []float64
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		m := microarch.RunSolo(microarch.NewAutopilotWorkload(seed), microIters)
		rates = append(rates, float64(m.Instructions)/time.Since(t0).Seconds())
	}
	res.add("microarch.sim_instr_per_s", median(rates), "instr/s", len(rates))
}
