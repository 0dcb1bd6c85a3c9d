package power_test

import (
	"math"
	"testing"

	"dronedse/autopilot"
	"dronedse/power"
	"dronedse/scenario"
)

// refPack is the per-step oracle: the pack model with the OCV curve and the
// Peukert factor evaluated by math.Pow on every call. It keeps no memo and
// no refresh window, so it is the model's ground truth.
type refPack struct {
	cells                        int
	capacityMah, dischargeC, kPk float64
	usedMah                      float64
}

func newRefPack(cells int, capacityMah, dischargeC float64) *refPack {
	return &refPack{cells: cells, capacityMah: capacityMah, dischargeC: dischargeC, kPk: 1.05}
}

func (p *refPack) soc() float64 {
	if s := 1 - p.usedMah/p.capacityMah; s > 0 {
		return s
	}
	return 0
}

func (p *refPack) voltage() float64 {
	return (3.3 + 0.9*math.Pow(p.soc(), 0.6)) * float64(p.cells)
}

func (p *refPack) drained() bool { return p.usedMah >= p.capacityMah*0.85 }

func (p *refPack) draw(currentA, dt float64) {
	if currentA < 0 {
		currentA = 0
	}
	if max := p.capacityMah / 1000 * p.dischargeC; currentA > max {
		currentA = max
	}
	eff := currentA
	if p.kPk > 1 && currentA > 0 {
		if ratio := currentA / (p.capacityMah / 1000); ratio > 1 {
			eff = currentA * math.Pow(ratio, p.kPk-1)
		}
	}
	p.usedMah += eff * 1000 * dt / 3600
}

func (p *refPack) drawPower(watts, dt float64) { p.draw(watts/p.voltage(), dt) }

// Oracle tolerances: the pack may lag the per-step model by at most this
// much state of charge and pack voltage at any step, and its drain step may
// differ from the oracle's by at most this fraction.
const (
	oracleSoCTol   = 1e-5
	oracleVoltsTol = 1e-3
	oracleDrainTol = 0.001
)

// checkStep compares the pack against the oracle after one step.
func checkStep(t *testing.T, label string, step int, p *power.Pack, ref *refPack) {
	t.Helper()
	if d := math.Abs(p.StateOfCharge() - ref.soc()); d > oracleSoCTol {
		t.Fatalf("%s step %d: |ΔSoC| = %.3g > %g", label, step, d, oracleSoCTol)
	}
	if d := math.Abs(p.Voltage() - ref.voltage()); d > oracleVoltsTol {
		t.Fatalf("%s step %d: |ΔV| = %.3g V > %g", label, step, d, oracleVoltsTol)
	}
}

// TestPackMatchesOracleOnBoxFlight replays the whole-drone power of the
// reference box flight, recorded at the 1 kHz physics rate through a step
// observer, into a fresh pack and into the oracle.
func TestPackMatchesOracleOnBoxFlight(t *testing.T) {
	var watts, dts []float64
	spec := scenario.Spec{Seed: 1}
	spec.Observers = append(spec.Observers, func(a *autopilot.Autopilot, dt float64) {
		watts = append(watts, a.TotalPowerW())
		dts = append(dts, dt)
	})
	if _, err := scenario.Run(spec); err != nil {
		t.Fatal(err)
	}
	if len(watts) < 10000 {
		t.Fatalf("recorded only %d steps", len(watts))
	}
	p, err := power.NewPack(3, 3000, 30)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefPack(3, 3000, 30)
	for i, w := range watts {
		p.DrawPower(w, dts[i])
		ref.drawPower(w, dts[i])
		checkStep(t, "box", i, p, ref)
	}
}

// TestPackMatchesOracleConstantDraw runs constant 1C, 3C and 6C draws at
// 1 kHz until the drain limit; the pack must track the oracle at every step
// and hit the limit on (nearly) the same step.
func TestPackMatchesOracleConstantDraw(t *testing.T) {
	const dt = 1e-3
	for _, c := range []float64{1, 3, 6} {
		amps := 3 * c // 3000 mAh pack
		p, _ := power.NewPack(3, 3000, 30)
		ref := newRefPack(3, 3000, 30)
		steps, refSteps := 0, 0
		for i := 0; (!p.Drained() || !ref.drained()) && i < 4e6; i++ {
			if !p.Drained() {
				p.Draw(amps, dt)
				steps++
			}
			if !ref.drained() {
				ref.draw(amps, dt)
				refSteps++
			}
			if !p.Drained() && !ref.drained() {
				checkStep(t, "constant", i, p, ref)
			}
		}
		if !p.Drained() || !ref.drained() {
			t.Fatalf("%gC: never drained", c)
		}
		if d := math.Abs(float64(steps-refSteps)) / float64(refSteps); d > oracleDrainTol {
			t.Errorf("%gC: drained at step %d, oracle %d (%.3g%% apart)", c, steps, refSteps, 100*d)
		}
	}
}

// TestPackSubWindowStaleness pins the staleness bound of the pack's refresh
// cadence: draws shorter than the refresh window integrate charge exactly
// but leave the voltage where the last refresh put it, and even at the
// C-rating ceiling near the drain limit, where the OCV curve is steepest,
// that lag stays inside the oracle's voltage tolerance.
func TestPackSubWindowStaleness(t *testing.T) {
	p, _ := power.NewPack(3, 3000, 30)
	ref := newRefPack(3, 3000, 30)
	amps := p.MaxContinuousCurrentA()
	for !ref.drained() {
		ref.draw(amps, 1e-3)
		p.Draw(amps, 1e-3)
	}
	worst := 0.0
	for i := 0; i < 100; i++ {
		p.Draw(amps, 1e-3)
		ref.draw(amps, 1e-3)
		if d := math.Abs(p.Voltage() - ref.voltage()); d > worst {
			worst = d
		}
		if d := math.Abs(p.StateOfCharge() - ref.soc()); d > oracleSoCTol {
			t.Fatalf("step %d: |ΔSoC| = %.3g > %g", i, d, oracleSoCTol)
		}
	}
	if worst > oracleVoltsTol {
		t.Fatalf("worst sub-window voltage lag %.3g V > %g at the C-rating ceiling", worst, oracleVoltsTol)
	}

	// On a fresh pack, draws adding up to less than one window leave the
	// voltage where the first read put it; completing the window re-prices it.
	q, _ := power.NewPack(3, 3000, 30)
	v0 := q.Voltage()
	q.Draw(amps, 0.004)
	q.Draw(amps, 0.004)
	if v := q.Voltage(); v != v0 {
		t.Fatalf("voltage re-priced inside the window: %v -> %v", v0, v)
	}
	q.Draw(amps, 0.004)
	if v := q.Voltage(); v >= v0 {
		t.Fatalf("voltage not re-priced after a full window: %v -> %v", v0, v)
	}
}

func BenchmarkPackDrawPower(b *testing.B) {
	p, _ := power.NewPack(3, 3000, 30)
	for b.Loop() {
		if p.Drained() {
			p.Reset()
		}
		p.DrawPower(150, 1e-3)
	}
}
