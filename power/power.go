// Package power models the drone power-delivery system (§2.1.2): the LiPo
// battery pack with its drain limit, C-rating current ceiling and voltage
// sag, and the ESC conversion stage. The design-space core uses the static
// relationships; the flight simulator uses the stateful Pack to drain energy
// over a mission and produce the Figure 16b whole-drone power trace.
//
// Refresh cadence: Pack integrates charge exactly on every Draw, but prices
// the model's two transcendental terms, the open-circuit voltage curve and
// the Peukert factor, once per 10 ms of drawn time (100 Hz at the 1 kHz
// physics rate). The Peukert factor charged in a window is the one priced
// from the mean current of the window before it; the voltage is the curve at
// the charge the pack held when it was first read after the last refresh.
// Against pricing both terms every step, a flight's state of charge moves by
// well under 1e-5 and its pack voltage by under 1 mV.
//
// Digest contract: the pack feeds nothing back into the plant or any
// trajectory until it reaches the drain limit, and Figure 16's whole-drone
// power does not read it, so flight trajectories and work ledgers are fixed
// points of the refresh cadence. Flight logs record the state of charge, so
// their digests moved once, when the cadence was introduced.
package power

import (
	"errors"
	"math"

	"dronedse/units"
)

// Pack is a stateful LiPo battery pack.
type Pack struct {
	Cells       int
	CapacityMah float64
	DischargeC  float64
	// PeukertK models the Peukert effect: at discharge currents above the
	// 1C reference, the effective charge consumed per amp rises as
	// (I/1C)^(K-1). LiPo chemistry is mild (1.03-1.10); zero disables the
	// effect. High-current racing drains deliver measurably less energy,
	// which is one reason the paper's short-flight ESC class exists.
	PeukertK float64
	// SagVolts is an injected pack-level voltage sag (fault injection: a
	// weak cell or a cold pack). Zero leaves the voltage model untouched.
	SagVolts float64
	// FadeFrac is an injected capacity fade in [0, 1): the fraction of
	// rated capacity lost to cell aging. Zero leaves the model untouched.
	FadeFrac float64
	// usedMah tracks consumed charge.
	usedMah float64

	// Refresh window: the drawn time (s) and charge (A·s) since the last
	// refresh, the Peukert factor priced at that refresh (0 until the first
	// draw after construction or Reset prices its own current), and the
	// refresh count the voltage memo is keyed on.
	winS, winAs float64
	peukert     float64
	epoch       uint64

	// Voltage memo, keyed on (epoch, SagVolts, FadeFrac): the curve is
	// re-read from the charge once per refresh, and an injected fault
	// shows at once.
	vEpoch               uint64
	vSag, vFade, vCached float64
	vValid               bool
}

// refreshS is the drawn time between pricings of the OCV curve and the
// Peukert factor.
const refreshS = 0.010

// MaxCells is the largest series cell count a pack may have (12S).
const MaxCells = 12

// NewPack builds a pack; it validates the configuration.
func NewPack(cells int, capacityMah, dischargeC float64) (*Pack, error) {
	if cells < 1 || cells > MaxCells {
		return nil, errors.New("power: cell count out of range")
	}
	if capacityMah <= 0 {
		return nil, errors.New("power: non-positive capacity")
	}
	if dischargeC <= 0 {
		return nil, errors.New("power: non-positive C rating")
	}
	return &Pack{Cells: cells, CapacityMah: capacityMah, DischargeC: dischargeC, PeukertK: 1.05}, nil
}

// NominalVoltage is the pack's nominal voltage (3.7 V/cell).
func (p *Pack) NominalVoltage() float64 { return units.CellsToVoltage(p.Cells) }

// Voltage returns the sagging pack voltage as a function of state of charge:
// 4.2 V/cell full, ~3.5 V/cell at the 85% drain limit, with the typical flat
// LiPo mid-curve. The charge it reads is at most one refresh window old.
func (p *Pack) Voltage() float64 {
	if p.vValid && p.vEpoch == p.epoch && p.vSag == p.SagVolts && p.vFade == p.FadeFrac {
		return p.vCached
	}
	soc := p.StateOfCharge()
	perCell := 3.3 + 0.9*math.Pow(soc, 0.6) // 4.2 at soc=1, steep near empty
	v := perCell * float64(p.Cells)
	if p.SagVolts != 0 {
		v -= p.SagVolts
		if floor := 3.0 * float64(p.Cells); v < floor {
			v = floor
		}
	}
	p.vEpoch, p.vSag, p.vFade, p.vCached, p.vValid = p.epoch, p.SagVolts, p.FadeFrac, v, true
	return v
}

// SetFault installs (or, with zeros, clears) an injected battery fault:
// a pack-level voltage sag in volts and a capacity fade fraction.
func (p *Pack) SetFault(sagVolts, fadeFrac float64) {
	if sagVolts < 0 {
		sagVolts = 0
	}
	if fadeFrac < 0 {
		fadeFrac = 0
	} else if fadeFrac > 0.95 {
		fadeFrac = 0.95
	}
	p.SagVolts, p.FadeFrac = sagVolts, fadeFrac
}

// effCapacityMah is the rated capacity after any injected fade.
func (p *Pack) effCapacityMah() float64 {
	if p.FadeFrac == 0 {
		return p.CapacityMah
	}
	return p.CapacityMah * (1 - p.FadeFrac)
}

// StateOfCharge returns the remaining fraction of rated capacity in [0,1].
func (p *Pack) StateOfCharge() float64 {
	s := 1 - p.usedMah/p.effCapacityMah()
	if s < 0 {
		return 0
	}
	return s
}

// UsableEnergyWh returns the mission-usable energy at nominal voltage,
// honoring the paper's 85% LiPoDrainLimit (and any injected capacity fade).
func (p *Pack) UsableEnergyWh() float64 {
	return units.MahToWh(p.effCapacityMah(), p.NominalVoltage()) * units.LiPoDrainLimit
}

// MaxContinuousCurrentA is the C-rating current ceiling.
func (p *Pack) MaxContinuousCurrentA() float64 {
	return units.CRatingMaxCurrent(p.CapacityMah, p.DischargeC)
}

// Drained reports whether the pack has hit the 85% drain limit: continuing
// past it damages LiPo chemistry (§2.1.2), so the autopilot must land.
func (p *Pack) Drained() bool {
	return p.usedMah >= p.effCapacityMah()*units.LiPoDrainLimit
}

// Draw consumes current (A) for dt seconds and returns the delivered power
// (W) at the present sagging voltage. Current beyond the C-rating ceiling is
// clamped — a real pack would sag and trip the ESCs.
func (p *Pack) Draw(currentA, dt float64) float64 {
	if currentA < 0 {
		currentA = 0
	}
	if max := p.MaxContinuousCurrentA(); currentA > max {
		currentA = max
	}
	v := p.Voltage()
	if p.peukert == 0 {
		p.peukert = p.peukertFactor(currentA)
	}
	p.usedMah += currentA * p.peukert * 1000 * dt / 3600
	p.winS += dt
	p.winAs += currentA * dt
	if p.winS >= refreshS {
		p.peukert = p.peukertFactor(p.winAs / p.winS)
		p.winS, p.winAs = 0, 0
		p.epoch++
	}
	return currentA * v
}

// peukertFactor is the effective charge drawn per amp at currentA,
// (I/1C)^(K-1) above the 1C current and 1 at or below it.
func (p *Pack) peukertFactor(currentA float64) float64 {
	if p.PeukertK > 1 {
		if ratio := currentA / (p.effCapacityMah() / 1000); ratio > 1 {
			return math.Pow(ratio, p.PeukertK-1)
		}
	}
	return 1
}

// DrawPower consumes energy at the requested electrical power (W) for dt
// seconds, converting through the present voltage, and returns the actual
// power delivered after the current clamp.
func (p *Pack) DrawPower(watts, dt float64) float64 {
	v := p.Voltage()
	if v <= 0 {
		return 0
	}
	return p.Draw(watts/v, dt)
}

// Reset restores a full charge and starts a fresh refresh window.
func (p *Pack) Reset() {
	p.usedMah = 0
	p.winS, p.winAs, p.peukert = 0, 0, 0
	p.epoch++
}

// ESCStage models the speed-controller conversion stage: efficiency and the
// switching frequency requirement (6 x rotor RPM electrical commutation,
// §3.1).
type ESCStage struct {
	Efficiency float64
}

// InputPower returns the battery-side power for a requested motor-side power.
func (e ESCStage) InputPower(motorW float64) float64 {
	if e.Efficiency <= 0 {
		return 0
	}
	return motorW / e.Efficiency
}

// RequiredSwitchingHz returns the commutation frequency for a motor running
// at the given RPM with the given pole-pair count (the paper notes 60-600 kHz
// product ranges; DShot1200 signalling runs at 74.6 kHz).
func RequiredSwitchingHz(rpm float64, polePairs int) float64 {
	if polePairs < 1 {
		polePairs = 1
	}
	return rpm / 60 * float64(polePairs) * 6
}
