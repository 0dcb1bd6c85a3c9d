package scenario_test

import (
	"testing"

	"dronedse/autopilot"
	"dronedse/scenario"
)

// TestBatteryInvariantsPerWorkload checks the pack against physics rather
// than against stored hashes, on every workload kind's reference flight:
// the logged state of charge never rises and stays in [0, 1], and the
// charge the pack lost, priced at the flight's mean pack voltage, accounts
// for the whole-drone energy ledger. The pack side may exceed the ledger by
// the Peukert factor (about 1.05 on the box flight) but never fall short
// of it.
func TestBatteryInvariantsPerWorkload(t *testing.T) {
	for _, spec := range workloadSpecs() {
		kind := spec.Workload.Kind()
		var sumV float64
		var steps int
		spec.Observers = append(spec.Observers, func(a *autopilot.Autopilot, dt float64) {
			sumV += a.Battery().Voltage()
			steps++
		})
		st, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		prev := 1.0
		for i, e := range res.Log.Entries() {
			if e.BatterySoC < 0 || e.BatterySoC > 1 {
				t.Fatalf("%s: log row %d SoC %v outside [0, 1]", kind, i, e.BatterySoC)
			}
			if e.BatterySoC > prev {
				t.Fatalf("%s: log row %d SoC rose %v -> %v", kind, i, prev, e.BatterySoC)
			}
			prev = e.BatterySoC
		}
		packWh := (1 - st.Battery.StateOfCharge()) * st.Battery.CapacityMah / 1000 * sumV / float64(steps)
		ratio := packWh / res.EnergyWh
		t.Logf("%s: pack %.5f Wh / ledger %.5f Wh = %.4f", kind, packWh, res.EnergyWh, ratio)
		if ratio < 1 || ratio > 1.15 {
			t.Errorf("%s: pack-side energy / ledger = %.4f, want in [1, 1.15]", kind, ratio)
		}
	}
}
