package components

import "dronedse/units"

// CommercialDrone is a released product used to validate the model, as in
// Figures 10 and 11 ("We validate our data by adding commercial drone data
// using the released flight times and battery configurations"). Power is not
// published by vendors; like the paper, it is derived from usable battery
// energy over rated flight time.
type CommercialDrone struct {
	Name string
	// TakeoffWeightG is the all-up weight in grams.
	TakeoffWeightG float64
	// BatteryWh is the rated battery energy in watt-hours.
	BatteryWh float64
	// Cells is the battery's series cell count.
	Cells int
	// RatedFlightMin is the manufacturer's hovering flight time in
	// minutes.
	RatedFlightMin float64
	// WheelbaseClassMM maps the product onto the nearest studied
	// wheelbase sweep (100/450/800 mm).
	WheelbaseClassMM float64
	// LightComputeW is the estimated light-compute (video pipeline +
	// control) electronics power.
	LightComputeW float64
	// HeavyComputeW is the estimated electronics power under heavy
	// computation (SLAM-class workloads, recognition, HD recording);
	// §5.1 measures ~+1.2-2 W for SLAM-class load on an RPi.
	HeavyComputeW float64
}

// HoverPowerW derives average hover power from the usable battery energy
// (85% drain limit) over the rated flight time.
func (d CommercialDrone) HoverPowerW() float64 {
	if d.RatedFlightMin <= 0 {
		return 0
	}
	return d.BatteryWh * units.LiPoDrainLimit / (d.RatedFlightMin / 60)
}

// ManeuverPowerW scales hover power by the flying-load ratio: the paper's
// whole-drone trace (Figure 16b) shows power tracks the current load nearly
// linearly (130 W at 30% load to 250 W at 58%).
func (d CommercialDrone) ManeuverPowerW() float64 {
	return d.HoverPowerW() * (0.58 / 0.30)
}

// HeavyComputeSharePct is Figure 11's yellow line: the share of total hover
// power consumed when the electronics run heavy computation.
func (d CommercialDrone) HeavyComputeSharePct() float64 {
	p := d.HoverPowerW()
	if p <= 0 {
		return 0
	}
	return 100 * d.HeavyComputeW / p
}

// BaseComputeSharePct is the light-compute share of hover power (paper:
// 2-7% when hovering).
func (d CommercialDrone) BaseComputeSharePct() float64 {
	p := d.HoverPowerW()
	if p <= 0 {
		return 0
	}
	return 100 * d.LightComputeW / p
}

// CommercialDrones returns the validation set used across Figures 10 and 11,
// with published weights, battery energies, and rated flight times.
func CommercialDrones() []CommercialDrone {
	return []CommercialDrone{
		{Name: "Parrot Mambo", TakeoffWeightG: 63, BatteryWh: 2.4, Cells: 1, RatedFlightMin: 8, WheelbaseClassMM: 100, LightComputeW: 0.5, HeavyComputeW: 1.8},
		{Name: "Parrot Anafi", TakeoffWeightG: 320, BatteryWh: 20.9, Cells: 2, RatedFlightMin: 25, WheelbaseClassMM: 100, LightComputeW: 1.2, HeavyComputeW: 3.6},
		{Name: "DJI Spark", TakeoffWeightG: 300, BatteryWh: 16.9, Cells: 3, RatedFlightMin: 16, WheelbaseClassMM: 100, LightComputeW: 1.5, HeavyComputeW: 4.8},
		{Name: "DJI Mavic Air", TakeoffWeightG: 430, BatteryWh: 27.4, Cells: 3, RatedFlightMin: 21, WheelbaseClassMM: 450, LightComputeW: 2.0, HeavyComputeW: 6.5},
		{Name: "Parrot Bebop 2", TakeoffWeightG: 500, BatteryWh: 30.0, Cells: 3, RatedFlightMin: 25, WheelbaseClassMM: 450, LightComputeW: 1.8, HeavyComputeW: 5.5},
		{Name: "SKYDIO 2", TakeoffWeightG: 775, BatteryWh: 45.6, Cells: 4, RatedFlightMin: 23, WheelbaseClassMM: 450, LightComputeW: 4.0, HeavyComputeW: 13.0},
		{Name: "DJI MAVIC", TakeoffWeightG: 734, BatteryWh: 43.6, Cells: 3, RatedFlightMin: 27, WheelbaseClassMM: 450, LightComputeW: 2.0, HeavyComputeW: 6.0},
		{Name: "DJI Phantom 4", TakeoffWeightG: 1380, BatteryWh: 81.3, Cells: 4, RatedFlightMin: 28, WheelbaseClassMM: 450, LightComputeW: 3.0, HeavyComputeW: 8.0},
		{Name: "DJI MATRICE", TakeoffWeightG: 2355, BatteryWh: 99.9, Cells: 6, RatedFlightMin: 22, WheelbaseClassMM: 800, LightComputeW: 5.0, HeavyComputeW: 12.0},
	}
}

// Figure11Drones returns the six small commercial drones of Figure 11 in the
// paper's plotting order.
func Figure11Drones() []CommercialDrone {
	order := []string{
		"Parrot Mambo", "Parrot Anafi", "DJI Spark",
		"DJI Mavic Air", "Parrot Bebop 2", "SKYDIO 2",
	}
	all := CommercialDrones()
	byName := make(map[string]CommercialDrone, len(all))
	for _, d := range all {
		byName[d.Name] = d
	}
	out := make([]CommercialDrone, 0, len(order))
	for _, n := range order {
		out = append(out, byName[n])
	}
	return out
}
