package components

// WeightItem is one slice of the open-source drone's weight breakdown
// (Figure 14).
type WeightItem struct {
	Name    string
	WeightG float64
}

// OurDroneBreakdown reproduces Figure 14: the weight breakdown of the
// paper's open-source 450 mm drone (Crazepony F450 frame, Navio2 + RPi).
func OurDroneBreakdown() []WeightItem {
	return []WeightItem{
		{"Frame", 272},
		{"Battery", 248},
		{"Motors", 220},
		{"ESC", 112},
		{"RPi", 50},
		{"Propellers", 40},
		{"GPS", 30},
		{"Navio2", 23},
		{"Misc", 20},
		{"RC Receiver", 17},
		{"Telemetry", 15},
		{"Power Module", 15},
		{"PPM Encoder", 9},
	}
}

// OurDroneTotalWeightG sums the Figure 14 breakdown (~1061 g).
func OurDroneTotalWeightG() float64 {
	total := 0.0
	for _, it := range OurDroneBreakdown() {
		total += it.WeightG
	}
	return total
}

// OurDrone returns the open-source platform as a commercial-drone-style
// record for plotting against the Figure 10b sweep. The paper's measured
// averages: 130 W whole-drone in flight, 3000 mAh 3S battery, RPi+Navio2
// compute.
func OurDrone() CommercialDrone {
	return CommercialDrone{
		Name:             "Our Drone (open-source F450)",
		TakeoffWeightG:   OurDroneTotalWeightG(),
		BatteryWh:        33.3, // 3000 mAh x 11.1 V
		Cells:            3,
		RatedFlightMin:   13,
		WheelbaseClassMM: 450,
		LightComputeW:    4.14, // RPi 3.39 W autopilot + Navio2 0.75 W
		HeavyComputeW:    5.31, // + SLAM active (RPi at 4.56 W)
	}
}
