package microarch_test

// Golden-metrics test: pins the exact %+v of every study the figures and
// the roofline ceilings read from the simulator. %+v prints floats in
// shortest round-trip form, so any change to a counter, a victim choice or
// the float accumulation order shows up as a diff. Regenerate deliberately
// with
//
//	GOLDEN_UPDATE=1 go test ./microarch/ -run Golden
//
// after an intentional change to the model.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dronedse/microarch"
	"dronedse/roofline"
)

var updateGoldens = os.Getenv("GOLDEN_UPDATE") != ""

const metricsGoldenPath = "testdata/metrics_golden.txt"

func goldenMetrics() string {
	var b strings.Builder
	line := func(name string, v any) { fmt.Fprintf(&b, "%s = %+v\n", name, v) }
	line("RunFigure15(1, 30000)", microarch.RunFigure15(1, 30000))
	line("RunIsolationStudy(1, 30000)", microarch.RunIsolationStudy(1, 30000))
	line("RunPrefetchAblation(autopilot seed 1, 30000)", microarch.RunPrefetchAblation(
		func() microarch.Workload { return microarch.NewAutopilotWorkload(1) }, 30000))
	line("RunPrefetchAblation(SLAM seed 2, 30000)", microarch.RunPrefetchAblation(
		func() microarch.Workload { return microarch.NewSLAMWorkload(2) }, 30000))
	line("RunFigure15(7, 5000)", microarch.RunFigure15(7, 5000))
	line("roofline.StreamEfficiency()", roofline.StreamEfficiency())
	return b.String()
}

func TestMetricsGolden(t *testing.T) {
	got := goldenMetrics()
	if updateGoldens {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", metricsGoldenPath)
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1 go test ./microarch/ -run Golden)", err)
	}
	if got != string(want) {
		t.Fatalf("metrics drifted from %s — if the change is intentional, regenerate with GOLDEN_UPDATE=1.\n--- got ---\n%s\n--- want ---\n%s",
			metricsGoldenPath, got, want)
	}
}
