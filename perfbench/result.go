package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metric is one reported number. N is the sample count behind a percentile,
// median or mean (0 when the value is a total or a ratio of totals).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one workload pass produces: units attempted and failed,
// the reason for each failure, and its metrics in print order.
type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// merge appends o's counts, failures, metrics and notes to r.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.metrics = append(r.metrics, o.metrics...)
	r.notes = append(r.notes, o.notes...)
}

// correct reports whether every unit passed and every check held.
func (r *result) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// gated names the metrics the final JSON line carries, with their units:
// BENCHMARK.json's end_to_end list for untraced runs, its per_layer list
// for traced runs. Keep the three in step.
var gatedEndToEnd = []string{"setup_s", "cpu_ms_per_job", "job_ms_p50", "heap_retained_mb"}

var gatedPerLayer = []string{
	"step.battery_ns_per_sim_s", "step.plant_ns_per_sim_s", "step.sensors_ns_per_sim_s",
	"step.estimation_ns_per_sim_s", "step.control_ns_per_sim_s", "step.recording_ns_per_sim_s",
	"step.estimation_calls_per_sim_s", "step.control_calls_per_sim_s",
	"step.replay_coverage", "scenario.tick_ns_per_lane_step",
	"scenario.build_ms.box", "scenario.build_ms.coverage", "scenario.build_ms.delivery",
	"scenario.build_ms.follow", "scenario.build_ms.hover",
	"fleet.digest_ms_p50", "slam.ns_per_op", "slam.detect_ms", "slam.match_ms",
	"slam.local_ba_ms", "microarch.sim_instr_per_s",
}

// printReport writes the human-readable report: host record, every metric
// with its unit and sample count, notes and failures.
func printReport(w io.Writer, workload string, host hostInfo, r *result) {
	fmt.Fprintf(w, "workload: %s\n", workload)
	fmt.Fprintln(w, host)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-40s %16.6g %s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	const maxShown = 20
	for i, f := range r.failures {
		if i == maxShown {
			fmt.Fprintf(w, "FAIL: ... and %d more\n", len(r.failures)-maxShown)
			break
		}
		fmt.Fprintln(w, "FAIL:", f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summaryLine renders the final JSON line with exactly the named metrics.
// A missing or non-finite metric is an error: the run cannot be scored.
func summaryLine(r *result, names []string) (string, error) {
	out := jsonLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(names))}
	var missing []string
	for _, n := range names {
		m, ok := r.get(n)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}
