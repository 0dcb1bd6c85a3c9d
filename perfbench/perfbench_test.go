package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dronedse/fleet"
)

// reportMetrics names every end-to-end metric a workload's report must print,
// with its unit.
var reportMetrics = map[string]map[string]string{
	"campaign": {
		"setup_s": "s", "jobs_per_s": "jobs/s", "sim_s_per_s": "sim-s/s", "cpu_ms_per_sim_s": "ms",
		"cpu_ms_per_job": "ms", "ack_ms_p50": "ms", "ack_ms_p99": "ms", "job_ms_p50": "ms",
		"job_ms_p99": "ms", "failed_frac": "ratio", "peak_rss_mb": "MB", "heap_retained_mb": "MB",
		"status_read_cpu_frac": "ratio",
	},
	"paper_figures": {
		"setup_s": "s", "figures_s": "s", "figures_cpu_s": "s", "jobs_per_s": "jobs/s",
		"cpu_ms_per_job": "ms", "job_ms_p50": "ms", "job_ms_p99": "ms", "failed_frac": "ratio",
		"peak_rss_mb": "MB", "heap_retained_mb": "MB",
	},
}

func init() { reportMetrics["tenant_loop"] = reportMetrics["campaign"] }

// tracedFleetMetrics are the per-layer names a traced fleet run must print
// on top of the listed probe metrics: the workload's layer metrics and the
// replay-loop call counts that BENCHMARK.json leaves out.
var tracedFleetMetrics = []string{
	"step.battery_calls_per_sim_s", "step.plant_calls_per_sim_s", "step.sensors_calls_per_sim_s",
	"step.recording_calls_per_sim_s",
	"fleet.http.post_jobs_ms_p50", "fleet.http.post_jobs_ms_p99", "fleet.http.get_job_ms_p50",
	"fleet.http.get_job_ms_p99", "fleet.http.requests", "fleet.http.busy_s", "fleet.advance_calls",
	"fleet.advance_busy_s", "fleet.advance_ms_p99", "fleet.advance_ns_per_lane_step",
	"fleet.engine_idle_s", "fleet.live_lanes_mean", "fleet.queued_mean", "fleet.admit_wait_ms_p50",
	"fleet.admit_wait_ms_p99", "journal.bytes_per_job", "journal.records_per_job",
	"trace.overhead_frac", "trace.spans",
}

// tiny are the smallest work sizes that still run every part of a
// workload.
var tiny = map[string]struct{ seconds, scale float64 }{
	"campaign":      {1, 0.02},
	"tenant_loop":   {0.4, 0.07},
	"paper_figures": {1, 0.5},
}

// figuresBin is cmd/figures, built once for the paper_figures set-up.
var figuresBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	figuresBin = filepath.Join(dir, "figures")
	build := exec.Command("go", "build", "-o", figuresBin, "dronedse/cmd/figures")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cmd/figures: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var reportLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)`)

// runTiny runs a workload at tiny size and returns its report lines by
// metric name and the decoded final JSON line.
func runTiny(t *testing.T, workload string, trace bool) (map[string]string, jsonLine) {
	t.Helper()
	size := tiny[workload]
	o := options{workload: workload, seed: 7, seconds: size.seconds, scale: size.scale,
		trace: trace, out: t.TempDir(), figuresBin: figuresBin}
	var stdout, stderr bytes.Buffer
	if code := runOptions(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if m := reportLine.FindStringSubmatch(l); m != nil {
			units[m[1]] = m[3]
		}
	}
	var out jsonLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the summary JSON: %v\n%s", err, lines[len(lines)-1])
	}
	return units, out
}

func checkSummary(t *testing.T, out jsonLine, names []string) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("summary: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(names) {
		t.Errorf("summary has %d metrics, want exactly %d", len(out.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := out.Metrics[n]
		if !ok || m.Unit == "" {
			t.Errorf("summary metric %s missing or without unit", n)
		}
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range []string{"campaign", "tenant_loop", "paper_figures"} {
		t.Run(wl, func(t *testing.T) {
			units, out := runTiny(t, wl, false)
			for name, unit := range reportMetrics[wl] {
				if got, ok := units[name]; !ok || got != unit {
					t.Errorf("report line %s: unit %q (present %v), want %q", name, got, ok, unit)
				}
			}
			checkSummary(t, out, gatedEndToEnd)
		})
	}
}

func TestTracedRunEmitsLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	units, out := runTiny(t, "tenant_loop", true)
	for _, name := range append(append([]string{}, gatedPerLayer...), tracedFleetMetrics...) {
		if _, ok := units[name]; !ok {
			t.Errorf("traced report lacks %s", name)
		}
	}
	checkSummary(t, out, gatedPerLayer)
}

func TestCorruptedDigestRaisesFailedFrac(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		r, err := runFleet("campaign", fleetOpts{seed: 7, seconds: 1, scale: 0.02, dir: t.TempDir(), corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		ff, _ := r.get("failed_frac")
		switch {
		case !corrupt && (r.failed != 0 || ff.Value != 0):
			t.Errorf("clean run: failed=%d failed_frac=%v %v", r.failed, ff.Value, r.failures)
		case corrupt && (r.failed == 0 || ff.Value <= 0 || r.correct()):
			t.Errorf("corrupted digest not caught: failed=%d failed_frac=%v", r.failed, ff.Value)
		}
	}
}

func TestJobListsArePureFunctionsOfSeed(t *testing.T) {
	encodeAll := func(seed int64) []byte {
		var b bytes.Buffer
		for r := 0; r < 2; r++ {
			for _, j := range campaignRound(seed, r, campaignPerRound) {
				b.Write(j.encode())
			}
		}
		for tn := 0; tn < tenants; tn++ {
			for k := 0; k < 64; k++ {
				b.Write(tenantJob(seed, tn, k).encode())
			}
		}
		return b.Bytes()
	}
	a, b := encodeAll(11), encodeAll(11)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different job lists")
	}
	if bytes.Equal(a, encodeAll(12)) {
		t.Fatal("different seeds produced the same job lists")
	}
}

// TestJobsAreDrawnFresh checks that specs repeat only at the stated share:
// one job in dupEvery, and each repeat keeps its slot's kind.
func TestJobsAreDrawnFresh(t *testing.T) {
	seen := map[string]int{}
	total, repeats := 0, 0
	add := func(j wireJob, kind string, dup bool) {
		total++
		if dup {
			repeats++
		}
		if j.Workload.Kind != kind {
			t.Errorf("job %s: kind %s, want the slot's %s", j.encode(), j.Workload.Kind, kind)
		}
		seen[string(j.encode())]++
	}
	for r := 0; r < 3; r++ {
		for i, j := range campaignRound(5, r, campaignPerRound) {
			add(j, campaignKinds[i%len(campaignKinds)], i%dupEvery == dupEvery-1)
		}
	}
	for tn := 0; tn < tenants; tn++ {
		for k := 0; k < 64; k++ {
			kind := "hover"
			if (tn+k)%tenantCycle == 0 {
				kind = "box"
			}
			add(tenantJob(5, tn, k), kind, k%dupEvery == dupEvery-1)
		}
	}
	if len(seen) != total-repeats {
		t.Errorf("%d distinct specs in %d jobs, want %d (only the %d stated repeats)",
			len(seen), total, total-repeats, repeats)
	}
	for key, n := range seen {
		if n > 2 {
			t.Errorf("spec flown %d times: %s", n, key)
		}
	}
	if share := float64(repeats) / float64(total); share > 1.0/dupEvery {
		t.Errorf("repeat share %.3f above 1/%d", share, dupEvery)
	}
}

// TestWireFormIsStable pins the keys the generator may send.
func TestWireFormIsStable(t *testing.T) {
	allowed := map[string]bool{"seed": true, "max_seconds": true, "wind_mean_ms": true,
		"wind_gust_ms": true, "battery_cells": true, "battery_capacity_mah": true,
		"battery_c_rating": true, "workload": true}
	jobs := campaignRound(3, 0, campaignPerRound)
	for k := 0; k < 8; k++ {
		jobs = append(jobs, tenantJob(3, 1, k))
	}
	kinds := map[string]bool{}
	for _, j := range jobs {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(j.encode(), &m); err != nil {
			t.Fatal(err)
		}
		for key := range m {
			if !allowed[key] {
				t.Errorf("job sends key %q", key)
			}
		}
		var wl map[string]any
		if err := json.Unmarshal(m["workload"], &wl); err != nil || len(wl) != 1 || wl["kind"] == nil {
			t.Errorf("workload object %s: want only a kind", m["workload"])
		}
		kinds[j.Workload.Kind] = true
		if j.WindMeanMS < 0 || j.WindMeanMS > maxWindMeanMS || j.WindGustMS > j.WindMeanMS*maxGustFrac ||
			j.BatteryCells < 3 || j.BatteryCells > 4 || j.BatteryCapacityMah < 3000 || j.BatteryCapacityMah > 5000 ||
			j.BatteryCRating < 25 || j.BatteryCRating > 40 {
			t.Errorf("job outside the generator's ranges: %s", j.encode())
		}
	}
	if len(kinds) != len(campaignKinds) {
		t.Errorf("kinds sent: %v", kinds)
	}
}

func TestVerifyGroupsBySpec(t *testing.T) {
	d1 := fleetDigests("a")
	d2 := fleetDigests("b")
	outs := []*outcome{
		{key: "x", kind: "hover", id: 1, st: jobStatus{State: "done", Digests: &d1}},
		{key: "x", kind: "hover", id: 2, st: jobStatus{State: "done", Digests: &d2}},
		{key: "y", kind: "box", id: 3, st: jobStatus{State: "done", Digests: &d1}},
		{key: "z", kind: "hover", id: 4, st: jobStatus{State: "failed", Error: "boom"}},
		{key: "w", kind: "hover", refused: "POST /jobs answered 429"},
	}
	r := &result{}
	// x disagrees within its group (2), y did not complete its box (1),
	// z failed (1), w was refused (1).
	if got := verify(outs, nil, r); got != 5 {
		t.Errorf("verify counted %d failed jobs, want 5: %v", got, r.failures)
	}
}

func fleetDigests(s string) fleet.Digests {
	return fleet.Digests{Trajectory: s, FlightLog: s, Ledger: s}
}

// TestGatedListsMatchBenchmarkJSON keeps the final JSON line in step with
// the metric lists BENCHMARK.json declares.
func TestGatedListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, gatedEndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", got, gatedEndToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, gatedPerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", got, gatedPerLayer)
	}
}
