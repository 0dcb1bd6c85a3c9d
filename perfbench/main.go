// Command perfbench is the repository's benchmark. One command runs one
// named workload, prints every end-to-end metric with its unit, and checks
// that the outputs are correct:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	campaign       fleetd batch throughput: 320 mixed long missions per round
//	tenant_loop    fleetd control plane: 32 closed-loop tenants, short jobs
//	paper_figures  every table and figure behind `figures -fig all`
//
// --trace 1 runs the workload once untraced and once traced, writes the
// traced pass's spans to a JSON-lines file, reports the tracing overhead,
// and runs the per-layer probes. The last line of standard output is always
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// status is non-zero when any output fails its check.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"dronedse/parallelx"
)

// workloads are the names --workload accepts.
var workloads = map[string]bool{"campaign": true, "tenant_loop": true, "paper_figures": true}

// A run's work is fixed by --seconds through these reference rates, measured
// on a calm 2-vCPU Xeon host: a run of a given seed and --seconds always
// flies the same jobs, taking about --seconds there (longer under CPU steal,
// shorter on a faster host). Fixed work keeps memory and latency figures
// comparable between runs; a time-boxed run would fly fewer jobs when slow.
const (
	campaignRoundRefS = 8  // one campaign round of 320 jobs
	tenantJobsRefPerS = 90 // closed-loop tenant_loop jobs per second
	figuresRoundRefS  = 20 // one full regeneration of every figure
)

// workUnits is how many units of refS seconds fit in seconds (at least one).
func workUnits(seconds, refS float64) int { return max(1, int(seconds/refS)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// figuresBin is the cmd/figures binary whose start-up paper_figures
	// times as its set-up (run.sh builds it into --out).
	figuresBin string
	// scale shrinks the fleet workloads and the SLAM suite. The command
	// always runs at 1, the benchmark as defined; the self-tests build
	// options with a smaller scale and call runOptions.
	scale float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return runOptions(opts, stdout, stderr)
}

// runOptions runs one workload, prints the report and the final JSON line,
// and returns the exit status.
func runOptions(opts options, stdout, stderr io.Writer) int {
	r, host, err := execute(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, opts.workload, host, r)
	names := gatedEndToEnd
	if opts.trace {
		names = gatedPerLayer
	}
	line, err := summaryLine(r, names)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !r.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d units failed their checks\n", r.failed, r.attempted)
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: campaign, tenant_loop or paper_figures")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the job list is a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", 30, "work size per pass, as seconds on the reference host")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run with per-layer metrics and a span file")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory holding the built cmd/figures; scratch journals and span files go here too")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !workloads[o.workload] {
		return o, fmt.Errorf("unknown workload %q (want campaign, tenant_loop or paper_figures)", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	o.figuresBin = filepath.Join(o.out, "figures")
	return o, nil
}

// execute runs the workload (twice plus the probes when traced) and
// returns the combined result and the host record.
func execute(o options) (*result, hostInfo, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallelx.SetPoolSize(runtime.NumCPU())
	scratch := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, hostInfo{}, err
	}
	runDir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, hostInfo{}, err
	}
	defer os.RemoveAll(runDir)

	ticks0, ok0 := readCPUTicks()
	base, err := pass(o, runDir, nil)
	if err != nil {
		return nil, hostInfo{}, err
	}
	r := base
	if o.trace {
		tr := newTracer()
		traced, err := pass(o, runDir, tr)
		if err != nil {
			return nil, hostInfo{}, err
		}
		probes := runProbes(o.seed)
		r = &result{}
		r.merge(base)
		r.merge(probes)
		// Layer metrics (dotted names) come from the traced pass; its
		// end-to-end numbers are kept apart, since tracing perturbs them.
		for _, m := range traced.metrics {
			if !strings.Contains(m.Name, ".") {
				m.Name = "traced." + m.Name
			}
			r.metrics = append(r.metrics, m)
		}
		r.attempted += traced.attempted
		r.failed += traced.failed
		r.failures = append(r.failures, traced.failures...)
		overhead(r, base, traced, o.workload)
		spanFile := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(spanFile); err != nil {
			return nil, hostInfo{}, err
		}
		r.add("trace.spans", float64(tr.count()), "count", 0)
		r.note("span file: %s", spanFile)
	}
	ticks1, ok1 := readCPUTicks()
	return r, newHostInfo(stealShare(ticks0, ticks1, ok0, ok1)), nil
}

// pass runs the workload once, traced when tr is non-nil.
func pass(o options, dir string, tr *tracer) (*result, error) {
	if o.workload == "paper_figures" {
		seqs := 0
		if o.scale < 1 {
			seqs = 2
		}
		return runFigures(o.seconds, seqs, o.figuresBin, tr)
	}
	return runFleet(o.workload, fleetOpts{
		seed: o.seed, seconds: o.seconds, scale: o.scale, dir: dir, tr: tr,
	})
}

// overhead reports the traced pass's slowdown on the workload's headline
// rate: sim_s_per_s on the fleet workloads, figures_s on paper_figures.
func overhead(r, base, traced *result, workload string) {
	name, higherBetter := "sim_s_per_s", true
	if workload == "paper_figures" {
		name, higherBetter = "figures_s", false
	}
	b, ok1 := base.get(name)
	t, ok2 := traced.get(name)
	if !ok1 || !ok2 || b.Value == 0 {
		return
	}
	frac := (b.Value - t.Value) / b.Value
	if !higherBetter {
		frac = -frac
	}
	r.add("trace.untraced_"+name, b.Value, b.Unit, 0)
	r.add("trace.overhead_frac", frac, "ratio", 0)
	r.note("tracing overhead: %s untraced %.4g, traced %.4g %s: %+.1f%% (positive = traced slower; one pair of passes, untraced first)",
		name, b.Value, t.Value, b.Unit, 100*frac)
}
