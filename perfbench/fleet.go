package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dronedse/fleet"
	"dronedse/fleet/journal"
	"dronedse/scenario"
)

// Fleet workload parameters.
const (
	// maxBodyBytes is cmd/fleetd's request-body cap.
	maxBodyBytes = 64 << 20
	// tickStride is the server's default physics steps per engine advance;
	// the traced run drives Advance with it, as Run does.
	tickStride = 250
	// setupReps is how many times a run builds a server to time set-up;
	// the last one serves the workload.
	setupReps = 101
	// campaignPerRound and campaignPerPost shape a campaign round.
	campaignPerRound = 320
	campaignPerPost  = 16
	// campaignPoll is how often the campaign lists all jobs while it waits.
	campaignPoll = 100 * time.Millisecond
	// tenants and tenantPoll shape the closed tenant loop.
	tenants    = 32
	tenantPoll = 20 * time.Millisecond
	// jobTimeout bounds the wait for one job (or one campaign round) so a
	// wedged server fails the run instead of hanging it.
	jobTimeout = 120 * time.Second
	// refsPerKind is how many distinct specs of each kind the correctness
	// gate re-flies in-process.
	refsPerKind = 3
	// calibrateReads is how many back-to-back status reads time the CPU
	// cost of one read after the load.
	calibrateReads = 200
	// statsEvery is the traced run's Stats sampling period.
	statsEvery = 20 * time.Millisecond
	// Trace headers carry the client span and job id to the server-side
	// middleware, so server spans join the client's tree.
	hdrSpan = "X-Perfbench-Span"
	hdrJob  = "X-Perfbench-Job"
)

// mustComplete lists the kinds whose missions must report completed.
var mustComplete = map[string]bool{"box": true, "coverage": true, "delivery": true}

type fleetOpts struct {
	seed    int64
	seconds float64
	scale   float64
	dir     string  // scratch root for journals
	tr      *tracer // nil = untraced
	// corrupt flips one returned digest before verification; the
	// self-tests use it to prove the gate catches a wrong digest.
	corrupt bool
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// fleetHost is one fleet.Server wired as cmd/fleetd wires it: journaled on
// a fresh directory, behind http.MaxBytesHandler on a loopback listener,
// and driven by srv.Run (untraced) or by the benchmark's own Advance loop
// (traced).
type fleetHost struct {
	srv    *fleet.Server
	hs     *http.Server
	base   string
	dir    string
	client *http.Client
	served chan struct{}
	engine chan struct{} // closed when the engine loop has returned
	stop   chan struct{} // stops the traced engine loop
	halt   sync.Once
	eng    *engineLedger // traced engine accounting (nil untraced)
}

// engineLedger is the traced engine loop's accounting.
type engineLedger struct {
	calls     int
	busy      time.Duration
	idle      time.Duration
	advanceMS []float64
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// startFleet builds and starts a host. Untraced, it returns once GET
// /readyz answers 200. Traced, the engine loop is the benchmark's own and
// /readyz (which checks that Run is live) is not consulted.
func startFleet(root string, tr *tracer) (*fleetHost, error) {
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return nil, err
	}
	srv, _, err := fleet.NewJournaled(fleet.Config{}, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("journal: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		os.RemoveAll(dir)
		return nil, err
	}
	h := &fleetHost{
		srv: srv, dir: dir, base: "http://" + ln.Addr().String(),
		client: newClient(runtime.NumCPU()),
		served: make(chan struct{}), engine: make(chan struct{}), stop: make(chan struct{}),
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = httpSpans(tr, handler)
	}
	h.hs = &http.Server{
		Handler:           http.MaxBytesHandler(handler, maxBodyBytes),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Engine first, then the listener, as cmd/fleetd starts them.
	if tr == nil {
		go func() {
			defer close(h.engine)
			srv.Run()
		}()
	} else {
		h.eng = &engineLedger{}
		go h.tracedEngine(tr)
	}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln)
	}()
	if tr != nil {
		return h, nil
	}
	if err := h.waitReady(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// tracedEngine is Run's loop with a timer around each Advance. Idle turns
// sleep briefly instead of waiting on the server's private wake channel.
func (h *fleetHost) tracedEngine(tr *tracer) {
	defer close(h.engine)
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		t0 := time.Now()
		busy := h.srv.Advance(tickStride)
		t1 := time.Now()
		if busy {
			h.eng.calls++
			h.eng.busy += t1.Sub(t0)
			h.eng.advanceMS = append(h.eng.advanceMS, ms(t1.Sub(t0)))
			tr.record(0, 0, 0, "engine.advance", t0, t1)
			continue
		}
		time.Sleep(200 * time.Microsecond)
		h.eng.idle += time.Since(t0)
	}
}

// waitReady polls GET /readyz back to back (each round trip is the pause)
// until it answers 200.
func (h *fleetHost) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, err := h.do("GET", "/readyz", nil, 0, 0, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
	}
	return errors.New("fleet: /readyz did not answer 200 within 10s")
}

// stopTracedEngine stops the traced engine loop and waits for it, after
// which its ledger may be read. It is a no-op untraced.
func (h *fleetHost) stopTracedEngine() {
	if h.eng != nil {
		h.halt.Do(func() { close(h.stop); <-h.engine })
	}
}

// close stops the engine, the HTTP server and the server, waits for each,
// and removes the journal directory.
func (h *fleetHost) close() {
	h.stopTracedEngine()
	h.srv.Shutdown()
	if h.eng == nil {
		<-h.engine
	}
	h.hs.Close()
	<-h.served
	h.client.CloseIdleConnections()
	os.RemoveAll(h.dir)
}

// do sends one request and decodes a 2xx JSON answer into out. It returns
// the status code; a non-2xx answer is not an error here.
func (h *fleetHost) do(method, path string, body []byte, span, job uint64, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(hdrSpan, strconv.FormatUint(span, 10))
		req.Header.Set(hdrJob, strconv.FormatUint(job, 10))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// httpSpans is the traced run's middleware around Server.Handler: one span
// per request, parented to the client span named in the request headers.
func httpSpans(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		job, _ := strconv.ParseUint(r.Header.Get(hdrJob), 10, 64)
		tr.record(0, parent, job, "http."+route(r), start, end)
	})
}

func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "post_jobs"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
		return "get_job"
	case r.Method == http.MethodGet && r.URL.Path == "/jobs":
		return "list_jobs"
	default:
		return "other"
	}
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID          uint64         `json:"id"`
	State       string         `json:"state"`
	FlightTimeS float64        `json:"flight_time_s"`
	Completed   bool           `json:"completed"`
	Digests     *fleet.Digests `json:"digests"`
	Error       string         `json:"error"`
}

func terminal(state string) bool { return state == "done" || state == "failed" }

// outcome is the load generator's record of one job.
type outcome struct {
	key     string // the job's wire bytes; equal keys are the same experiment
	kind    string
	id      uint64
	refused string // non-empty when the submission was not accepted

	sent, acked, running, ended time.Time
	st                          jobStatus
}

// fleetRun is the state one fleet workload pass shares across its parts.
type fleetRun struct {
	opts  fleetOpts
	host  *fleetHost
	mu    sync.Mutex
	outs  []*outcome
	acks  []float64    // POST /jobs round trips, ms
	reads atomic.Int64 // status reads: GET /jobs (campaign), GET /jobs/{id} (tenant_loop)
}

func (f *fleetRun) addAck(d time.Duration) {
	f.mu.Lock()
	f.acks = append(f.acks, ms(d))
	f.mu.Unlock()
}

// post submits jobs in one request and fills their ids (or refusal).
func (f *fleetRun) post(jobs []*outcome, span uint64) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i, o := range jobs {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(o.key)
	}
	body.WriteByte(']')
	var resp struct {
		IDs []uint64 `json:"ids"`
	}
	sent := time.Now()
	code, err := f.host.do("POST", "/jobs", body.Bytes(), span, 0, &resp)
	acked := time.Now()
	f.addAck(acked.Sub(sent))
	for i, o := range jobs {
		o.sent, o.acked = sent, acked
		switch {
		case err != nil:
			o.refused = err.Error()
		case code/100 != 2:
			o.refused = fmt.Sprintf("POST /jobs answered %d", code)
		case len(resp.IDs) != len(jobs):
			o.refused = fmt.Sprintf("POST /jobs returned %d ids for %d jobs", len(resp.IDs), len(jobs))
		default:
			o.id = resp.IDs[i]
		}
	}
}

// runFleet runs one pass of a fleet workload: set-up (timed, repeated),
// the load, then the correctness gate and the metrics.
func runFleet(name string, opts fleetOpts) (*result, error) {
	res := &result{}
	var setups []float64
	var host *fleetHost
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		h, err := startFleet(opts.dir, opts.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			h.close()
			continue
		}
		host = h
	}
	defer host.close()
	f := &fleetRun{opts: opts, host: host}

	var sampler *statsSampler
	if opts.tr != nil {
		sampler = startStatsSampler(host.srv)
	}
	journal0 := host.srv.Journal().Size()
	cpu0 := cpuTime()
	start := time.Now()
	switch name {
	case "campaign":
		f.campaign(res)
	case "tenant_loop":
		f.tenantLoop()
	default:
		return nil, fmt.Errorf("not a fleet workload: %s", name)
	}
	var last time.Time
	var simS float64
	done := 0
	for _, o := range f.outs {
		if o.ended.After(last) {
			last = o.ended
		}
		if o.st.State == "done" {
			done++
			simS += o.st.FlightTimeS
		}
	}
	cpu := cpuTime() - cpu0
	wall := last.Sub(start).Seconds()
	if sampler != nil {
		sampler.stop()
		host.stopTracedEngine()
	}
	f.statusReadShare(res, name, cpu)

	if opts.corrupt {
		corruptOne(f.outs)
	}
	refs := referenceDigests(f.outs, opts.seed)
	res.attempted = len(f.outs)
	res.failed = verify(f.outs, refs, res)

	jobMS := make([]float64, 0, len(f.outs))
	for _, o := range f.outs {
		if !o.ended.IsZero() {
			jobMS = append(jobMS, ms(o.ended.Sub(o.sent)))
		}
	}
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("jobs_per_s", float64(done)/wall, "jobs/s", 0)
	res.add("sim_s_per_s", simS/wall, "sim-s/s", 0)
	res.add("cpu_ms_per_sim_s", ms(cpu)/simS, "ms", 0)
	res.add("cpu_ms_per_job", ms(cpu)/float64(done), "ms", 0)
	res.add("ack_ms_p50", median(f.acks), "ms", len(f.acks))
	res.add("ack_ms_p99", quantile(f.acks, 0.99), "ms", len(f.acks))
	res.add("job_ms_p50", median(jobMS), "ms", len(jobMS))
	res.add("job_ms_p99", quantile(jobMS, 0.99), "ms", len(jobMS))
	res.add("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	res.add("peak_rss_mb", peakRSSMB(), "MB", 0)
	res.add("heap_retained_mb", heapRetainedMB(), "MB", 0)
	res.add("wall_s", wall, "s", 0)
	res.add("sim_s", simS, "sim-s", 0)
	res.note("%d jobs done of %d attempted in %d POSTs over %.2f s", done, res.attempted, len(f.acks), wall)
	if name == "campaign" {
		res.note("job_ms is POST sent to the first GET /jobs (every %v) showing a terminal state", campaignPoll)
	} else {
		res.note("job_ms is POST sent to the first GET /jobs/{id} (every %v) showing a terminal state", tenantPoll)
	}

	if opts.tr != nil {
		f.layerMetrics(res, sampler, journal0)
	}
	return res, nil
}

// campaign submits each round's freshly drawn job list in 16-job
// requests and waits for every job by listing all jobs.
func (f *fleetRun) campaign(res *result) {
	n := scaled(campaignPerRound, f.opts.scale, len(campaignKinds))
	rounds := workUnits(f.opts.seconds, campaignRoundRefS)
	for r := 0; r < rounds; r++ {
		jobs := campaignRound(f.opts.seed, r, n)
		round := make([]*outcome, len(jobs))
		for i, j := range jobs {
			round[i] = &outcome{key: string(j.encode()), kind: j.Workload.Kind}
		}
		for lo := 0; lo < len(round); lo += campaignPerPost {
			hi := min(lo+campaignPerPost, len(round))
			f.post(round[lo:hi], 0)
		}
		f.awaitAll(round)
		f.outs = append(f.outs, round...)
	}
	res.note("campaign: %d rounds of %d jobs", rounds, n)
}

// awaitAll polls GET /jobs until every accepted job in round is terminal.
func (f *fleetRun) awaitAll(round []*outcome) {
	byID := make(map[uint64]*outcome, len(round))
	for _, o := range round {
		if o.refused == "" {
			byID[o.id] = o
		}
	}
	left := len(byID)
	deadline := time.Now().Add(jobTimeout)
	for left > 0 && time.Now().Before(deadline) {
		time.Sleep(campaignPoll)
		var list struct {
			Jobs []jobStatus `json:"jobs"`
		}
		code, err := f.host.do("GET", "/jobs", nil, 0, 0, &list)
		f.reads.Add(1)
		if err != nil || code != http.StatusOK {
			continue
		}
		now := time.Now()
		for _, st := range list.Jobs {
			o, ok := byID[st.ID]
			if !ok || !o.ended.IsZero() {
				continue
			}
			if st.State == "running" && o.running.IsZero() {
				o.running = now
			}
			if terminal(st.State) {
				if o.running.IsZero() {
					o.running = now
				}
				o.st, o.ended = st, now
				left--
			}
		}
	}
	for _, o := range byID {
		if o.ended.IsZero() {
			timedOut(o)
		}
	}
}

// timedOut marks a job that never reached a terminal state.
func timedOut(o *outcome) {
	o.st.State, o.st.Error = "timeout", fmt.Sprintf("no terminal state within %v", jobTimeout)
}

// tenantLoop runs the closed loop: each tenant submits one job, polls it
// until terminal, and submits its next, until it has flown its share.
func (f *fleetRun) tenantLoop() {
	n := scaled(tenants, f.opts.scale, 2)
	perTenantJobs := workUnits(f.opts.seconds*tenantJobsRefPerS, float64(tenants))
	var wg sync.WaitGroup
	perTenant := make([][]*outcome, n)
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for k := 0; k < perTenantJobs; k++ {
				j := tenantJob(f.opts.seed, t, k)
				o := &outcome{key: string(j.encode()), kind: j.Workload.Kind}
				perTenant[t] = append(perTenant[t], o)
				f.flyOne(o)
			}
		}(t)
	}
	wg.Wait()
	for _, outs := range perTenant {
		f.outs = append(f.outs, outs...)
	}
}

// flyOne submits one job and polls it to a terminal state.
func (f *fleetRun) flyOne(o *outcome) {
	tr := f.opts.tr
	root := tr.newID()
	postID := tr.newID()
	f.post([]*outcome{o}, postID)
	tr.record(postID, root, o.id, "client.post", o.sent, o.acked)
	if o.refused != "" {
		return
	}
	path := "/jobs/" + strconv.FormatUint(o.id, 10)
	for {
		if time.Since(o.sent) > jobTimeout {
			timedOut(o)
			return
		}
		time.Sleep(tenantPoll)
		pollID := tr.newID()
		t0 := time.Now()
		var st jobStatus
		code, err := f.host.do("GET", path, nil, pollID, o.id, &st)
		f.reads.Add(1)
		now := time.Now()
		tr.record(pollID, root, o.id, "client.poll", t0, now)
		if err != nil || code != http.StatusOK {
			continue
		}
		if st.State == "running" && o.running.IsZero() {
			o.running = now
		}
		if terminal(st.State) {
			if o.running.IsZero() {
				o.running = now
			}
			o.st, o.ended = st, now
			break
		}
	}
	tr.record(root, 0, o.id, "tenant.job", o.sent, o.ended)
}

// statusReadShare reports how much of the pass's CPU went to the load
// generator's status reads, client and server side together: after the
// load it times calibrateReads back-to-back reads of the kind the workload
// makes on the idle server and scales by the reads the pass made. The
// campaign's list grows through the run and is calibrated at its final
// length, so its share is an upper bound. The traced pass skips it, so its
// HTTP spans hold only the workload's requests.
func (f *fleetRun) statusReadShare(res *result, name string, cpu time.Duration) {
	if f.opts.tr != nil {
		return
	}
	path := "/jobs"
	if name == "tenant_loop" {
		path = ""
		for _, o := range f.outs {
			if o.refused == "" {
				path = "/jobs/" + strconv.FormatUint(o.id, 10)
				break
			}
		}
		if path == "" {
			return
		}
	}
	var st json.RawMessage
	cpu0 := cpuTime()
	for i := 0; i < calibrateReads; i++ {
		if _, err := f.host.do("GET", path, nil, 0, 0, &st); err != nil {
			res.fail("status-read calibration: %v", err)
			return
		}
	}
	perRead := ms(cpuTime()-cpu0) / calibrateReads
	reads := f.reads.Load()
	res.add("status_reads", float64(reads), "count", 0)
	res.add("status_read_cpu_ms", perRead, "ms", calibrateReads)
	res.add("status_read_cpu_frac", float64(reads)*perRead/ms(cpu), "ratio", 0)
}

// corruptOne flips a character of the first done job's trajectory digest,
// as a server returning a wrong digest would.
func corruptOne(outs []*outcome) {
	for _, o := range outs {
		if o.st.Digests == nil {
			continue
		}
		d := *o.st.Digests
		b := []byte(d.Trajectory)
		if len(b) > 0 {
			b[0] ^= 1
		}
		d.Trajectory = string(b)
		o.st.Digests = &d
		return
	}
}

// referenceDigests re-flies a seeded sample of the distinct specs in
// process — up to refsPerKind per kind — and digests them as the server
// does. A spec that fails to build or fly maps to an error string.
func referenceDigests(outs []*outcome, seed int64) map[string]refDigest {
	byKind := map[string][]string{}
	seen := map[string]bool{}
	for _, o := range outs {
		if !seen[o.key] {
			seen[o.key] = true
			byKind[o.kind] = append(byKind[o.kind], o.key)
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	rng := rand.New(rand.NewSource(seed))
	var keys []string
	for _, k := range kinds {
		ks := byKind[k]
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		keys = append(keys, ks[:min(refsPerKind, len(ks))]...)
	}
	refs := make(map[string]refDigest, len(keys))
	for _, k := range keys {
		refs[k] = flyReference([]byte(k))
	}
	return refs
}

type refDigest struct {
	dig fleet.Digests
	err string
}

func flyReference(wire []byte) refDigest {
	var spec fleet.JobSpec
	if err := json.Unmarshal(wire, &spec); err != nil {
		return refDigest{err: "decode: " + err.Error()}
	}
	r, err := scenario.Run(spec.Scenario())
	if err != nil {
		return refDigest{err: "fly: " + err.Error()}
	}
	return refDigest{dig: fleet.DigestResult(r)}
}

// verify is the correctness gate. A job fails if it was refused, did not
// finish done, finished without digests, is a box/coverage/delivery job
// that did not complete its mission, disagrees with another job of the same
// spec, or disagrees with the in-process reference flight. It returns the
// number of failed jobs and records each reason in res.
func verify(outs []*outcome, refs map[string]refDigest, res *result) int {
	bad := make(map[*outcome]bool)
	groups := map[string][]*outcome{}
	for _, o := range outs {
		switch {
		case o.refused != "":
			bad[o] = true
			res.fail("%s job refused: %s", o.kind, o.refused)
			continue
		case o.st.State != "done":
			bad[o] = true
			res.fail("%s job %d ended %q: %s", o.kind, o.id, o.st.State, o.st.Error)
			continue
		case o.st.Digests == nil:
			bad[o] = true
			res.fail("%s job %d done without digests", o.kind, o.id)
			continue
		case mustComplete[o.kind] && !o.st.Completed:
			bad[o] = true
			res.fail("%s job %d did not complete its mission", o.kind, o.id)
		}
		groups[o.key] = append(groups[o.key], o)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		want := *g[0].st.Digests
		agree := true
		for _, o := range g[1:] {
			if *o.st.Digests != want {
				agree = false
			}
		}
		if !agree {
			res.fail("%d %s jobs of spec %s disagree on digests", len(g), g[0].kind, k)
		}
		ref, checked := refs[k]
		switch {
		case !checked:
		case ref.err != "":
			agree = false
			res.fail("reference flight of %s: %s", k, ref.err)
		case ref.dig != want:
			agree = false
			res.fail("%s jobs of spec %s: server digest differs from the in-process flight", g[0].kind, k)
		}
		if !agree {
			for _, o := range g {
				bad[o] = true
			}
		}
	}
	return len(bad)
}

// statsSampler samples Server.Stats while the traced run flies.
type statsSampler struct {
	srv          *fleet.Server
	quit, done   chan struct{}
	live, queued []float64
	first, last  fleet.Stats
}

func startStatsSampler(srv *fleet.Server) *statsSampler {
	s := &statsSampler{srv: srv, quit: make(chan struct{}), done: make(chan struct{}), first: srv.Stats()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				st := srv.Stats()
				s.live = append(s.live, float64(st.Live))
				s.queued = append(s.queued, float64(st.Queued))
			}
		}
	}()
	return s
}

func (s *statsSampler) stop() {
	close(s.quit)
	<-s.done
	s.last = s.srv.Stats()
}

// layerMetrics derives the traced run's fleet-layer metrics from spans,
// the engine ledger, sampled Stats and the journal.
func (f *fleetRun) layerMetrics(res *result, s *statsSampler, journal0 int64) {
	tr := f.opts.tr
	requests, busy := 0, 0.0
	for _, route := range []string{"post_jobs", "get_job", "list_jobs"} {
		d := tr.named("http." + route)
		if len(d) == 0 {
			continue // campaign never reads one job, tenant_loop never lists
		}
		res.add("fleet.http."+route+"_ms_p50", median(d), "ms", len(d))
		res.add("fleet.http."+route+"_ms_p99", quantile(d, 0.99), "ms", len(d))
		requests += len(d)
		for _, x := range d {
			busy += x / 1000
		}
	}
	res.add("fleet.http.requests", float64(requests), "count", 0)
	res.add("fleet.http.busy_s", busy, "s", 0)

	e := f.host.eng
	steps := s.last.LaneSteps - s.first.LaneSteps
	advNS := float64(e.busy.Nanoseconds()) / float64(max(steps, 1))
	res.add("fleet.advance_calls", float64(e.calls), "count", 0)
	res.add("fleet.advance_busy_s", e.busy.Seconds(), "s", 0)
	res.add("fleet.advance_ms_p99", quantile(e.advanceMS, 0.99), "ms", len(e.advanceMS))
	res.add("fleet.advance_ns_per_lane_step", advNS, "ns", 0)
	res.add("fleet.engine_idle_s", e.idle.Seconds(), "s", 0)
	res.add("fleet.live_lanes_mean", mean(s.live), "lanes", len(s.live))
	res.add("fleet.queued_mean", mean(s.queued), "jobs", len(s.queued))

	var admit []float64
	submitted := 0
	for _, o := range f.outs {
		if o.refused == "" {
			submitted++
		}
		if !o.running.IsZero() {
			admit = append(admit, ms(o.running.Sub(o.acked)))
		}
	}
	res.add("fleet.admit_wait_ms_p50", median(admit), "ms", len(admit))
	res.add("fleet.admit_wait_ms_p99", quantile(admit, 0.99), "ms", len(admit))

	jl := f.host.srv.Journal()
	res.add("journal.bytes_per_job", float64(jl.Size()-journal0)/float64(max(submitted, 1)), "B", submitted)
	if data, err := os.ReadFile(jl.Path()); err == nil {
		recs, _ := journal.Scan(data)
		res.add("journal.records_per_job", float64(len(recs))/float64(max(submitted, 1)), "records", submitted)
	} else {
		res.fail("read journal: %v", err)
	}
}
