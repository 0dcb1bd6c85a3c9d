package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dronedse/fleet/journal"
	"dronedse/groundstation"
	"dronedse/scenario"
)

// Sentinel errors the HTTP layer maps onto status codes (429/503 with
// Retry-After) and clients classify as transient.
var (
	// ErrShutdown: the server has shut down and accepts nothing.
	ErrShutdown = errors.New("fleet: server shut down")
	// ErrDraining: the server is draining; submissions are refused but
	// in-flight jobs are finishing. Clients should retry against the
	// replacement instance.
	ErrDraining = errors.New("fleet: server draining")
	// ErrQueueFull: the bounded admission queue is at capacity; retry after
	// backoff instead of growing server memory without bound.
	ErrQueueFull = errors.New("fleet: admission queue full")
	// ErrDeadline: the job exceeded its wall-clock deadline and was evicted
	// mid-flight (journaled as CANCEL, not re-admitted on restart).
	ErrDeadline = errors.New("fleet: job deadline exceeded")
	// ErrBadSpec: a submitted JobSpec failed validation (unknown workload
	// kind, malformed workload payload). A tenant error, mapped to 400 —
	// never a retry.
	ErrBadSpec = errors.New("fleet: invalid job spec")
)

// Config sizes a Server. The zero value is a usable single-box default.
type Config struct {
	// MaxLanes caps concurrently flying lanes (default 1024). Jobs beyond
	// the cap queue FIFO and are admitted as eviction frees slots.
	MaxLanes int
	// MaxQueue bounds the admission queue (jobs accepted but not yet
	// launched; default 4096). Submissions beyond it fail with ErrQueueFull
	// — HTTP 429 + Retry-After — instead of growing memory without bound.
	MaxQueue int
	// SubQueue is the per-subscriber telemetry queue depth in units
	// (default groundstation.DefaultSubQueue). Laggards shed oldest.
	SubQueue int
	// JobDeadline is the default wall-clock budget a job gets from launch
	// (0 = unlimited). A job that blows it is evicted mid-flight with
	// ErrDeadline. JobSpec.DeadlineS overrides it per job.
	JobDeadline time.Duration
}

// runStride is how many physics steps each of Run's engine advances moves
// every live lane: one 4 Hz telemetry unit per lane per advance at the
// default cadence.
const runStride = 250

func (c Config) withDefaults() Config {
	if c.MaxLanes <= 0 {
		c.MaxLanes = 1024
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	return c
}

// job is the server-side record of one submitted flight. A terminal job
// keeps exactly what its journal record keeps — digests, summary and error —
// whether it finished in this process or was replayed from the journal.
type job struct {
	id   uint64
	spec JobSpec
	hub  *groundstation.Hub

	// deadline is the wall-clock eviction point (zero = none). Written at
	// launch and read at harvest, both on the engine goroutine.
	deadline time.Time

	// Mutable under Server.mu.
	state    JobState
	err      error
	dig      *Digests
	sum      *JobSummary
	simTimeS float64 // live progress, mirrored out of the engine each advance
}

// Server hosts concurrent simulation jobs. Exactly one goroutine may drive
// the engine — either Run or a manual Advance loop — while any number of
// goroutines submit jobs, query status, and stream telemetry.
type Server struct {
	cfg Config
	jl  *journal.Log // nil = no durability (in-memory only)

	mu       sync.Mutex
	jobs     map[uint64]*job
	order    []uint64 // submission order, for listing
	queue    []*job   // admission FIFO
	reserved int      // queue slots held by in-flight SubmitAll journal writes
	nextID   uint64
	closed   bool
	draining bool

	// Engine-owned (no mu): only the Advance caller touches the batch and
	// its lane table (lane index → the job flying it; nil = free).
	batch *scenario.Batch
	lanes []*job

	// Step counters, read by Stats while the engine advances.
	ticks     atomic.Uint64
	laneSteps atomic.Uint64

	// Counter fields under mu. live is the occupied-lane count mirrored
	// out of the engine-owned lane table so Stats never reads it.
	completed, failed, peakLive, live int

	// subWG tracks telemetry stream handlers so Shutdown can wait, bounded,
	// for subscribers to flush.
	subWG sync.WaitGroup

	wake        chan struct{}
	quit        chan struct{}
	engineDone  chan struct{}
	runStarted  atomic.Bool
	engineLive  atomic.Bool
	reqShutdown chan struct{}
	reqOnce     sync.Once
}

// New builds an idle server; drive it with Run (or Advance) and serve its
// Handler.
func New(cfg Config) *Server {
	return &Server{
		cfg:         cfg.withDefaults(),
		jobs:        make(map[uint64]*job),
		batch:       scenario.NewBatchOf(),
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		engineDone:  make(chan struct{}),
		reqShutdown: make(chan struct{}),
	}
}

// NewJournaled builds a server whose accepted jobs survive crashes: the
// write-ahead log under dir is opened (created if absent), its torn tail
// truncated, and its records replayed — terminal jobs come back with their
// journaled digests and summaries; jobs without a terminal record are
// re-admitted and re-flown, producing digests bit-identical to what an
// uninterrupted run would have written (recovery is deterministic replay).
// The returned Recovery reports what was found.
func NewJournaled(cfg Config, dir string) (*Server, *Recovery, error) {
	jl, rec, err := openJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	s := New(cfg)
	s.jl = jl
	s.mu.Lock()
	for i := range rec.Jobs {
		rj := &rec.Jobs[i]
		if !rj.Done {
			// A SUBMIT journaled before validation covered it would fail
			// (or crash) at admission on every start: fail it durably
			// instead of re-flying it. If the DONE write fails, the next
			// start reaches the same verdict, and Ready reports the journal.
			if err := rj.Spec.Validate(); err != nil {
				err = fmt.Errorf("%w: %v", ErrBadSpec, err)
				_ = appendDone(jl, rj.ID, nil, nil, err)
				rj.Done, rj.Err = true, err.Error()
				rec.Readmitted--
				rec.Failed++
			}
		}
		j := &job{id: rj.ID, spec: rj.Spec, hub: groundstation.NewHub()}
		switch {
		case !rj.Done:
			j.state = JobQueued
			s.queue = append(s.queue, j)
		case rj.Err != "":
			j.state, j.err, j.dig, j.sum = JobFailed, errors.New(rj.Err), rj.Digests, rj.Summary
			s.failed++
			j.hub.Close()
		default:
			j.state, j.dig, j.sum = JobDone, rj.Digests, rj.Summary
			s.completed++
			j.hub.Close()
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	if rec.maxID > s.nextID {
		s.nextID = rec.maxID
	}
	s.mu.Unlock()
	return s, rec, nil
}

// Journal returns the server's write-ahead log (nil when running without
// durability).
func (s *Server) Journal() *journal.Log { return s.jl }

// Submit enqueues one job and returns its ID. The job's telemetry hub
// exists from submission, so clients may subscribe before the flight
// launches.
func (s *Server) Submit(spec JobSpec) (uint64, error) {
	ids, err := s.SubmitAll([]JobSpec{spec})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// SubmitAll enqueues jobs in order and returns their IDs. With a journal,
// every job is fsync'd durable BEFORE this returns: an acknowledged
// submission survives SIGKILL from that moment on. Returns ErrBadSpec when
// any job fails validation (the whole batch is refused — no partial
// acceptance), ErrQueueFull when the bounded admission queue cannot take
// the batch, ErrDraining / ErrShutdown when the server no longer accepts
// work.
func (s *Server) SubmitAll(specs []JobSpec) ([]uint64, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: job %d: %v", ErrBadSpec, i, err)
		}
	}
	return s.enqueue(specs)
}

// enqueue journals and queues validated specs, as SubmitAll documents.
func (s *Server) enqueue(specs []JobSpec) ([]uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if depth := len(s.queue) + s.reserved; depth+len(specs) > s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d queued + %d submitted > %d",
			ErrQueueFull, depth, len(specs), s.cfg.MaxQueue)
	}
	jobs := make([]*job, len(specs))
	ids := make([]uint64, len(specs))
	for i, spec := range specs {
		s.nextID++
		jobs[i] = &job{id: s.nextID, spec: spec, hub: groundstation.NewHub()}
		ids[i] = s.nextID
	}
	s.reserved += len(specs)
	s.mu.Unlock()

	// Durability point: the SUBMIT records hit disk before the jobs become
	// visible anywhere. A crash after this line loses nothing; a crash
	// before it means the client never got its IDs back.
	if s.jl != nil {
		if err := appendSubmits(s.jl, jobs); err != nil {
			s.mu.Lock()
			s.reserved -= len(specs)
			s.mu.Unlock()
			return nil, fmt.Errorf("fleet: journal submit: %w", err)
		}
	}
	failpoint("fleet/submit-journaled")

	s.mu.Lock()
	s.reserved -= len(specs)
	if s.closed {
		// Shut down between the journal fsync and admission: the jobs are
		// durable and will be re-admitted on the next start, but this
		// instance cannot run them.
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	for _, j := range jobs {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue = append(s.queue, j)
	}
	s.mu.Unlock()
	s.wakeEngine()
	return ids, nil
}

func (s *Server) wakeEngine() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// admitLocked drains the queue into free lanes: build the stack, install
// the telemetry hub as the Spec's sink, and admit it onto the batch. A
// Build failure fails the job without consuming a lane. Called only from
// the engine goroutine (holding mu), so the lane table is safe to touch.
// During a drain (or after shutdown) nothing launches: queued jobs stay
// journaled for the next start.
func (s *Server) admitLocked() {
	for len(s.queue) > 0 && s.live < s.cfg.MaxLanes && !s.draining && !s.closed {
		j := s.queue[0]
		s.queue = s.queue[1:]
		spec := j.spec.Scenario()
		hub := j.hub
		spec.Telemetry.Send = func(raw []byte) { hub.Publish(raw) }
		st, err := scenario.Build(spec)
		if err != nil {
			s.failLocked(j, err)
			continue
		}
		lane := s.batch.Admit(st)
		if lane == len(s.lanes) { // Admit grew the batch rather than reusing a slot
			s.lanes = append(s.lanes, nil)
		}
		if s.batch.LaneDone(lane) { // Start failed on a running batch
			_, lerr := s.batch.Evict(lane)
			s.failLocked(j, lerr)
			continue
		}
		if ddl := j.deadlineBudget(s.cfg.JobDeadline); ddl > 0 {
			j.deadline = time.Now().Add(ddl)
		}
		s.lanes[lane] = j
		j.state = JobRunning
		s.live++
	}
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
}

// deadlineBudget resolves a job's wall-clock budget: per-spec override,
// else the server default.
func (j *job) deadlineBudget(def time.Duration) time.Duration {
	if j.spec.DeadlineS > 0 {
		return time.Duration(j.spec.DeadlineS * float64(time.Second))
	}
	return def
}

// failLocked records a job that never reached a lane (Build/Start failure)
// as terminal, journaling the outcome so a restart does not retry a spec
// that deterministically cannot fly.
func (s *Server) failLocked(j *job, err error) {
	if s.jl != nil {
		// Rare path (malformed spec); the fsync under mu is acceptable.
		appendDone(s.jl, j.id, nil, nil, err)
	}
	j.state, j.err = JobFailed, err
	s.failed++
	j.hub.Close()
}

// finalize records a lane's outcome on its job — digests and summary taken
// from the evicted Result, which is then dropped — and closes the telemetry
// stream (subscribers drain what is queued, then see EOF). With a journal,
// the terminal record is fsync'd before the outcome becomes visible: a
// crash before the fsync re-runs the job on restart (deterministically
// reproducing these digests); a crash after it recovers the digests
// directly.
func (s *Server) finalize(j *job, res *scenario.Result, err error) {
	failpoint("fleet/harvested")
	var dig *Digests
	var sum *JobSummary
	if err == nil && res != nil {
		d := DigestResult(res)
		dig = &d
		sum = &JobSummary{
			FlightTimeS:          res.FlightTimeS,
			EnergyWh:             res.EnergyWh,
			ComputeWh:            res.ComputeWh,
			ComputeFlightCostMin: res.ComputeFlightCostMin(),
			Completed:            res.Completed,
			FinalMode:            res.FinalMode.String(),
		}
	}
	if s.jl != nil {
		// A journal write failure here does not block the in-memory outcome
		// (clients are not left waiting on a dead disk); it surfaces through
		// Ready() so the instance stops admitting new work.
		if errors.Is(err, ErrDeadline) {
			appendCancel(s.jl, j.id, err.Error())
		} else {
			appendDone(s.jl, j.id, dig, sum, err)
		}
	}
	failpoint("fleet/done-journaled")
	s.mu.Lock()
	j.err, j.dig, j.sum = err, dig, sum
	s.live--
	if err != nil {
		j.state = JobFailed
		s.failed++
	} else {
		j.state = JobDone
		s.completed++
	}
	s.mu.Unlock()
	j.hub.Close()
}

// Advance is the engine's unit of work: admit queued jobs into free lanes,
// step every live lane by up to k physics steps, and harvest finished
// lanes (evicting any job past its wall-clock deadline). It reports whether
// the engine still has runnable work. Run is Advance in a loop; tests and
// benchmarks call it directly for lockstep control. Only one goroutine may
// call Advance.
func (s *Server) Advance(k int) bool {
	s.mu.Lock()
	s.admitLocked()
	s.mu.Unlock()

	busy := s.batch.Live() > 0
	if busy {
		steps := s.batch.Steps()
		s.batch.TickN(k)
		s.laneSteps.Add(s.batch.Steps() - steps)
		now := time.Now()
		for lane, j := range s.lanes {
			if j == nil {
				continue
			}
			if !s.batch.LaneDone(lane) {
				if j.deadline.IsZero() || now.Before(j.deadline) {
					continue
				}
				s.batch.Abort(lane, fmt.Errorf("%w (%.0fs wall-clock)",
					ErrDeadline, now.Sub(j.deadline.Add(-j.deadlineBudget(s.cfg.JobDeadline))).Seconds()))
			}
			res, err := s.batch.Evict(lane)
			s.lanes[lane] = nil
			s.finalize(j, res, err)
		}
		if s.batch.Live() > 0 { // mirror live progress into the status API
			s.mu.Lock()
			for lane, j := range s.lanes {
				if j != nil {
					j.simTimeS = s.batch.LaneSimTimeS(lane)
				}
			}
			s.mu.Unlock()
		}
	}
	s.ticks.Add(1)

	s.mu.Lock()
	runnable := len(s.queue) > 0 && !s.draining && !s.closed
	s.mu.Unlock()
	return busy || runnable
}

// Run drives the engine until Shutdown, sleeping while there is no work.
// It may be called once.
func (s *Server) Run() {
	if !s.runStarted.CompareAndSwap(false, true) {
		return
	}
	s.engineLive.Store(true)
	defer func() {
		s.engineLive.Store(false)
		close(s.engineDone)
	}()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if !s.Advance(runStride) {
			select {
			case <-s.quit:
				return
			case <-s.wake:
			}
		}
	}
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Completed/Failed are the totals at exit.
	Completed, Failed int
	// Requeued jobs were accepted but never launched; with a journal they
	// are durable and the next start re-admits them.
	Requeued int
	// Abandoned lanes were still flying when the grace period expired;
	// journaled jobs re-run from scratch on the next start (bit-identical
	// digests), un-journaled ones are lost.
	Abandoned int
	// Journaled reports whether Requeued/Abandoned jobs survive the exit.
	Journaled bool
}

// Clean reports whether every launched job finished within the grace
// period.
func (r DrainReport) Clean() bool { return r.Abandoned == 0 }

// Lost reports how many accepted jobs this exit abandons forever (always 0
// with a journal).
func (r DrainReport) Lost() int {
	if r.Journaled {
		return 0
	}
	return r.Requeued + r.Abandoned
}

// Drain is the graceful SIGTERM path: stop accepting and launching jobs,
// let in-flight lanes finish (bounded by grace, default 30s), then shut
// down. Queued and unfinished jobs stay durably journaled for the next
// start; with no journal they are reported in the DrainReport as lost.
// The engine (Run) must be live for lanes to finish.
func (s *Server) Drain(grace time.Duration) DrainReport {
	if grace <= 0 {
		grace = 30 * time.Second
	}
	s.mu.Lock()
	if !s.closed {
		s.draining = true
	}
	s.mu.Unlock()
	s.wakeEngine()

	deadline := time.Now().Add(grace)
	for {
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		if live == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.mu.Lock()
	rep := DrainReport{
		Completed: s.completed,
		Failed:    s.failed,
		Requeued:  len(s.queue),
		Abandoned: s.live,
		Journaled: s.jl != nil,
	}
	s.mu.Unlock()
	s.Shutdown()
	return rep
}

// subscriberFlushGrace bounds how long Shutdown waits for telemetry
// subscribers to drain their queued units. A reading subscriber flushes in
// milliseconds; a stalled one is left to its write deadline, or to the
// host's http.Server.Close.
const subscriberFlushGrace = 2 * time.Second

// Shutdown stops the service in EOF-clean order: stop admissions, stop the
// engine loop and wait for it to fully drain (no goroutine is mid-Publish
// afterwards), then close every job's telemetry hub so subscribers drain
// their queues to a clean, frame-aligned EOF, waiting for them at most
// subscriberFlushGrace. Queued jobs stay queued; running lanes stop where
// they are (journaled jobs replay on the next start). Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)
	s.wakeEngine()
	if s.runStarted.Load() {
		<-s.engineDone // engine goroutine fully drained: publishing has ended
	}

	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.hub.Close() // subscribers drain queued units, then see EOF
	}

	flushed := make(chan struct{})
	go func() { s.subWG.Wait(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(subscriberFlushGrace):
	}
	if s.jl != nil {
		s.jl.Close()
	}
	s.requestShutdown()
}

// Ready returns nil when the instance should receive traffic: accepting
// work (not shut down or draining), engine loop live, and the journal (if
// any) still writable. The /readyz endpoint serves it.
func (s *Server) Ready() error {
	s.mu.Lock()
	closed, draining := s.closed, s.draining
	s.mu.Unlock()
	if closed {
		return ErrShutdown
	}
	if draining {
		return ErrDraining
	}
	if !s.engineLive.Load() {
		return errors.New("fleet: engine loop not running")
	}
	if s.jl != nil {
		if err := s.jl.Healthy(); err != nil {
			return fmt.Errorf("fleet: journal unwritable: %w", err)
		}
	}
	return nil
}

// ShutdownRequested is closed when a client posts /shutdown (or Shutdown
// runs); process mains select on it to exit.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.reqShutdown }

func (s *Server) requestShutdown() { s.reqOnce.Do(func() { close(s.reqShutdown) }) }

// statusLocked renders a job's API view.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, State: j.state.String(), Spec: j.spec, Digests: j.dig}
	if j.sum != nil {
		st.JobSummary = *j.sum
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == JobRunning {
		st.SimTimeS = j.simTimeS
	}
	return st
}

// Job returns a job's status snapshot.
func (s *Server) Job(id uint64) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Jobs returns every job's status, in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted: len(s.order),
		Queued:    len(s.queue),
		Live:      s.live,
		PeakLive:  s.peakLive,
		Completed: s.completed,
		Failed:    s.failed,
		Draining:  s.draining,
		Ticks:     s.ticks.Load(),
		LaneSteps: s.laneSteps.Load(),
	}
	for _, j := range s.jobs {
		pub, drop, subs := j.hub.Stats()
		st.FramesPublished += pub
		st.FramesDropped += drop
		st.Subscribers += subs
		st.TelemetryBacklog += j.hub.Backlog()
	}
	return st
}
