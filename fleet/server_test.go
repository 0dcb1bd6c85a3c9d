package fleet_test

import (
	"io"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"dronedse/fleet"
	"dronedse/groundstation"
	"dronedse/mavlink"
	"dronedse/mission"
)

// startHTTP serves srv's Handler on a loopback test server and returns a
// client for it. The engine is NOT started — tests drive Advance themselves
// so subscribers can attach before any telemetry is published.
func startHTTP(t *testing.T, srv *fleet.Server) *fleet.Client {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		done := make(chan struct{})
		go func() { hs.Close(); close(done) }() // waits for every handler
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("telemetry handlers did not stop after Shutdown")
		}
	})
	return fleet.NewClient(hs.URL)
}

// subscribe opens a job's telemetry stream, failing the test on error.
func subscribe(t *testing.T, c *fleet.Client, id uint64) io.ReadCloser {
	t.Helper()
	body, err := c.Telemetry(id)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// collectStream drains a telemetry stream to EOF (the job finishing); a
// stream still open after 60 s is cut and fails the test.
func collectStream(t *testing.T, body io.ReadCloser) []byte {
	t.Helper()
	timer := time.AfterFunc(60*time.Second, func() { body.Close() })
	defer timer.Stop()
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("stream read: %v (got %d bytes)", err, len(data))
	}
	return data
}

// parseStream decodes a telemetry byte stream, failing on any torn frame.
func parseStream(t *testing.T, data []byte) []mavlink.Frame {
	t.Helper()
	var p mavlink.Parser
	frames := p.Push(data)
	if p.Resyncs != 0 || p.BadCRC != 0 || p.BufferedBytes() != 0 {
		t.Fatalf("telemetry stream damaged: resyncs=%d badcrc=%d residual=%d",
			p.Resyncs, p.BadCRC, p.BufferedBytes())
	}
	return frames
}

// TestTelemetryStreamAndStall is the backpressure acceptance path: a
// healthy subscriber receives a parseable stream to clean EOF while a
// stalled subscriber on a co-tenant job sheds frames, and every job still
// completes (the tick loop never waits on a socket).
func TestTelemetryStreamAndStall(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 32, SubQueue: 4})
	c := startHTTP(t, srv)

	specs := coTenants(8, 300)
	ids, err := srv.SubmitAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	// Stalled subscriber on job 0: subscribes, never reads.
	stalled := subscribe(t, c, ids[0])
	defer stalled.Close()

	// Healthy subscriber on job 1: reads to EOF.
	healthy := subscribe(t, c, ids[1])
	defer healthy.Close()

	// Drive the engine to drain concurrently with the healthy read. The
	// engine never touches a socket, so the stalled subscriber cannot stop
	// this loop from finishing — that completing at all is the assertion.
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		for i := 0; i < 100000; i++ {
			if !srv.Advance(1000) {
				return
			}
		}
	}()

	stream := collectStream(t, healthy)
	frames := parseStream(t, stream)
	if len(frames) == 0 {
		t.Fatal("healthy subscriber saw no telemetry")
	}

	select {
	case <-engineDone:
	case <-time.After(60 * time.Second):
		t.Fatal("engine loop stalled with a dead subscriber attached")
	}
	st := srv.Stats()
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(specs))
	}

	// A groundstation consuming the healthy stream sees a coherent flight.
	gs := groundstation.New(nil)
	gs.Consume(stream)
	if gst := gs.State(); gst.Heartbeats == 0 || gst.ParseErrors != 0 {
		t.Fatalf("ground station state: %+v", gst)
	}
}

// TestStreamReconnectResubscribe drops a subscriber mid-flight and
// resubscribes: both segments must be frame-aligned with strictly monotone
// heartbeat timestamps across the gap (no duplicated or interleaved
// frames), mirroring the hub-level contract over HTTP.
func TestStreamReconnectResubscribe(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4, SubQueue: 4096})
	c := startHTTP(t, srv)
	id, err := srv.Submit(fleet.JobSpec{Seed: 9, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 30, TelemetryEverySteps: 100})
	if err != nil {
		t.Fatal(err)
	}

	conn1 := subscribe(t, c, id)
	// Publish ~20 telemetry units, then read a prefix of them.
	for i := 0; i < 20; i++ {
		srv.Advance(100)
	}
	seg1 := make([]byte, 4096)
	n1, err := io.ReadAtLeast(conn1, seg1, 512)
	if err != nil {
		t.Fatal(err)
	}
	conn1.Close() // link drop mid-stream
	// The server notices the drop without publishing anything more.
	for i := 0; srv.Stats().Subscribers != 0; i++ {
		if i > 5000 {
			t.Fatal("dropped subscriber still attached after 10 s")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Units published while disconnected are lost, not replayed.
	for i := 0; i < 5; i++ {
		srv.Advance(100)
	}

	conn2 := subscribe(t, c, id) // reconnect + resubscribe
	defer conn2.Close()
	drive(t, srv) // fly the job out; its hub close ends the stream
	seg2 := collectStream(t, conn2)
	if len(seg2) == 0 {
		t.Fatal("resubscribed stream empty")
	}

	// seg1 may end mid-frame (the read is byte-granular); trim to the
	// last complete frame before checking alignment.
	var p1 mavlink.Parser
	f1 := p1.Push(seg1[:n1])
	if p1.Resyncs != 0 || p1.BadCRC != 0 {
		t.Fatalf("pre-drop stream damaged: resyncs=%d badcrc=%d", p1.Resyncs, p1.BadCRC)
	}
	f2 := parseStream(t, seg2)
	if len(f1) == 0 || len(f2) == 0 {
		t.Fatalf("frames: %d before drop, %d after resubscribe", len(f1), len(f2))
	}

	var last uint32
	seen := map[uint32]bool{}
	for _, f := range append(f1, f2...) {
		if f.MsgID != mavlink.MsgHeartbeat {
			continue
		}
		h, err := mavlink.DecodeHeartbeat(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h.TimeMS] {
			t.Fatalf("heartbeat t=%d ms duplicated across reconnect", h.TimeMS)
		}
		seen[h.TimeMS] = true
		if h.TimeMS < last {
			t.Fatalf("heartbeat went backwards across reconnect: %d -> %d", last, h.TimeMS)
		}
		last = h.TimeMS
	}
}

// TestHTTPAPI exercises the JSON front end end to end: submit, poll, fetch
// status + digests, stats, 404s, and the shutdown request channel.
func TestHTTPAPI(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 8})
	go srv.Run()
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := fleet.NewClient(hs.URL)
	ids, err := c.Submit([]fleet.JobSpec{
		{Seed: 1, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2},
		{Seed: 2, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("submit: ids=%v err=%v", ids, err)
	}
	jobs, err := c.WaitAll(60*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.State != "done" || j.Digests == nil || j.FlightTimeS <= 0 {
			t.Fatalf("job %d: %+v", j.ID, j)
		}
	}
	st, err := c.Job(ids[0])
	if err != nil || st.ID != ids[0] {
		t.Fatalf("job fetch: %+v err=%v", st, err)
	}
	if _, err := c.Job(9999); err == nil {
		t.Fatal("unknown job id did not 404")
	}
	if _, err := c.Telemetry(9999); err == nil {
		t.Fatal("telemetry for an unknown job id did not 404")
	}
	stats, err := c.Stats()
	if err != nil || stats.Completed != 2 || stats.Submitted != 2 {
		t.Fatalf("stats: %+v err=%v", stats, err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("POST /shutdown did not signal the server")
	}
}

// TestQueueAdmissionEviction pins capacity behaviour: far more jobs than
// lanes, all complete, and the lane cap is never exceeded.
func TestQueueAdmissionEviction(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	specs := coTenants(12, 500)
	if _, err := srv.SubmitAll(specs); err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	st := srv.Stats()
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(specs))
	}
	if st.PeakLive != 4 {
		t.Fatalf("peak live = %d, want the full 4-lane cap", st.PeakLive)
	}
	if st.Queued != 0 || st.Live != 0 {
		t.Fatalf("server not drained: %+v", st)
	}
}

// TestSubmitAfterShutdown pins the closed-server error path.
func TestSubmitAfterShutdown(t *testing.T) {
	srv := fleet.New(fleet.Config{})
	srv.Shutdown()
	if _, err := srv.Submit(fleet.JobSpec{Seed: 1}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

// TestBuildFailureFailsJobOnly: a job whose flight can't build fails with
// its error recorded while co-tenants complete untouched.
func TestBuildFailureFailsJobOnly(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	ids, err := srv.SubmitUnchecked([]fleet.JobSpec{
		{Seed: 1, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2},
		{Seed: 2, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2, BatteryCells: 13}, // the pack takes 1-12 cells
		{Seed: 3, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, srv)
	bad, _ := srv.Job(ids[1])
	if bad.State != "failed" || bad.Error == "" {
		t.Fatalf("bad job: %+v", bad)
	}
	for _, id := range []uint64{ids[0], ids[2]} {
		if st, _ := srv.Job(id); st.State != "done" {
			t.Fatalf("co-tenant %d: %+v", id, st)
		}
	}
}

// TestShutdownWithActiveSubscriberCleanEOF is the shutdown-ordering
// regression test: Shutdown must stop the engine and wait for it to drain
// BEFORE closing telemetry hubs, so an actively-reading subscriber caught
// mid-flight drains to a clean, frame-aligned EOF having received every
// unit the engine ever published — nothing torn, nothing shed, nothing
// published into a closed hub.
func TestShutdownWithActiveSubscriberCleanEOF(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 2, SubQueue: 8192})
	c := startHTTP(t, srv)

	// A flight long enough to still be airborne at shutdown, publishing at
	// a brisk cadence.
	id, err := srv.Submit(fleet.JobSpec{Seed: 11, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 1200, TelemetryEverySteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	conn := subscribe(t, c, id)
	defer conn.Close()
	streamed := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(conn) // reads until the server ends the stream
		streamed <- data
	}()

	go srv.Run()
	for i := 0; srv.Stats().FramesPublished < 20; i++ {
		if i > 10000 {
			t.Fatal("no telemetry flowed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Shutdown() // mid-flight, subscriber still attached and reading

	var data []byte
	select {
	case data = <-streamed:
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber never reached EOF after shutdown")
	}
	frames := parseStream(t, data) // fails on any torn or interleaved frame
	heartbeats := 0
	for _, f := range frames {
		if f.MsgID == mavlink.MsgHeartbeat {
			heartbeats++
		}
	}
	st := srv.Stats()
	if st.FramesDropped != 0 {
		t.Fatalf("an actively-reading subscriber shed %d units", st.FramesDropped)
	}
	// One heartbeat per published unit: the subscriber got the whole
	// stream, which is only possible if the hub closed after the engine
	// fully drained.
	if uint64(heartbeats) != st.FramesPublished {
		t.Fatalf("subscriber parsed %d heartbeats of %d published units",
			heartbeats, st.FramesPublished)
	}
	if st.TelemetryBacklog != 0 {
		t.Fatalf("%d units left queued after shutdown drain", st.TelemetryBacklog)
	}
}

// TestTelemetryOutlastsWriteTimeout: a host http.Server whose WriteTimeout
// and ReadTimeout are far shorter than the flight's wall time still
// delivers the whole frame-aligned stream, ending in a clean EOF — each
// unit's write extends the deadline, and the read timeout does not end the
// request mid-stream.
func TestTelemetryOutlastsWriteTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	srv := fleet.New(fleet.Config{MaxLanes: 1, SubQueue: 4096})
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ReadTimeout = timeout
	hs.Config.WriteTimeout = timeout
	hs.Start()
	defer hs.Close()
	defer srv.Shutdown()

	id, err := srv.Submit(fleet.JobSpec{Seed: 13, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	body := subscribe(t, fleet.NewClient(hs.URL), id)
	defer body.Close()
	streamed := make(chan []byte, 1)
	go func() {
		data, err := io.ReadAll(body)
		if err != nil {
			t.Errorf("stream read: %v (got %d bytes)", err, len(data))
		}
		streamed <- data
	}()

	// Pace the engine so the flight spans many timeouts of wall time.
	start := time.Now()
	for srv.Advance(250) {
		time.Sleep(5 * time.Millisecond)
	}
	if wall := time.Since(start); wall < 3*timeout {
		t.Fatalf("flight took %v of wall time; the test needs well over %v", wall, timeout)
	}

	var data []byte
	select {
	case data = <-streamed:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never reached EOF")
	}
	heartbeats := 0
	for _, f := range parseStream(t, data) {
		if f.MsgID == mavlink.MsgHeartbeat {
			heartbeats++
		}
	}
	st := srv.Stats()
	if st.FramesPublished == 0 || uint64(heartbeats) != st.FramesPublished || st.FramesDropped != 0 {
		t.Fatalf("subscriber parsed %d heartbeats of %d published units (%d shed)",
			heartbeats, st.FramesPublished, st.FramesDropped)
	}
}

// TestLaneStepsFirstAdvance: the engine's first advance counts its lanes'
// steps, though the batch only starts inside that advance.
func TestLaneStepsFirstAdvance(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	if _, err := srv.SubmitAll(coTenants(3, 900)); err != nil {
		t.Fatal(err)
	}
	srv.Advance(100)
	if got := srv.Stats().LaneSteps; got != 300 {
		t.Fatalf("lane steps after one 100-step advance of 3 lanes = %d, want 300", got)
	}
}

// TestLaneStepsCountsFlownSteps: a lane finishing partway through an advance
// is charged only the steps it flew, so LaneSteps is exactly the jobs' total
// flight time in physics steps (an advance-granular count would say 28,000).
func TestLaneStepsCountsFlownSteps(t *testing.T) {
	srv := fleet.New(fleet.Config{MaxLanes: 4})
	hover := &mission.WireSpec{KindName: "hover"}
	ids, err := srv.SubmitAll([]fleet.JobSpec{
		{Seed: 1, Workload: hover, MaxSeconds: 2},
		{Seed: 2, Workload: hover, MaxSeconds: 3},
		{Seed: 3, Workload: hover, MaxSeconds: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for srv.Advance(250) {
	}
	var flown uint64
	for _, id := range ids {
		st, _ := srv.Job(id)
		if st.State != "done" {
			t.Fatalf("job %d: %+v", id, st)
		}
		flown += uint64(math.Round(st.FlightTimeS * 1000))
	}
	if got := srv.Stats().LaneSteps; got != flown || got != 27703 {
		t.Fatalf("lane steps = %d, jobs flew %d (want 27703)", got, flown)
	}
}
