package fleet_test

// Wire pins for the job status API: the JobStatus bodies of a queued,
// running, done, failed and journal-recovered job are compared against
// literal bytes, so a change to how status is assembled cannot silently
// change what GET /jobs and GET /jobs/{id} serve.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dronedse/fleet"
	"dronedse/fleet/journal"
	"dronedse/mission"
)

// getBody serves one GET through srv's Handler and returns the body.
func getBody(t *testing.T, srv *fleet.Server, path string) string {
	t.Helper()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
	}
	return rr.Body.String()
}

// wireSpecs are the pinned jobs: a hover flight that ends not completed, a
// box mission that completes, and a spec that fails at Build (submitted
// unchecked: Validate would refuse it).
func wireSpecs() []fleet.JobSpec {
	return []fleet.JobSpec{
		{Seed: 5, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2},
		{Seed: 6, MaxSeconds: 20},
		{Seed: 7, Workload: &mission.WireSpec{KindName: "hover"}, MaxSeconds: 2, BatteryCells: 13},
	}
}

const (
	wireQueued  = `{"id":1,"state":"queued","spec":{"seed":5,"max_seconds":2,"workload":{"kind":"hover"}}}` + "\n"
	wireRunning = `{"id":1,"state":"running","spec":{"seed":5,"max_seconds":2,"workload":{"kind":"hover"}},"sim_time_s":0.25000000000000017}` + "\n"
	wireDone1   = `{"id":1,"state":"done","spec":{"seed":5,"max_seconds":2,"workload":{"kind":"hover"}},"flight_time_s":9.026000000000437,"energy_wh":0.2789071164320535,"compute_wh":0.010379900000000709,"compute_flight_cost_min":0.005598576962259952,"final_mode":"DISARMED","digests":{"trajectory":"38753e134063a2615f5b30bfbd29fec8faae7b5a28072c267507d443e5fad69d","flight_log":"9af5d9a7b1ded782e7ead1b61cd467568f9a24efd208b136e506143d2f3d385d","ledger":"3cb07175811cedc12043367ad087fd47c56964fb600628abf099ee06fe3a376f"}}`
	wireDone2   = `{"id":2,"state":"done","spec":{"seed":6,"max_seconds":20},"flight_time_s":20.00000000000146,"energy_wh":0.6756376305246954,"compute_wh":0.02299999999999078,"compute_flight_cost_min":0.011347305597395862,"completed":true,"final_mode":"LAND","digests":{"trajectory":"3ce077bbcf557281ae7c3c6079c78fc36141b17e81eb0443787ed0d635fd0bba","flight_log":"b9b8501d51359a2f99d5e5e6ec5f39d15bfd58fce1ea793d4dc31b1f8bd564c4","ledger":"92f3eacd63b91e69935779af91c222144263b3973e3f5beba3edb74fd90bbafc"}}`
	wireFailed3 = `{"id":3,"state":"failed","spec":{"seed":7,"max_seconds":2,"workload":{"kind":"hover"},"battery_cells":13},"error":"scenario: battery: power: cell count out of range"}`
	wireList    = `{"jobs":[` + wireDone1 + `,` + wireDone2 + `,` + wireFailed3 + `]}` + "\n"
)

// TestJobStatusWireBytes walks the pinned jobs through every state on a
// journaled one-lane server, then restarts it over the journal: each status
// body, live and recovered, matches its literal byte for byte.
func TestJobStatusWireBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := fleet.Config{MaxLanes: 1}
	srv, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitUnchecked(wireSpecs()); err != nil {
		t.Fatal(err)
	}
	check := func(srv *fleet.Server, stage, path, want string) {
		t.Helper()
		if got := getBody(t, srv, path); got != want {
			t.Errorf("%s GET %s:\n got %s\nwant %s", stage, path, got, want)
		}
	}
	check(srv, "queued", "/jobs/1", wireQueued)
	srv.Advance(250)
	check(srv, "running", "/jobs/1", wireRunning)
	drive(t, srv)
	terminal := map[string]string{
		"/jobs/1": wireDone1 + "\n",
		"/jobs/2": wireDone2 + "\n",
		"/jobs/3": wireFailed3 + "\n",
		"/jobs":   wireList,
	}
	for path, want := range terminal {
		check(srv, "live", path, want)
	}
	srv.Shutdown()

	// DONE records omit zero summary fields.
	wal, err := os.ReadFile(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(wal), `"completed":false`) {
		t.Error("journal DONE record carries a zero summary field")
	}

	recovered, _, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Shutdown()
	for path, want := range terminal {
		check(recovered, "recovered", path, want)
	}
}

// TestReplayExplicitZeroSummary replays a DONE record in the older form
// that spells out every summary field, zeros included ("completed": false),
// and requires the same status a live run serves.
func TestReplayExplicitZeroSummary(t *testing.T) {
	dir := t.TempDir()
	jl, _, _, err := journal.Open(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		kind    byte
		payload string
	}{
		{fleet.WalSubmitKind, `{"id":1,"spec":{"seed":5,"max_seconds":2,"workload":{"kind":"hover"}}}`},
		{fleet.WalDoneKind, `{"id":1,"digests":{"trajectory":"38753e134063a2615f5b30bfbd29fec8faae7b5a28072c267507d443e5fad69d","flight_log":"9af5d9a7b1ded782e7ead1b61cd467568f9a24efd208b136e506143d2f3d385d","ledger":"3cb07175811cedc12043367ad087fd47c56964fb600628abf099ee06fe3a376f"},"summary":{"flight_time_s":9.026000000000437,"energy_wh":0.2789071164320535,"compute_wh":0.010379900000000709,"compute_flight_cost_min":0.005598576962259952,"completed":false,"final_mode":"DISARMED"}}`},
	} {
		if err := jl.Append(r.kind, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	srv, rec, err := fleet.NewJournaled(fleet.Config{MaxLanes: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if rec.Completed != 1 || rec.Readmitted != 0 {
		t.Fatalf("completed=%d readmitted=%d, want 1/0", rec.Completed, rec.Readmitted)
	}
	if got := getBody(t, srv, "/jobs/1"); got != wireDone1+"\n" {
		t.Fatalf("replayed status:\n got %s\nwant %s", got, wireDone1)
	}
}
