package fleet_test

// Wire-validation and journal-compatibility tests: scalar JobSpec fields
// are bounded and finite before anything is journaled, the HTTP front door
// decodes strictly, replay fails (never re-flies) a journaled spec that no
// longer validates, and old journals carrying the retired hover flag
// migrate to the hover workload bit-identically.

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dronedse/fleet"
	"dronedse/fleet/journal"
	"dronedse/mathx"
	"dronedse/mission"
	"dronedse/scenario"
)

// acceptSpecs are specs Validate must accept; FuzzJobSpec seeds from them.
func acceptSpecs() []fleet.JobSpec {
	hover := &mission.WireSpec{KindName: "hover"}
	return []fleet.JobSpec{
		{},
		{Seed: -5, MaxSeconds: fleet.MaxJobSeconds},
		// The extremes of the benchmark's job draws.
		{Seed: 1, MaxSeconds: 2, WindMeanMS: 4, WindGustMS: 2, BatteryCells: 3,
			BatteryCapacityMah: 3000, BatteryCRating: 25, Workload: hover},
		{Seed: 2, MaxSeconds: 20, WindMeanMS: 4, WindGustMS: 2, BatteryCells: 4,
			BatteryCapacityMah: 5000, BatteryCRating: 40, Workload: hover},
		{Seed: 3, WindMeanMS: 0.5, BatteryCells: 4, BatteryCapacityMah: 4500,
			BatteryCRating: 30, Workload: &mission.WireSpec{KindName: "coverage"}},
		{Seed: 4, TakeoffAltM: 8, SLAM: true, TelemetryEverySteps: 100, DeadlineS: 30},
	}
}

// rejectSpecs are specs Validate must refuse, by reason; FuzzJobSpec seeds
// from them.
func rejectSpecs() map[string]fleet.JobSpec {
	return map[string]fleet.JobSpec{
		"max_seconds 1e9":      {Seed: 1, MaxSeconds: 1e9},
		"max_seconds over cap": {Seed: 1, MaxSeconds: fleet.MaxJobSeconds + 0.5},
		"NaN wind":             {Seed: 1, WindMeanMS: math.NaN()},
		"infinite gust":        {Seed: 1, WindMeanMS: 2, WindGustMS: math.Inf(1)},
		"negative capacity":    {Seed: 1, BatteryCapacityMah: -3000},
		"negative C rating":    {Seed: 1, BatteryCRating: -1},
		"negative cells":       {Seed: 1, BatteryCells: -3},
		"negative takeoff alt": {Seed: 1, TakeoffAltM: -5},
		"negative max_seconds": {Seed: 1, MaxSeconds: -1},
		"negative deadline":    {Seed: 1, DeadlineS: -1},
		"NaN deadline":         {Seed: 1, DeadlineS: math.NaN()},
		"negative telemetry":   {Seed: 1, TelemetryEverySteps: -1},
		"bad workload":         {Seed: 1, Workload: &mission.WireSpec{KindName: "teleport"}},
		"empty delivery":       {Seed: 1, Workload: &mission.WireSpec{KindName: "delivery", Delivery: &mission.Delivery{}}},
		"13 cells":             {Seed: 1, BatteryCells: 13},
		"one-point trajectory": {Seed: 1, Workload: &mission.WireSpec{KindName: "trajectory",
			Trajectory: &mission.Trajectory{Path: []mathx.Vec3{{X: 0, Y: 0, Z: 5}, {X: 0, Y: 0, Z: 5}}}}},
	}
}

func TestJobSpecValidate(t *testing.T) {
	for i, spec := range acceptSpecs() {
		if err := spec.Validate(); err != nil {
			t.Errorf("accept[%d]: %v", i, err)
		}
	}
	srv, _, err := fleet.NewJournaled(fleet.Config{MaxLanes: 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	size := srv.Journal().Size()
	for name, bad := range rejectSpecs() {
		if _, err := srv.Submit(bad); !errors.Is(err, fleet.ErrBadSpec) {
			t.Errorf("%s: submit err = %v, want ErrBadSpec", name, err)
		}
	}
	if got := srv.Journal().Size(); got != size {
		t.Fatalf("refused specs grew the journal from %d to %d bytes", size, got)
	}
	if st := srv.Stats(); st.Submitted != 0 {
		t.Fatalf("refused specs admitted %d jobs", st.Submitted)
	}
}

// TestStrictWireDecode: an unknown field — a stale client's retired hover
// flag, or a typo — is a 400 at the front door, and nothing is journaled.
func TestStrictWireDecode(t *testing.T) {
	srv, _, err := fleet.NewJournaled(fleet.Config{MaxLanes: 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	size := srv.Journal().Size()
	for _, body := range []string{
		`[{"seed": 1, "hover": true}]`,
		`[{"seed": 1, "max_second": 5}]`,
		`[{"seed": 1, "max_seconds": 1e9}]`,
		`[{"seed": 1, "battery_cells": 13}]`,
		`[{"seed": 1, "workload": {"kind": "trajectory", "trajectory": {"path": [{"X":0,"Y":0,"Z":5},{"X":0,"Y":0,"Z":5}]}}}]`,
	} {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if got := srv.Journal().Size(); got != size {
		t.Fatalf("refused bodies grew the journal from %d to %d bytes", size, got)
	}
	if st := srv.Stats(); st.Submitted != 0 {
		t.Fatalf("refused bodies admitted %d jobs", st.Submitted)
	}
}

// writeJournal hand-builds a journal of SUBMIT records in dir.
func writeJournal(t *testing.T, dir string, submits ...string) {
	t.Helper()
	jl, _, _, err := journal.Open(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range submits {
		if err := jl.Append(fleet.WalSubmitKind, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
}

// TestReplayFailsInvalidSubmit: an unfinished SUBMIT journaled before
// validation covered it (max_seconds 1e9 once ran fleetd out of memory at
// admission, on every restart) is journaled as failed on replay and never
// flown; its valid neighbour re-flies as usual, and a second restart finds
// the failure already terminal.
func TestReplayFailsInvalidSubmit(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		`{"id":1,"spec":{"seed":1,"max_seconds":1e9}}`,
		`{"id":2,"spec":{"seed":2,"max_seconds":2,"workload":{"kind":"hover"}}}`)
	cfg := fleet.Config{MaxLanes: 2}

	srv, rec, err := fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 1 || rec.Readmitted != 1 {
		t.Fatalf("recovered %d failed + %d readmitted, want 1 + 1", rec.Failed, rec.Readmitted)
	}
	drive(t, srv)
	bad, _ := srv.Job(1)
	if bad.State != "failed" || !strings.Contains(bad.Error, fleet.ErrBadSpec.Error()) {
		t.Fatalf("invalid job after replay: %+v", bad)
	}
	if good, _ := srv.Job(2); good.State != "done" {
		t.Fatalf("valid job after replay: %+v", good)
	}
	if st := srv.Stats(); st.LaneSteps == 0 || st.Completed != 1 {
		t.Fatalf("stats after replay: %+v", st)
	}
	srv.Shutdown()

	srv, rec, err = fleet.NewJournaled(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if rec.Failed != 1 || rec.Completed != 1 || rec.Readmitted != 0 {
		t.Fatalf("second restart: %d failed, %d done, %d readmitted; want 1/1/0",
			rec.Failed, rec.Completed, rec.Readmitted)
	}
}

// TestJournalHoverMigration replays an old-format journal whose unfinished
// SUBMIT carries the retired "hover": true flag: the job re-flies as the
// hover workload, with digests equal to a direct scenario.Run of the
// hover-workload spec. Any other unknown SUBMIT field still fails recovery.
func TestJournalHoverMigration(t *testing.T) {
	spec := fleet.JobSpec{Seed: 7, MaxSeconds: 2, WindMeanMS: 4, WindGustMS: 2,
		Workload: &mission.WireSpec{KindName: "hover"}}
	res, err := scenario.Run(spec.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	want := fleet.DigestResult(res)

	dir := t.TempDir()
	writeJournal(t, dir,
		`{"id":1,"spec":{"seed":7,"hover":true,"max_seconds":2,"wind_mean_ms":4,"wind_gust_ms":2}}`)
	srv, rec, err := fleet.NewJournaled(fleet.Config{MaxLanes: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if rec.Readmitted != 1 {
		t.Fatalf("readmitted %d, want 1", rec.Readmitted)
	}
	drive(t, srv)
	st, _ := srv.Job(1)
	if st.Digests == nil || *st.Digests != want {
		t.Fatalf("migrated hover job diverged from the hover-workload run: %+v", st)
	}
	if st.Spec.Workload == nil || st.Spec.Workload.Kind() != "hover" {
		t.Fatalf("migrated spec: %+v", st.Spec)
	}

	bad := t.TempDir()
	writeJournal(t, bad, `{"id":1,"spec":{"seed":7,"hovr":true}}`)
	if _, _, err := fleet.NewJournaled(fleet.Config{}, bad); err == nil {
		t.Fatal("a SUBMIT with an unknown field replayed without error")
	}
}
