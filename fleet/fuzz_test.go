package fleet_test

import (
	"encoding/json"
	"strings"
	"testing"

	"dronedse/fleet"
	"dronedse/scenario"
)

// fuzzMaxSeconds bounds each accepted input's flight horizon, and with it
// the per-flight buffers Build reserves, so one input stays cheap.
const fuzzMaxSeconds = 60

// FuzzJobSpec fuzzes the wire contract: a body that decodes strictly, as
// POST /jobs decodes it, and passes Validate must build. A spec Validate
// accepts but Build refuses would be journaled and acked, then fail at
// admission.
func FuzzJobSpec(f *testing.F) {
	specs := append(acceptSpecs(), workloadJobs()...)
	for _, spec := range rejectSpecs() {
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		// The NaN and Inf reject rows have no JSON form.
		if b, err := json.Marshal(spec); err == nil {
			f.Add(string(b))
		}
	}
	// Bodies no JobSpec encodes to: a NaN literal and an unknown field.
	f.Add(`{"seed": 1, "wind_mean_ms": NaN}`)
	f.Add(`{"seed": 1, "max_second": 5}`)
	f.Fuzz(func(t *testing.T, body string) {
		var spec fleet.JobSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		if spec.MaxSeconds == 0 || spec.MaxSeconds > fuzzMaxSeconds {
			spec.MaxSeconds = fuzzMaxSeconds
		}
		if _, err := scenario.Build(spec.Scenario()); err != nil {
			t.Fatalf("Validate accepted %s, Build refused it: %v", body, err)
		}
	})
}
