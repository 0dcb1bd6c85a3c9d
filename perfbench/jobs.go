package main

import (
	"encoding/json"
	"math/rand"
)

// wireJob is the job the load generator sends. It is the benchmark's own
// type, not fleet.JobSpec, so the bytes on the wire use only the stable
// fields: seed, max_seconds, wind_*, battery_* and workload.kind. It never
// sends the legacy hover flag.
type wireJob struct {
	Seed               int64    `json:"seed"`
	MaxSeconds         float64  `json:"max_seconds,omitempty"`
	WindMeanMS         float64  `json:"wind_mean_ms,omitempty"`
	WindGustMS         float64  `json:"wind_gust_ms,omitempty"`
	BatteryCells       int      `json:"battery_cells,omitempty"`
	BatteryCapacityMah float64  `json:"battery_capacity_mah,omitempty"`
	BatteryCRating     float64  `json:"battery_c_rating,omitempty"`
	Workload           wireKind `json:"workload"`
}

type wireKind struct {
	Kind string `json:"kind"`
}

// campaignKinds are flown in equal shares by the campaign workload.
var campaignKinds = []string{"box", "coverage", "delivery", "follow", "hover"}

// Hover loiter lengths. Hover is the one kind whose length is set by
// max_seconds; the other kinds fly their default mission under the
// default 240 s cap.
const (
	campaignHoverS = 20
	tenantHoverS   = 2
)

// Value ranges the generator draws from. They sit well inside what the
// server accepts today and inside any plausible physical validation:
// calm to moderate wind, 3S/4S packs of 3000-5000 mAh at 25-40 C.
const (
	maxWindMeanMS = 4.0
	maxGustFrac   = 0.5
)

// drawJob fills a job of the given kind from rng. The job is a pure
// function of the rng's state.
func drawJob(rng *rand.Rand, kind string, hoverS float64) wireJob {
	j := wireJob{Seed: 1 + rng.Int63n(1<<31), Workload: wireKind{Kind: kind}}
	if kind == "hover" {
		j.MaxSeconds = hoverS
	}
	j.WindMeanMS = maxWindMeanMS * rng.Float64()
	j.WindGustMS = j.WindMeanMS * maxGustFrac * rng.Float64()
	j.BatteryCells = 3 + rng.Intn(2)
	j.BatteryCapacityMah = float64(3000 + 500*rng.Intn(5))
	j.BatteryCRating = float64(25 + 5*rng.Intn(4))
	return j
}

// dupEvery sets the share of repeated specs: job i of a campaign round, or
// job k of a tenant, with index ≡ dupEvery-1 (mod dupEvery) repeats an
// earlier job of the same kind and stream, so the correctness gate can check
// that jobs sharing a spec agree. Every other job is drawn fresh. The
// repeats are 1 job in 32 (3.1%).
const dupEvery = 32

// dupSource maps job index i to the index whose spec it flies. A repeat
// goes back by the largest multiple of the kind cycle below dupEvery, so it
// keeps its slot's kind.
func dupSource(i, cycle int) int {
	if i%dupEvery != dupEvery-1 {
		return i
	}
	return i - (dupEvery-1)/cycle*cycle
}

// Streams keep campaign and tenant draws apart.
const (
	streamCampaign = 1
	streamTenant   = 2
)

// jobRNG returns the generator of one job: a pure function of the seed, the
// stream and the job's two coordinates, so no two jobs share a draw.
func jobRNG(seed int64, stream, a, b int) *rand.Rand {
	x := uint64(seed)
	for _, v := range []int{stream, a, b} {
		x = splitmix64(x ^ uint64(v))
	}
	return rand.New(rand.NewSource(int64(x)))
}

// splitmix64 is Steele, Lea and Flood's 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// campaignJob is job i of campaign round r: kind i mod 5, with its own
// seed, wind and battery. It is a pure function of (seed, r, i).
func campaignJob(seed int64, r, i int) wireJob {
	i = dupSource(i, len(campaignKinds))
	return drawJob(jobRNG(seed, streamCampaign, r, i), campaignKinds[i%len(campaignKinds)], campaignHoverS)
}

// campaignRound is round r's job list of n jobs.
func campaignRound(seed int64, r, n int) []wireJob {
	jobs := make([]wireJob, n)
	for i := range jobs {
		jobs[i] = campaignJob(seed, r, i)
	}
	return jobs
}

// tenantCycle is the tenant kind cycle: a default box every fourth job
// (offset by tenant, so a quarter of the tenants fly a box at any moment)
// and a 2 s hover otherwise.
const tenantCycle = 4

// tenantJob is tenant t's k-th job, with its own seed, wind and battery. It
// is a pure function of (seed, t, k).
func tenantJob(seed int64, t, k int) wireJob {
	k = dupSource(k, tenantCycle)
	kind := "hover"
	if (t+k)%tenantCycle == 0 {
		kind = "box"
	}
	return drawJob(jobRNG(seed, streamTenant, t, k), kind, tenantHoverS)
}

// encode returns the job's wire bytes. Jobs with equal bytes are the same
// experiment.
func (j wireJob) encode() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // a struct of plain numbers and strings always encodes
	}
	return b
}
