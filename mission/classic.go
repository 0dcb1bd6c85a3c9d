package mission

import (
	"errors"
	"fmt"

	"dronedse/autopilot"
	"dronedse/mathx"
	"dronedse/planner"
)

// BoxPlan is the reference 12 m box mission at the given takeoff altitude —
// the plan cmd/flysim, faultx campaigns and bench.RunFigure16 all fly, so
// their outputs stay mutually bit-comparable.
func BoxPlan(altM float64) autopilot.MissionPlan {
	return autopilot.MissionPlan{
		{Pos: mathx.V3(12, 0, altM+1), HoldS: 1},
		{Pos: mathx.V3(12, 12, altM+3), HoldS: 1},
		{Pos: mathx.V3(0, 12, altM+1), HoldS: 1},
	}
}

// Box is the zero-configuration reference workload: the 12 m box mission at
// the Spec's takeoff altitude. It is what a scenario.Spec with a nil
// Workload flies.
type Box struct{}

// Kind implements Workload.
func (Box) Kind() string { return "box" }

// Validate implements Workload; the box has no parameters.
func (Box) Validate() error { return nil }

// HorizonS implements Workload: the mission window plus the landing watch.
func (Box) HorizonS(maxSeconds float64) float64 { return maxSeconds + 60 }

// New implements Workload.
func (Box) New(ctx Context) (Driver, error) {
	return &waypointDriver{kind: "box", plan: BoxPlan(ctx.TakeoffAltM), maxS: ctx.MaxSeconds}, nil
}

// Waypoints flies an explicit autopilot mission plan, in process or as the
// wire form for tenant-supplied waypoint missions.
type Waypoints struct {
	Plan autopilot.MissionPlan `json:"plan"`
}

// Kind implements Workload.
func (Waypoints) Kind() string { return "waypoints" }

// Validate implements Workload, mirroring autopilot.LoadMission's checks
// plus finiteness (wire input).
func (w Waypoints) Validate() error {
	if len(w.Plan) == 0 {
		return errors.New("mission: empty waypoint plan")
	}
	for i, wp := range w.Plan {
		if !finiteVec(wp.Pos) || !finite(wp.HoldS) || !finite(wp.AcceptRadiusM) {
			return fmt.Errorf("mission: waypoint %d not finite", i)
		}
		if wp.Pos.Z <= 0 {
			return fmt.Errorf("mission: waypoint %d below ground", i)
		}
	}
	return nil
}

// HorizonS implements Workload.
func (Waypoints) HorizonS(maxSeconds float64) float64 { return maxSeconds + 60 }

// New implements Workload.
func (w Waypoints) New(ctx Context) (Driver, error) {
	return &waypointDriver{kind: "waypoints", plan: w.Plan, maxS: ctx.MaxSeconds}, nil
}

// waypointDriver executes a waypoint mission with the engine's historical
// semantics: StartMission at takeoff resolution, then fly until the vehicle
// disarms or the MaxSeconds window (counted from t=0, takeoff included)
// lapses. Box, Waypoints, Coverage and Delivery all run on it.
type waypointDriver struct {
	kind   string
	plan   autopilot.MissionPlan
	maxS   float64
	budget int
	out    Outcome

	// onStep, when non-nil, observes every flown step (delivery's payload
	// watcher). onDone, when non-nil, decorates the outcome.
	onStep func(h Host)
	onDone func(h Host, out *Outcome)
}

func (d *waypointDriver) Start(h Host) error { return h.AP().LoadMission(d.plan) }

func (d *waypointDriver) Begin(h Host, takeoffOK bool) (bool, error) {
	ap := h.AP()
	if takeoffOK {
		if err := ap.StartMission(); err == nil {
			h.MissionStarted()
		}
	}
	d.budget = stepBudget(d.maxS-ap.Time(), ap.PhysicsHz())
	if d.budget <= 0 {
		d.finish(h)
		return true, nil
	}
	return false, nil
}

func (d *waypointDriver) Step(h Host) bool {
	d.budget--
	if d.onStep != nil {
		d.onStep(h)
	}
	if h.AP().Mode() == autopilot.Disarmed || d.budget <= 0 {
		d.finish(h)
		return true
	}
	return false
}

func (d *waypointDriver) finish(h Host) {
	d.out = Outcome{Kind: d.kind, Completed: h.AP().MissionCompleted()}
	if d.onDone != nil {
		d.onDone(h, &d.out)
	}
}

func (d *waypointDriver) Outcome() Outcome { return d.out }

// Hover loiters at the takeoff altitude for MaxSeconds, then lands
// (flysim's -workload hover).
type Hover struct{}

// Kind implements Workload.
func (Hover) Kind() string { return "hover" }

// Validate implements Workload.
func (Hover) Validate() error { return nil }

// HorizonS implements Workload: the loiter plus the landing watch.
func (Hover) HorizonS(maxSeconds float64) float64 { return maxSeconds + 60 }

// New implements Workload.
func (Hover) New(ctx Context) (Driver, error) {
	return &hoverDriver{loiterS: ctx.MaxSeconds}, nil
}

// hoverDriver replicates the historical hover branch: loiter for the full
// MaxSeconds budget (a failed takeoff lands straight away), then command a
// landing and watch it for 60 s.
type hoverDriver struct {
	loiterS  float64
	landing  bool
	loitered bool
	budget   int
	out      Outcome
}

func (d *hoverDriver) Start(h Host) error { return nil }

func (d *hoverDriver) Begin(h Host, takeoffOK bool) (bool, error) {
	if takeoffOK {
		d.budget = stepBudget(d.loiterS, h.AP().PhysicsHz())
		if d.budget > 0 {
			return false, nil
		}
		d.loitered = true
	}
	return d.land(h), nil
}

// land commands the descent and enters the 60 s landing watch; it reports
// true when the watch budget is already spent (the flight resolves now).
func (d *hoverDriver) land(h Host) bool {
	h.AP().CommandLand()
	d.landing = true
	d.budget = stepBudget(60, h.AP().PhysicsHz())
	if d.budget <= 0 {
		d.finish(h)
		return true
	}
	return false
}

func (d *hoverDriver) Step(h Host) bool {
	d.budget--
	if !d.landing {
		if d.budget <= 0 {
			d.loitered = true
			return d.land(h)
		}
		return false
	}
	if h.AP().Mode() == autopilot.Disarmed || d.budget <= 0 {
		d.finish(h)
		return true
	}
	return false
}

func (d *hoverDriver) finish(h Host) {
	d.out = Outcome{
		Kind:      "hover",
		Completed: d.loitered && h.AP().Mode() == autopilot.Disarmed,
	}
}

func (d *hoverDriver) Outcome() Outcome { return d.out }

// Trajectory flies a time-parametrized planner trajectory after takeoff and
// ends hovering at its terminus. In process, pass a pre-built Traj; for the
// wire form, supply Path/VMaxMS/AMaxMS2 and the profile is planned at Build.
type Trajectory struct {
	// Traj is the in-process, pre-planned form (examples, planners).
	Traj *planner.Trajectory `json:"-"`
	// Path plus the velocity/acceleration limits are the serializable form;
	// used only when Traj is nil.
	Path    []mathx.Vec3 `json:"path,omitempty"`
	VMaxMS  float64      `json:"vmax_ms,omitempty"`  // default 5
	AMaxMS2 float64      `json:"amax_ms2,omitempty"` // default 3
}

// Kind implements Workload.
func (Trajectory) Kind() string { return "trajectory" }

// Validate implements Workload: a wire path must be finite and one the
// planner can time-parametrize.
func (t Trajectory) Validate() error {
	_, err := t.resolve()
	return err
}

// HorizonS implements Workload: the longer of the mission window and the
// trajectory's own duration plus its hover-settle margin.
func (t Trajectory) HorizonS(maxSeconds float64) float64 {
	h := maxSeconds + 60
	if t.Traj != nil {
		if d := t.Traj.TotalS + 30; d > h {
			h = d
		}
	}
	return h
}

// resolve returns the flyable trajectory, planning the wire form on demand.
func (t Trajectory) resolve() (*planner.Trajectory, error) {
	if t.Traj != nil {
		return t.Traj, nil
	}
	for i, p := range t.Path {
		if !finiteVec(p) {
			return nil, fmt.Errorf("mission: trajectory path point %d not finite", i)
		}
	}
	if !finite(t.VMaxMS) || t.VMaxMS < 0 || !finite(t.AMaxMS2) || t.AMaxMS2 < 0 {
		return nil, errors.New("mission: trajectory limits must be finite and non-negative")
	}
	vmax, amax := t.VMaxMS, t.AMaxMS2
	if vmax == 0 {
		vmax = 5
	}
	if amax == 0 {
		amax = 3
	}
	return planner.PlanTrajectory(t.Path, vmax, amax)
}

// New implements Workload.
func (t Trajectory) New(ctx Context) (Driver, error) {
	traj, err := t.resolve()
	if err != nil {
		return nil, err
	}
	return &trajectoryDriver{traj: traj}, nil
}

// trajectoryDriver replicates the historical trajectory branch: FlyTrajectory
// at takeoff resolution, then fly until the autopilot settles back into
// Hover at the terminus or the TotalS+30 budget lapses. A failed takeoff
// ends the flight immediately.
type trajectoryDriver struct {
	traj   *planner.Trajectory
	budget int
	out    Outcome
}

func (d *trajectoryDriver) Start(h Host) error { return nil }

func (d *trajectoryDriver) Begin(h Host, takeoffOK bool) (bool, error) {
	ap := h.AP()
	if !takeoffOK {
		d.finish(h)
		return true, nil
	}
	if err := ap.FlyTrajectory(d.traj); err != nil {
		return false, err
	}
	d.budget = stepBudget(d.traj.TotalS+30, ap.PhysicsHz())
	if d.budget <= 0 {
		d.finish(h)
		return true, nil
	}
	return false, nil
}

func (d *trajectoryDriver) Step(h Host) bool {
	d.budget--
	if h.AP().Mode() == autopilot.Hover || d.budget <= 0 {
		d.finish(h)
		return true
	}
	return false
}

func (d *trajectoryDriver) finish(h Host) {
	d.out = Outcome{Kind: "trajectory", Completed: h.AP().Mode() == autopilot.Hover}
}

func (d *trajectoryDriver) Outcome() Outcome { return d.out }
