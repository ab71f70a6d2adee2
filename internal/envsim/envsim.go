// Package envsim provides the user-supplied environment simulator of the
// GOOFI architecture (paper Fig. 1 and §3.2): a model of the target system's
// physical environment that exchanges data with the workload at the end of
// every workload loop iteration.
//
// At each exchange the tool reads the workload's output memory locations,
// hands them to the simulator's Step, and writes the returned values into
// the workload's input locations before execution resumes.
package envsim

import (
	"fmt"
	"sort"
	"sync"
)

// Simulator models the target system environment.
type Simulator interface {
	// Name identifies the simulator in CampaignData.
	Name() string
	// Step consumes the workload's outputs for this iteration and produces
	// the inputs for the next one.
	Step(outputs []uint32) (inputs []uint32)
	// Reset restores the initial environment state before each experiment.
	Reset()
}

// registry of simulators, keyed by name. The built-ins are installed when
// the package is initialised.
var (
	regMu    sync.RWMutex
	registry = map[string]func() Simulator{
		"echo":       func() Simulator { return NewEcho() },
		"jet-engine": func() Simulator { return NewJetEngine() },
		"pendulum":   func() Simulator { return NewPendulum() },
	}
)

// Register installs a simulator constructor under its name. Registering a
// duplicate name returns an error rather than silently replacing it.
func Register(name string, ctor func() Simulator) error {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("envsim: simulator %q already registered", name)
	}
	registry[name] = ctor
	return nil
}

// New instantiates a registered simulator.
func New(name string) (Simulator, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("envsim: unknown simulator %q", name)
	}
	return ctor(), nil
}

// Names lists the registered simulators in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Echo ---

// Echo returns its outputs unchanged as next inputs; useful in tests.
type Echo struct{}

// NewEcho builds an Echo simulator.
func NewEcho() *Echo { return &Echo{} }

// Name implements Simulator.
func (*Echo) Name() string { return "echo" }

// Step implements Simulator.
func (*Echo) Step(outputs []uint32) []uint32 {
	in := make([]uint32, len(outputs))
	copy(in, outputs)
	return in
}

// Reset implements Simulator.
func (*Echo) Reset() {}

// --- Jet engine ---

// JetEngine is a first-order integer model of the jet-engine plant used by
// the companion control-application study (paper ref. [12]): the workload
// commands a throttle, the engine speed follows with lag, and the simulator
// feeds the measured speed and the setpoint back to the workload.
//
// All quantities are scaled integers so the integer-only target can close
// the loop. The model is fully deterministic.
type JetEngine struct {
	speed    int64
	setpoint int64
	step     int
}

// Jet-engine model constants.
const (
	// JetSetpointLow/High are the commanded speeds; the setpoint steps from
	// low to high mid-run to exercise the transient response.
	JetSetpointLow  = 6000
	JetSetpointHigh = 9000
	// jetGain converts throttle command to acceleration; jetDrag is the
	// speed-proportional deceleration divisor.
	jetGain = 12
	jetDrag = 8
	// JetStepChange is the iteration at which the setpoint steps.
	JetStepChange = 40
	// JetMaxSpeed bounds the physical model.
	JetMaxSpeed = 20000
)

// NewJetEngine builds the plant at rest with the low setpoint.
func NewJetEngine() *JetEngine {
	return &JetEngine{speed: 2000, setpoint: JetSetpointLow}
}

// Name implements Simulator.
func (*JetEngine) Name() string { return "jet-engine" }

// Step consumes outputs[0] = throttle command and returns
// [measured speed, setpoint].
func (j *JetEngine) Step(outputs []uint32) []uint32 {
	var cmd int64
	if len(outputs) > 0 {
		cmd = int64(int32(outputs[0]))
	}
	if cmd < 0 {
		cmd = 0
	}
	if cmd > 4095 {
		cmd = 4095
	}
	j.step++
	if j.step == JetStepChange {
		j.setpoint = JetSetpointHigh
	}
	j.speed += cmd*jetGain/8 - j.speed/jetDrag
	if j.speed < 0 {
		j.speed = 0
	}
	if j.speed > JetMaxSpeed {
		j.speed = JetMaxSpeed
	}
	return []uint32{uint32(j.speed), uint32(j.setpoint)}
}

// Reset implements Simulator.
func (j *JetEngine) Reset() {
	j.speed = 2000
	j.setpoint = JetSetpointLow
	j.step = 0
}

// Speed exposes the plant state for assertions in tests and analysis.
func (j *JetEngine) Speed() int64 { return j.speed }

// --- Inverted pendulum ---

// Pendulum is a small second-order integer plant: the workload applies a
// corrective force to keep the pole near upright. Angle and velocity are in
// scaled milliradians.
type Pendulum struct {
	angle    int64 // scaled mrad, positive = falling right
	velocity int64
}

// NewPendulum starts slightly off balance.
func NewPendulum() *Pendulum { return &Pendulum{angle: 120} }

// Name implements Simulator.
func (*Pendulum) Name() string { return "pendulum" }

// Step consumes outputs[0] = signed force command and returns
// [angle, velocity] as two's-complement words.
func (p *Pendulum) Step(outputs []uint32) []uint32 {
	var force int64
	if len(outputs) > 0 {
		force = int64(int32(outputs[0]))
	}
	if force > 2000 {
		force = 2000
	}
	if force < -2000 {
		force = -2000
	}
	// Gravity torque proportional to angle; force opposes it.
	p.velocity += p.angle/8 - force/4
	p.angle += p.velocity / 4
	const limit = 1 << 20
	if p.angle > limit {
		p.angle = limit
	}
	if p.angle < -limit {
		p.angle = -limit
	}
	return []uint32{uint32(int32(p.angle)), uint32(int32(p.velocity))}
}

// Reset implements Simulator.
func (p *Pendulum) Reset() {
	p.angle = 120
	p.velocity = 0
}

// Angle exposes the plant state.
func (p *Pendulum) Angle() int64 { return p.angle }

// --- Recorder ---

// Recorder wraps a simulator and records every output vector the workload
// produced. The campaign runner logs this trace so the analysis phase can
// classify escaped errors of non-terminating workloads by comparing output
// histories against the reference run (paper §3.4, "incorrect results").
//
// The recording is one flat log: vals holds every recorded word in iteration
// order and ends[i] is len(vals) after iteration i, so iterations may differ
// in width. Copying the whole history is two memmoves, not one allocation
// per iteration.
type Recorder struct {
	inner Simulator
	vals  []uint32
	ends  []uint32
}

// NewRecorder wraps inner.
func NewRecorder(inner Simulator) *Recorder { return &Recorder{inner: inner} }

// Name implements Simulator.
func (r *Recorder) Name() string { return r.inner.Name() }

// Step implements Simulator, recording the outputs.
func (r *Recorder) Step(outputs []uint32) []uint32 {
	r.vals = append(r.vals, outputs...)
	r.ends = append(r.ends, uint32(len(r.vals)))
	return r.inner.Step(outputs)
}

// Reset implements Simulator and clears the recording, keeping its buffers.
func (r *Recorder) Reset() {
	r.inner.Reset()
	r.vals = r.vals[:0]
	r.ends = r.ends[:0]
}

// Log returns the recording as read-only views of the flat log: vals holds
// every recorded word in iteration order and ends[i] is len(vals) after
// iteration i. The views copy nothing and stay valid until the next Step,
// Reset or RestoreState; both are cap-clamped, so appending to one cannot
// write into the recorder.
func (r *Recorder) Log() (vals, ends []uint32) {
	return r.vals[:len(r.vals):len(r.vals)], r.ends[:len(r.ends):len(r.ends)]
}

// Stateful is implemented by simulators whose internal state can be saved
// and restored; checkpointed campaigns need it so that a restored machine
// resumes against the same environment trajectory.
type Stateful interface {
	SaveState() any
	RestoreState(state any) error
}

type jetState struct {
	speed, setpoint int64
	step            int
}

// SaveState implements Stateful.
func (j *JetEngine) SaveState() any {
	return jetState{speed: j.speed, setpoint: j.setpoint, step: j.step}
}

// RestoreState implements Stateful.
func (j *JetEngine) RestoreState(state any) error {
	s, ok := state.(jetState)
	if !ok {
		return fmt.Errorf("envsim: jet-engine cannot restore %T", state)
	}
	j.speed, j.setpoint, j.step = s.speed, s.setpoint, s.step
	return nil
}

type pendulumState struct {
	angle, velocity int64
}

// SaveState implements Stateful.
func (p *Pendulum) SaveState() any {
	return pendulumState{angle: p.angle, velocity: p.velocity}
}

// RestoreState implements Stateful.
func (p *Pendulum) RestoreState(state any) error {
	s, ok := state.(pendulumState)
	if !ok {
		return fmt.Errorf("envsim: pendulum cannot restore %T", state)
	}
	p.angle, p.velocity = s.angle, s.velocity
	return nil
}

// SaveState implements Stateful; Echo has no state.
func (*Echo) SaveState() any { return nil }

// RestoreState implements Stateful.
func (*Echo) RestoreState(any) error { return nil }

type recorderState struct {
	vals, ends []uint32
	inner      any
}

// SaveState implements Stateful: the recording and, when the wrapped
// simulator is itself Stateful, its state too. The snapshot owns its copy of
// the recording.
func (r *Recorder) SaveState() any {
	st := recorderState{
		vals: append([]uint32(nil), r.vals...),
		ends: append([]uint32(nil), r.ends...),
	}
	if s, ok := r.inner.(Stateful); ok {
		st.inner = s.SaveState()
	}
	return st
}

// RestoreState implements Stateful. The snapshot is copied into the
// recorder's own buffers, so the two never share memory and a warmed
// recorder restores without allocating.
func (r *Recorder) RestoreState(state any) error {
	st, ok := state.(recorderState)
	if !ok {
		return fmt.Errorf("envsim: recorder cannot restore %T", state)
	}
	r.vals = append(r.vals[:0], st.vals...)
	r.ends = append(r.ends[:0], st.ends...)
	if s, ok := r.inner.(Stateful); ok {
		return s.RestoreState(st.inner)
	}
	return nil
}
