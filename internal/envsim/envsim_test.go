package envsim

import (
	"reflect"
	"testing"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{"echo": true, "jet-engine": true, "pendulum": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing simulators: %v (have %v)", want, names)
	}
	if _, err := New("echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown simulator should fail")
	}
	// Duplicate registration is rejected.
	if err := Register("echo", func() Simulator { return NewEcho() }); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	// Fresh names register fine.
	if err := Register("custom-test-sim", func() Simulator { return NewEcho() }); err != nil {
		t.Fatal(err)
	}
}

func TestEcho(t *testing.T) {
	e := NewEcho()
	out := e.Step([]uint32{1, 2, 3})
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Fatalf("echo = %v", out)
	}
	e.Reset() // must not panic
	if e.Name() != "echo" {
		t.Fatal("name")
	}
}

func TestJetEngineConvergesUnderConstantCommand(t *testing.T) {
	j := NewJetEngine()
	var speed uint32
	for i := 0; i < 200; i++ {
		in := j.Step([]uint32{400})
		speed = in[0]
	}
	// Steady state for cmd c: c*gain/8 = speed/drag => speed = 12*c = 4800.
	if speed < 4500 || speed > 5100 {
		t.Fatalf("steady speed = %d", speed)
	}
}

func TestJetEngineSetpointStep(t *testing.T) {
	j := NewJetEngine()
	var set uint32
	for i := 0; i < JetStepChange+2; i++ {
		in := j.Step([]uint32{0})
		set = in[1]
	}
	if set != JetSetpointHigh {
		t.Fatalf("setpoint after step = %d", set)
	}
	j.Reset()
	in := j.Step([]uint32{0})
	if in[1] != JetSetpointLow {
		t.Fatalf("setpoint after reset = %d", in[1])
	}
}

func TestJetEngineClampsAndEmptyOutputs(t *testing.T) {
	j := NewJetEngine()
	// Negative and huge commands are clamped, speed stays within bounds.
	for i := 0; i < 300; i++ {
		in := j.Step([]uint32{0xFFFFFFFF}) // -1 as int32 -> clamped to 0
		if int32(in[0]) < 0 || in[0] > JetMaxSpeed {
			t.Fatalf("speed out of range: %d", in[0])
		}
	}
	j.Reset()
	for i := 0; i < 300; i++ {
		in := j.Step(nil)
		if in[0] > JetMaxSpeed {
			t.Fatalf("speed out of range: %d", in[0])
		}
	}
	j.Reset()
	for i := 0; i < 300; i++ {
		in := j.Step([]uint32{4095})
		if in[0] > JetMaxSpeed {
			t.Fatalf("speed exceeded clamp: %d", in[0])
		}
	}
}

func TestJetEngineDeterminism(t *testing.T) {
	run := func() []uint32 {
		j := NewJetEngine()
		var last []uint32
		for i := 0; i < 100; i++ {
			last = j.Step([]uint32{uint32(i * 13 % 4096)})
		}
		return last
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestPendulumRespondsToForce(t *testing.T) {
	p := NewPendulum()
	// No force: the pole falls (angle grows).
	for i := 0; i < 50; i++ {
		p.Step([]uint32{0})
	}
	fallen := p.Angle()
	if fallen <= 120 {
		t.Fatalf("pole did not fall: %d", fallen)
	}
	// A stabilising proportional controller keeps it bounded.
	p.Reset()
	var maxAbs int64
	for i := 0; i < 300; i++ {
		in := p.Step([]uint32{uint32(int32(p.Angle()))}) // force = angle
		a := int64(int32(in[0]))
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs >= fallen {
		t.Fatalf("controlled pendulum worse than free fall: %d vs %d", maxAbs, fallen)
	}
	if p.Name() != "pendulum" {
		t.Fatal("name")
	}
}

func TestPendulumForceClamp(t *testing.T) {
	p := NewPendulum()
	for i := 0; i < 1000; i++ {
		neg := int32(-1 << 30)
		in := p.Step([]uint32{uint32(neg)})
		a := int64(int32(in[0]))
		if a > 1<<20 || a < -(1<<20) {
			t.Fatalf("angle escaped clamp: %d", a)
		}
	}
}

// history splits the recorder's flat log into one private slice per
// iteration, the shape the tests compare.
func history(r *Recorder) [][]uint32 {
	vals, ends := r.Log()
	out := make([][]uint32, len(ends))
	start := uint32(0)
	for i, end := range ends {
		out[i] = append([]uint32(nil), vals[start:end]...)
		start = end
	}
	return out
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(NewEcho())
	r.Step([]uint32{1})
	r.Step([]uint32{2, 3})
	vals, ends := r.Log()
	if !reflect.DeepEqual(vals, []uint32{1, 2, 3}) || !reflect.DeepEqual(ends, []uint32{1, 3}) {
		t.Fatalf("log = %v, ends %v", vals, ends)
	}
	r.Reset()
	if vals, ends := r.Log(); len(vals) != 0 || len(ends) != 0 {
		t.Fatal("reset did not clear the log")
	}
	if r.Name() != "echo" {
		t.Fatal("recorder name should delegate")
	}
}

func TestStatefulSnapshots(t *testing.T) {
	// Jet engine: state survives a save/restore round trip mid-trajectory.
	j := NewJetEngine()
	for i := 0; i < 50; i++ {
		j.Step([]uint32{300})
	}
	snap := j.SaveState()
	want := j.Step([]uint32{300})
	for i := 0; i < 20; i++ {
		j.Step([]uint32{4095}) // diverge hard
	}
	if err := j.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	got := j.Step([]uint32{300})
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("restored continuation %v != %v", got, want)
	}
	if err := j.RestoreState("wrong type"); err == nil {
		t.Fatal("bad state should fail")
	}

	// Pendulum.
	p := NewPendulum()
	for i := 0; i < 30; i++ {
		p.Step([]uint32{10})
	}
	psnap := p.SaveState()
	pwant := p.Step([]uint32{10})
	p.Step([]uint32{2000})
	if err := p.RestoreState(psnap); err != nil {
		t.Fatal(err)
	}
	pgot := p.Step([]uint32{10})
	if pgot[0] != pwant[0] || pgot[1] != pwant[1] {
		t.Fatalf("pendulum restore broken: %v != %v", pgot, pwant)
	}
	if err := p.RestoreState(42); err == nil {
		t.Fatal("bad state should fail")
	}

	// Echo is stateless but implements the interface.
	e := NewEcho()
	if err := e.RestoreState(e.SaveState()); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderStateful(t *testing.T) {
	r := NewRecorder(NewJetEngine())
	r.Step([]uint32{100})
	r.Step([]uint32{200})
	snap := r.SaveState()
	r.Step([]uint32{300})
	r.Step([]uint32{400})
	if err := r.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	h := history(r)
	if len(h) != 2 || h[1][0] != 200 {
		t.Fatalf("history after restore = %v", h)
	}
	// The wrapped simulator's state was restored too: continuing from the
	// snapshot twice gives identical trajectories.
	a := r.Step([]uint32{150})
	if err := r.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	b := r.Step([]uint32{150})
	if a[0] != b[0] {
		t.Fatalf("inner state not restored: %v vs %v", a, b)
	}
	if err := r.RestoreState(3.14); err == nil {
		t.Fatal("bad state should fail")
	}
}

// TestRestoreStateRoundTrip pins the checkpoint contract of every built-in
// Stateful simulator: snapshot, diverge, restore, and the simulator must
// produce byte-identical trajectories from the snapshot point — including
// the Recorder's history, which feeds the logged StateVector.
func TestRestoreStateRoundTrip(t *testing.T) {
	for _, name := range []string{"echo", "jet-engine", "pendulum"} {
		t.Run(name, func(t *testing.T) {
			sim, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(sim)
			rec.Reset()
			step := func(r *Recorder, i int) []uint32 {
				return r.Step([]uint32{uint32(1000 + 17*i), uint32(i)})
			}
			for i := 0; i < 5; i++ {
				step(rec, i)
			}
			snap := rec.SaveState()
			wantHist := history(rec)

			// Reference trajectory from the snapshot point.
			var wantOut [][]uint32
			for i := 5; i < 10; i++ {
				wantOut = append(wantOut, step(rec, i))
			}

			// Diverge hard: different inputs, then a reset for good measure.
			for i := 0; i < 7; i++ {
				rec.Step([]uint32{0xFFFF, 9})
			}
			rec.Reset()

			if err := rec.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
			if got := history(rec); !reflect.DeepEqual(got, wantHist) {
				t.Fatalf("restored history = %v, want %v", got, wantHist)
			}
			for i := 5; i < 10; i++ {
				if got := step(rec, i); !reflect.DeepEqual(got, wantOut[i-5]) {
					t.Fatalf("step %d after restore = %v, want %v", i, got, wantOut[i-5])
				}
			}
			// The snapshot must survive the restore and further stepping:
			// restoring it a second time replays the same trajectory.
			if err := rec.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
			for i := 5; i < 10; i++ {
				if got := step(rec, i); !reflect.DeepEqual(got, wantOut[i-5]) {
					t.Fatalf("second replay step %d = %v, want %v", i, got, wantOut[i-5])
				}
			}
		})
	}
}

// TestRestoreStateTypeMismatch covers the error paths.
func TestRestoreStateTypeMismatch(t *testing.T) {
	if err := NewJetEngine().RestoreState("bogus"); err == nil {
		t.Error("jet-engine accepted a foreign snapshot")
	}
	if err := NewPendulum().RestoreState(42); err == nil {
		t.Error("pendulum accepted a foreign snapshot")
	}
	if err := NewRecorder(NewEcho()).RestoreState(jetState{}); err == nil {
		t.Error("recorder accepted a foreign snapshot")
	}
}

// TestRecorderLogViews pins Log's view contract: the views copy nothing
// (they see the recorder's own buffers, including after a restore into
// them), yet they are cap-clamped, so appending to one never writes into
// the recorder.
func TestRecorderLogViews(t *testing.T) {
	r := NewRecorder(NewJetEngine())
	r.Step([]uint32{1, 2})
	snap := r.SaveState()
	r.Step([]uint32{3})
	r.Step([]uint32{4, 5, 6})
	vals, ends := r.Log()
	if allocs := testing.AllocsPerRun(100, func() { vals, ends = r.Log() }); allocs != 0 {
		t.Fatalf("Log allocated %.1f times per call", allocs)
	}
	if !reflect.DeepEqual(history(r), [][]uint32{{1, 2}, {3}, {4, 5, 6}}) {
		t.Fatalf("history = %v", history(r))
	}
	_ = append(vals, 99)
	_ = append(ends, 99)
	if err := r.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	r.Step([]uint32{7})
	if got := history(r); !reflect.DeepEqual(got, [][]uint32{{1, 2}, {7}}) {
		t.Fatalf("append to a view wrote into the recorder: history = %v", got)
	}
	// The restore and the step reused the buffers the earlier views show.
	if vals[2] != 7 || ends[1] != 3 {
		t.Fatalf("views %v %v do not alias the recorder's log", vals, ends)
	}
}

// TestRecorderSnapshotIsPrivate pins that a snapshot owns its recording:
// stepping or resetting the recorder it came from does not change it.
func TestRecorderSnapshotIsPrivate(t *testing.T) {
	r := NewRecorder(NewEcho())
	r.Step([]uint32{1})
	r.Step([]uint32{2, 3})
	snap := r.SaveState()
	want := history(r)

	r.Step([]uint32{4})
	r.Reset()
	r.Step([]uint32{5, 6, 7})
	r.Step([]uint32{8})

	fresh := NewRecorder(NewEcho())
	if err := fresh.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if got := history(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot changed under its source: %v, want %v", got, want)
	}
	// Nor does stepping a recorder restored from it.
	fresh.Step([]uint32{9})
	if err := r.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if got := history(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot changed under a restored recorder: %v, want %v", got, want)
	}
}

// TestRecorderRestoreZeroAlloc pins that a forked experiment's restore costs
// two copies into buffers the recorder already owns, not one allocation per
// recorded iteration.
func TestRecorderRestoreZeroAlloc(t *testing.T) {
	r := NewRecorder(NewJetEngine())
	for i := 0; i < 960; i++ {
		r.Step([]uint32{uint32(i)})
	}
	snap := r.SaveState()
	for i := 0; i < 40; i++ {
		r.Step([]uint32{uint32(i)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RestoreState allocated %v times per run, want 0", allocs)
	}
}
