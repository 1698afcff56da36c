package fault

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// enable activates a schedule for one test and restores the zero-cost path
// on cleanup. Tests that use it must not run in parallel: the registry is
// process-global.
func enable(t *testing.T, s *Schedule) {
	t.Helper()
	Enable(s)
	t.Cleanup(Disable)
}

func TestDisabledIsZero(t *testing.T) {
	Disable()
	for _, pt := range []Point{WALAppendWrite, WALAppendSync, PipelineApply} {
		if r := Check(pt); r.Err != nil || r.Torn != 0 || r.Delay != 0 {
			t.Fatalf("Check(%s) on disabled registry = %+v, want zero", pt, r)
		}
	}
}

func TestParseAndSelectors(t *testing.T) {
	s, err := Parse("point=wal.append.sync;kind=error;errno=ENOSPC;after=2;count=1")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s)

	for i := 0; i < 2; i++ {
		if r := Check(WALAppendSync); r.Err != nil {
			t.Fatalf("hit %d fired before after=2: %v", i+1, r.Err)
		}
	}
	r := Check(WALAppendSync)
	if r.Err == nil {
		t.Fatal("hit 3 did not fire")
	}
	if !errors.Is(r.Err, ErrInjected) || !errors.Is(r.Err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ErrInjected wrapping ENOSPC", r.Err)
	}
	for i := 0; i < 5; i++ {
		if r := Check(WALAppendSync); r.Err != nil {
			t.Fatalf("fired past count=1: %v", r.Err)
		}
	}
	if got := s.Fired(WALAppendSync); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestEverySelector(t *testing.T) {
	s, err := Parse("point=pipeline.apply;kind=error;every=3")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s)

	var fired []int
	for i := 1; i <= 9; i++ {
		if r := Check(PipelineApply); r.Err != nil {
			fired = append(fired, i)
		}
	}
	want := []int{1, 4, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
}

func TestProbIsSeededDeterministic(t *testing.T) {
	run := func() []bool {
		s, err := Parse("point=pipeline.apply;kind=error;prob=0.5;seed=42")
		if err != nil {
			t.Fatal(err)
		}
		enable(t, s)
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check(PipelineApply).Err != nil
		}
		return out
	}
	a, b := run(), run()
	var hits int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at hit %d: same seed must replay identically", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times; stream looks degenerate", hits, len(a))
	}
}

func TestKinds(t *testing.T) {
	s, err := Parse("point=wal.append.write;kind=torn;bytes=7;count=1" +
		"|point=pipeline.apply;kind=error;errno=ETIMEDOUT;count=1" +
		"|point=wal.append.sync;kind=disk-full;count=1")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s)

	if r := Check(WALAppendWrite); r.Torn != 7 || !errors.Is(r.Err, syscall.EIO) {
		t.Fatalf("torn rule = %+v, want Torn=7 wrapping EIO", r)
	}
	if r := Check(PipelineApply); !errors.Is(r.Err, syscall.ETIMEDOUT) {
		t.Fatalf("errno rule = %v, want ETIMEDOUT", r.Err)
	}
	if r := Check(WALAppendSync); !errors.Is(r.Err, syscall.ENOSPC) {
		t.Fatalf("disk-full rule = %v, want ENOSPC", r.Err)
	}
}

func TestLatencyRule(t *testing.T) {
	s, err := Parse("point=wal.append.sync;kind=latency;d=50ms")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s)

	start := time.Now()
	r := Check(WALAppendSync)
	if r.Err != nil || r.Delay != 0 {
		t.Fatalf("latency injection = %+v, want a slept delay and no error", r)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("latency injection slept %v, want >= 50ms", d)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"kind=error",                      // no point
		"point=x;kind=bogus",              // unknown kind
		"point=x;kind=partition",          // unknown kind (no transport points)
		"point=x;errno=ENOENT",            // unsupported errno
		"point=x;kind=latency",            // latency without d=
		"point=x;frobnicate=1",            // unknown field
		"point=x;after",                   // malformed field
		"point=x;kind=error;after=banana", // bad int
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	if s, err := Parse("  "); err != nil || s == nil {
		t.Errorf("Parse(blank) = (%v, %v), want empty schedule", s, err)
	}
}

func TestEnableResetsRuleState(t *testing.T) {
	s, err := Parse("point=pipeline.apply;kind=error;count=1")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s)
	if Check(PipelineApply).Err == nil {
		t.Fatal("first activation did not fire")
	}
	// Note: re-Enabling the same schedule resets RNG streams but not hit
	// caps; fresh runs should Parse a fresh schedule. This guards the
	// documented behavior that a fresh Parse always starts clean.
	s2, err := Parse("point=pipeline.apply;kind=error;count=1")
	if err != nil {
		t.Fatal(err)
	}
	enable(t, s2)
	if Check(PipelineApply).Err == nil {
		t.Fatal("fresh schedule did not fire")
	}
}

func BenchmarkCheckDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := Check(WALAppendWrite); r.Err != nil {
			b.Fatal("fired while disabled")
		}
	}
}

// Fired reports how many times rules bound to pt have fired — chaos tests
// assert the schedule actually exercised the path under test.
func (s *Schedule) Fired(pt Point) uint64 {
	var n uint64
	for _, r := range s.rules[pt] {
		n += r.fired.Load()
	}
	return n
}
