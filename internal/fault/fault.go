// Package fault is the repository's fault-injection framework: named
// injection points compiled into the I/O paths (WAL append and fsync, the
// update-pipeline applier) that are inert until a Schedule is activated —
// one atomic pointer load per check, no allocation, no locks — and then
// fire deterministic, seeded fault decisions.
//
// A schedule is a set of rules, each bound to one point:
//
//	point=wal.append.sync;kind=error;errno=EIO;after=3;count=1
//	point=wal.append.sync;kind=latency;d=5ms;every=3
//	point=pipeline.apply;kind=error;prob=0.2;seed=42
//	point=wal.append.write;kind=torn;bytes=7;count=1
//	point=wal.append.write;kind=disk-full;count=2
//
// Rules are joined with '|'. Selectors compose: a rule skips its first
// `after` eligible hits, then fires on every `every`-th hit (default every
// hit) with probability `prob` (default 1), at most `count` times (default
// unlimited). Probabilistic rules draw from a per-rule splitmix64 stream
// seeded by `seed`, so a schedule replays identically across runs — chaos
// tests are reproducible, never flaky-by-randomness.
//
// Activation is process-global (the points are reached from deep inside
// library code that cannot thread a handle through): tests Enable a
// schedule and register Disable as cleanup, and `deepdb serve -fault-spec`
// activates one for chaos runs. Tests that enable schedules must not run
// in parallel with each other.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Point names one injection site. Checks against points no schedule
// mentions cost one atomic load and a map lookup.
type Point string

// The compiled-in injection points.
const (
	// WALAppendWrite fires before the record bytes reach the segment file;
	// torn-write rules emit a partial record here.
	WALAppendWrite Point = "wal.append.write"
	// WALAppendSync fires before the append-path fsync (Sync durability and
	// the Batched inline sync).
	WALAppendSync Point = "wal.append.sync"
	// PipelineApply fires in the background applier before the apply
	// callback runs; an injected error fails the batch without applying it.
	PipelineApply Point = "pipeline.apply"
)

// Kind is the failure mode a rule injects.
type Kind int

const (
	// KindError fails the operation with the rule's error (an errno-flavored
	// I/O failure by default).
	KindError Kind = iota
	// KindLatency delays the operation without failing it.
	KindLatency
	// KindDiskFull is KindError sugar wrapping ENOSPC.
	KindDiskFull
	// KindTorn fails a write after a prefix of the bytes reached the file —
	// the on-disk aftermath of a crash mid-write, without the crash.
	KindTorn
)

// ErrInjected is the sentinel every injected failure wraps; errors.Is
// distinguishes injected faults from organic ones in assertions and logs.
var ErrInjected = errors.New("fault: injected")

// Result is one fault decision. The zero Result means "no fault".
type Result struct {
	// Err is non-nil when the operation must fail; it wraps ErrInjected and,
	// for I/O kinds, the scheduled errno.
	Err error
	// Torn, when > 0, instructs the write site to persist only this many
	// bytes of the record before failing.
	Torn int
	// Delay is a latency injection (Err is nil then); Check sleeps it
	// inline.
	Delay time.Duration
}

// Rule is one scheduled fault at one point. Fields are fixed after Parse /
// NewRule; the hit counters and the random stream advance atomically.
type Rule struct {
	Point Point
	Kind  Kind
	// Errno flavors KindError (syscall.EIO when zero).
	Errno syscall.Errno
	// Delay is the KindLatency duration.
	Delay time.Duration
	// Bytes is the KindTorn prefix length.
	Bytes int
	// After skips the first N eligible hits; Every fires on every K-th hit
	// past that (0/1 = every one); Count caps total firings (0 = unlimited);
	// Prob in (0,1) gates each candidate firing on the seeded stream.
	After int
	Every int
	Count int
	Prob  float64
	Seed  uint64

	hits  atomic.Uint64
	fired atomic.Uint64
	rng   atomic.Uint64
}

// Schedule is an activatable set of rules, indexed by point.
type Schedule struct {
	rules map[Point][]*Rule
}

// active is the process-global schedule; nil (the steady state) makes every
// Check a single atomic load returning the zero Result.
var active atomic.Pointer[Schedule]

// Enable activates the schedule process-wide, replacing any previous one.
func Enable(s *Schedule) {
	if s != nil {
		for _, rules := range s.rules {
			for _, r := range rules {
				r.rng.Store(r.Seed)
			}
		}
	}
	active.Store(s)
}

// Disable deactivates fault injection, restoring the zero-cost path.
func Disable() { active.Store(nil) }

// Check consults the active schedule at pt. Disabled, it is one atomic
// load. Latency rules sleep inline here.
func Check(pt Point) Result {
	s := active.Load()
	if s == nil {
		return Result{}
	}
	res := s.decide(pt)
	if res.Delay > 0 {
		time.Sleep(res.Delay)
		res.Delay = 0
	}
	return res
}

// decide evaluates every rule bound to pt in declaration order and returns
// the first firing rule's Result.
func (s *Schedule) decide(pt Point) Result {
	for _, r := range s.rules[pt] {
		if res, ok := r.check(); ok {
			return res
		}
	}
	return Result{}
}

// Add appends a rule to the schedule (and initializes its random stream,
// so schedules can also be built in code rather than parsed).
func (s *Schedule) Add(r *Rule) *Schedule {
	if s.rules == nil {
		s.rules = map[Point][]*Rule{}
	}
	if r.Every < 1 {
		r.Every = 1
	}
	r.rng.Store(r.Seed)
	s.rules[r.Point] = append(s.rules[r.Point], r)
	return s
}

// check advances the rule's hit counter and decides whether it fires.
func (r *Rule) check() (Result, bool) {
	n := r.hits.Add(1)
	if n <= uint64(r.After) {
		return Result{}, false
	}
	if r.Every > 1 && (n-uint64(r.After)-1)%uint64(r.Every) != 0 {
		return Result{}, false
	}
	if r.Prob > 0 && r.Prob < 1 && r.rand() >= r.Prob {
		return Result{}, false
	}
	if r.Count > 0 {
		if r.fired.Add(1) > uint64(r.Count) {
			r.fired.Add(^uint64(0)) // undo; the cap is permanent
			return Result{}, false
		}
	} else {
		r.fired.Add(1)
	}
	return r.result(), true
}

// rand draws the next [0,1) value from the rule's seeded splitmix64 stream.
func (r *Rule) rand() float64 {
	x := r.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (r *Rule) result() Result {
	switch r.Kind {
	case KindLatency:
		return Result{Delay: r.Delay}
	case KindDiskFull:
		return Result{Err: fmt.Errorf("%w: %w (disk full at %s)", ErrInjected, syscall.ENOSPC, r.Point)}
	case KindTorn:
		return Result{
			Err:  fmt.Errorf("%w: %w (torn write at %s, %d bytes persisted)", ErrInjected, syscall.EIO, r.Point, r.Bytes),
			Torn: r.Bytes,
		}
	default:
		errno := r.Errno
		if errno == 0 {
			errno = syscall.EIO
		}
		return Result{Err: fmt.Errorf("%w: %w (at %s)", ErrInjected, errno, r.Point)}
	}
}

// Parse compiles a schedule spec: rules joined by '|', each rule a
// ';'-separated list of key=value fields (see the package comment for the
// grammar). An empty spec yields an empty (but non-nil) schedule.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{rules: map[Point][]*Rule{}}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, rs := range strings.Split(spec, "|") {
		r, err := parseRule(strings.TrimSpace(rs))
		if err != nil {
			return nil, err
		}
		s.Add(r)
	}
	return s, nil
}

func parseRule(rs string) (*Rule, error) {
	r := &Rule{Kind: KindError, Every: 1}
	for _, field := range strings.Split(rs, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault: malformed field %q in rule %q (want key=value)", field, rs)
		}
		var err error
		switch key {
		case "point":
			r.Point = Point(val)
		case "kind":
			r.Kind, err = parseKind(val)
		case "errno":
			r.Errno, err = parseErrno(val)
		case "d":
			r.Delay, err = time.ParseDuration(val)
		case "bytes":
			r.Bytes, err = strconv.Atoi(val)
		case "after":
			r.After, err = strconv.Atoi(val)
		case "every":
			r.Every, err = strconv.Atoi(val)
		case "count":
			r.Count, err = strconv.Atoi(val)
		case "prob":
			r.Prob, err = strconv.ParseFloat(val, 64)
		case "seed":
			var seed uint64
			seed, err = strconv.ParseUint(val, 10, 64)
			r.Seed = seed
		default:
			return nil, fmt.Errorf("fault: unknown field %q in rule %q", key, rs)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: field %q in rule %q: %w", field, rs, err)
		}
	}
	if r.Point == "" {
		return nil, fmt.Errorf("fault: rule %q has no point=", rs)
	}
	if r.Kind == KindLatency && r.Delay <= 0 {
		return nil, fmt.Errorf("fault: latency rule %q needs d=<duration>", rs)
	}
	if r.Every < 1 {
		r.Every = 1
	}
	return r, nil
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "latency":
		return KindLatency, nil
	case "disk-full":
		return KindDiskFull, nil
	case "torn":
		return KindTorn, nil
	}
	return 0, fmt.Errorf("unknown kind %q (want error, latency, disk-full or torn)", s)
}

func parseErrno(s string) (syscall.Errno, error) {
	switch s {
	case "EIO":
		return syscall.EIO, nil
	case "ENOSPC":
		return syscall.ENOSPC, nil
	case "ECONNREFUSED":
		return syscall.ECONNREFUSED, nil
	case "ETIMEDOUT":
		return syscall.ETIMEDOUT, nil
	}
	return 0, fmt.Errorf("unknown errno %q (want EIO, ENOSPC, ECONNREFUSED or ETIMEDOUT)", s)
}
