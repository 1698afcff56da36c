#!/bin/sh
# check.sh — the repo's full verification gate: formatting, vet, build,
# the project invariant suite (deepdb-lint), pinned third-party static
# analysis, the test suite under the race detector (shuffled), and a
# one-iteration benchmark smoke (catches bit-rot in the bench suite
# without timing anything). CI and `make check` run this.
set -eu

cd "$(dirname "$0")/.."

# Pinned third-party analyzer versions. Bump deliberately: a version bump
# can introduce new checks, so run `make lint-fix-report` style triage and
# fix or suppress before landing the bump.
STATICCHECK_VERSION=2025.1.1
GOVULNCHECK_VERSION=v1.1.4

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== serving binary links no reproduction-only packages =="
# internal/{baselines,ml,bench} reproduce the paper's comparisons; the
# binary operators deploy must not carry them.
if go list -deps ./cmd/deepdb | grep -E '^repro/internal/(baselines|ml|bench)$'; then
    echo "cmd/deepdb links the packages listed above"
    exit 1
fi

echo "== option/flag ratchet =="
# The committed ceilings only ever go down: facade options and serve flags.
# The third ratchet of the same kind is the facade's exported surface:
# deepdb/testdata/api.golden (TestAPIGolden, in the suite below) lists every
# exported identifier and method, and only shrinks without a reason stated
# in CHANGES.md next to the `-update` that grew it.
[ "$(grep -cE '^func With|^func AtConfidence' deepdb/options.go)" -le 14 ] &&
    [ "$(grep -cE 'fs\.(String|Int|Int64|Bool|Duration|Float64)\(' cmd/deepdb/serve.go)" -le 15 ] ||
    { echo "a new option needs two non-test callers with different values — see simplicity-review/Options"; exit 1; }
# Whether anything ships that selects a facade option is the reachability
# test's facade rule (internal/analysis/reach, stage below): an exported
# deepdb function needs a live caller outside deepdb, or a
# //deepdb:testonly <reason> directive. Those directives only get fewer.
[ "$(grep -rh --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
    '^[[:space:]]*//deepdb:testonly' . | wc -l)" -le 10 ] ||
    { echo "a new //deepdb:testonly: delete the code only tests call, or move it into a _test.go file"; exit 1; }

echo "== benchmark module (vet + short tests) =="
# benchmark/ is a nested module: root `go build ./...` and `go test ./...`
# never see it, yet it compiles against the deepdb facade and parses
# /healthz — exactly what a facade change can break while tier-1 stays
# green.
(cd benchmark && go vet ./... && go test -short ./...)

echo "== deepdb-lint (invariant suite) =="
# Project-specific analyzers (determinism, ctx propagation, hard-coded
# timeouts, directive grammar) run through the vet driver so per-package
# results are cached by the go build cache. The write path's two rules,
# LSN order == apply order and immutable published snapshots, are held by
# behaviour instead: see the write-histories stage below.
mkdir -p bin
go build -o bin/deepdb-lint ./cmd/deepdb-lint
go vet -vettool="$(pwd)/bin/deepdb-lint" ./...

echo "== reachability (no code that only tests call) =="
# Every function of non-test code must be reachable from a main package —
# the benchmark harness in benchmark/ included — or carry a justified
# //deepdb:testonly directive. It runs inside the suite below too; this
# uncached invocation keeps the check visible like the chaos stage.
go test -count=1 -run . ./internal/analysis/reach

echo "== staticcheck (pinned $STATICCHECK_VERSION) =="
# Version-pinned via `go run`; the probe run fetches and builds the tool.
# When the module proxy is unreachable (offline dev container) the stage
# is skipped with a notice rather than failing the gate — CI always has
# network, so the check is still enforced where it matters. Baseline:
# the tree is staticcheck-clean at the pinned version; new findings must
# be fixed or suppressed with //lint:ignore and a justification.
if go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" -version >/dev/null 2>&1; then
    go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
else
    echo "staticcheck $STATICCHECK_VERSION unavailable (no module network?); skipping"
fi

echo "== govulncheck (pinned $GOVULNCHECK_VERSION) =="
# Same offline-skip contract as staticcheck. Baseline: no known vulns
# reachable from this module (stdlib-only dependency graph).
if go run "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" -version >/dev/null 2>&1; then
    go run "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" ./...
else
    echo "govulncheck $GOVULNCHECK_VERSION unavailable (no module network?); skipping"
fi

echo "== go test -race -shuffle=on =="
# -shuffle=on randomizes test and subtest order so inter-test state
# dependencies surface; -count=1 defeats the test cache so the shuffled
# order actually runs. internal/bench runs on its own afterwards: under
# the race detector it takes minutes and peaks near 3 GB, and beside the
# other packages' test binaries that can exhaust a small machine's memory.
go test -race -shuffle=on -count=1 $(go list ./... | grep -vx 'repro/internal/bench')
go test -race -shuffle=on -count=1 ./internal/bench

echo "== wire codec fuzz (bounded) =="
# The suite above runs the seeds of the hand-framed /query, /estimate and
# /explain codec's differential fuzz targets; this explores past them for
# a bounded time each, holding the codec to encoding/json.
for target in FuzzDecodeRequest FuzzEncodeWire; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -parallel 2 ./cmd/deepdb
done

echo "== crash-recovery smoke =="
# The SIGKILL subprocess test is the durability gate: a child is killed
# mid-stream and recovery must be bit-identical; its SIGTERM counterpart
# gates the graceful drain (zero acked rows lost under batched
# durability). Both run as part of the suite above too; this dedicated
# invocation keeps them from being filtered out and reruns them without
# the cache.
go test -run 'TestCrashRecoverySIGKILL|TestGracefulShutdownSIGTERM' -count=1 ./deepdb

echo "== write histories =="
# The write path's behavioural checker: concurrent writers, a Flush/Save/
# Reload driver and readers pinning snapshots, then one sequential
# reference replays the log in LSN order and must reproduce every observed
# state bit for bit. Interleavings differ run to run, so it runs three
# times under the race detector, uncached.
go test -race -count=3 -run '^TestWriteHistories$' ./deepdb

echo "== chaos (seeded fault injection) =="
# The fault-injection suite: deterministic, seeded schedules drive the WAL
# append/fsync path and the async applier through injected EIO/ENOSPC,
# torn writes and apply failures, and assert the hardening invariants —
# the first WAL failure stops every later write while reads keep serving, no
# acknowledged write is lost, and recovery answers bit-identically to a
# fault-free run.
# These run inside the full suite above too; the dedicated invocation
# keeps the chaos bar visible and uncached even when the suite is filtered.
go test -race -short -count=1 -run '^TestChaos' ./internal/wal ./internal/pipeline ./deepdb

echo "== allocation budgets and model digests =="
# TestAllocBudgets pins allocs/op exactly on the flat SPN evaluator, plan
# compilation, the prepared / cached / uncached / grouped facade paths, an
# /estimate round trip and one-row update batches.
# Counts are noise-free where a ns/op guard on this box was not (an
# untouched kernel read 768-1202 ns against its 848 ns baseline). The
# tests skip themselves under the race detector, so the suite above does
# not hold them; this run does. TestGroupByRequestCounts pins, just as
# exactly, the SPN requests a grouped execution evaluates per RSPN.
# TestModelDigests compares learned and updated ensembles with committed
# digests; under the race detector it leaves out the six learned
# ensembles (over a minute of instrumented learning), so they run here.
# TestDependencyBytesPerJoinTuple caps the bytes a dependency test
# allocates per tuple of the join it samples (it decodes the sample and
# never builds the join); it too skips under the race detector.
go test -run '^(TestAllocBudgets|TestGroupByRequestCounts|TestModelDigests|TestDependencyBytesPerJoinTuple)$' -count=1 . ./internal/spn ./internal/core ./internal/ensemble ./cmd/deepdb

echo "== benchmark smoke (1 iteration each) =="
# The root package includes the update-pipeline benches (UpdateApply*,
# ReaderLatency*), so the smoke also exercises the async applier;
# internal/spn runs the SPN kernel benches BENCH_spn.json records.
go test -run '^$' -bench . -benchtime 1x . ./cmd/deepdb ./internal/spn

echo "OK"
