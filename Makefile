# DeepDB reproduction — build and verification targets.

.PHONY: all build test race check fmt vet lint lint-fix-report bench bench-json

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

fmt:
	gofmt -l -w .

vet:
	go vet ./...

# Project invariant suite (detmap, ctxloop, hardtimeout, directive) run as
# a vet tool so results are cached per package.
lint:
	mkdir -p bin
	go build -o bin/deepdb-lint ./cmd/deepdb-lint
	go vet -vettool=$(CURDIR)/bin/deepdb-lint ./...

# Per-analyzer findings summary for triage; never fails, so it works on a
# tree with known violations you are about to fix or suppress.
lint-fix-report:
	go run ./cmd/deepdb-lint -report ./...

# The full gate CI runs: gofmt + vet + build + test -race.
check:
	./scripts/check.sh

bench:
	go test -bench=. -benchmem -run=^$$ .

# Serving micro-benchmarks (prepared vs unprepared, HTTP endpoint),
# emitted as BENCH_query.json.
bench-json:
	./scripts/bench.sh
