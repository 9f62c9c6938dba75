# BioHD reproduction — build and quality gates.
#
# `make check` is the pre-commit gate: it runs everything CI runs.

GO       ?= go
FUZZTIME ?= 30s
PKGS      = ./...

.PHONY: all build test race vet lint lint-json lint-baseline fuzz bench benchsmoke smoke check clean

all: build

## build: compile every package and command
build:
	$(GO) build $(PKGS)

## test: run the full test suite
test:
	$(GO) test $(PKGS)

## race: run the test suite under the race detector
race:
	$(GO) test -race $(PKGS)

## vet: run go vet
vet:
	$(GO) vet $(PKGS)

## lint: run the repo-specific static analyzers (see internal/lint/README.md)
## twice — once for the default build, once under the purego tag so the
## portable kernel fallbacks are held to the same hot-path rules as the
## assembly dispatch stubs they replace
lint:
	$(GO) run ./cmd/biohdlint $(PKGS)
	$(GO) run ./cmd/biohdlint -tags purego $(PKGS)

## lint-json: the lint gate with a machine-readable artifact (CI uploads
## it so findings are diffable across runs)
lint-json:
	$(GO) run ./cmd/biohdlint -json $(PKGS) > biohdlint.json; \
	status=$$?; cat biohdlint.json; exit $$status

## lint-baseline: freeze the current findings into lint-baseline.json —
## the adopt-then-ratchet workflow for landing a new analyzer before its
## debt is paid down. Run biohdlint with -baseline lint-baseline.json to
## subtract it; re-run this target as findings are fixed so the file
## only ever shrinks.
lint-baseline:
	$(GO) run ./cmd/biohdlint -write-baseline lint-baseline.json $(PKGS)

## bench: run the probe A/B benchmarks and refresh the checked-in
## records — BENCH_probe.json (arena kernel vs seed scalar scan),
## BENCH_multiprobe.json (query-blocked scan vs sequential probes at
## Q ∈ {1,4,8}, single-threaded so the win measured is the blocking
## itself, not parallelism), BENCH_segments.json (segmented-library
## scan vs a monolithic build of the same references at S ∈ {1,4,16};
## the S=1 overhead is the cost of the snapshot indirection itself),
## BENCH_coalesce.json (closed-loop served throughput and latency,
## direct path vs cross-request coalescing, at 1..256 concurrent
## clients), BENCH_mmap.json (mmap-backed probe vs heap-loaded at
## S ∈ {1,4,16}; page-cache warm, so the overhead is the cost of
## scanning file-backed pages), and BENCH_wire.json (served QPS and
## latency through real transports: binary wire protocol vs per-request
## HTTP/1.1 vs HTTP with coalescing, at 1..256 concurrent clients), and
## BENCH_backend.json (HDC vs COBS bit-sliced backend on one shared
## workload: precision/recall vs a naive exact scan, Lookup QPS, and
## serialized v3 size)
bench:
	$(GO) run ./cmd/benchprobe -out BENCH_probe.json
	GOMAXPROCS=1 $(GO) run ./cmd/benchprobe -queries-per-block 8 -out BENCH_multiprobe.json
	GOMAXPROCS=1 $(GO) run ./cmd/benchprobe -segments 1,4,16 -reps 9 -out BENCH_segments.json
	$(GO) run ./cmd/benchcoalesce -out BENCH_coalesce.json
	GOMAXPROCS=1 $(GO) run ./cmd/benchprobe -mmap 1,4,16 -reps 9 -out BENCH_mmap.json
	$(GO) run ./cmd/benchwire -out BENCH_wire.json
	$(GO) run ./cmd/benchbackend -out BENCH_backend.json

## benchsmoke: compile and run every micro-benchmark once — catches
## benchmarks that no longer build or crash, without measuring anything.
## The second pass re-runs the kernel benchmarks under the purego tag so
## the scalar fallbacks of the single- and multi-query kernels stay
## exercised on machines whose first pass dispatches to vector tiers.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/bitvec ./internal/hdc ./internal/encoding ./internal/core .
	$(GO) test -tags purego -run='^$$' -bench=. -benchtime=1x ./internal/bitvec
	$(GO) run ./cmd/benchcoalesce -buckets 64 -reps 1 -dur 20ms -conc 1,4 -out /dev/null
	$(GO) run -tags purego ./cmd/benchcoalesce -buckets 64 -reps 1 -dur 20ms -conc 4 -out /dev/null
	$(GO) run ./cmd/benchwire -buckets 64 -reps 1 -dur 20ms -conc 1,4 -out /dev/null
	$(GO) run ./cmd/benchbackend -refs 4 -reflen 500 -present 8 -absent 8 -reps 1 -out /dev/null

## fuzz: run each fuzz target for FUZZTIME (default 30s)
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFromString -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzReadFASTA -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzApplyEdits -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecode -fuzztime=$(FUZZTIME) ./internal/encoding
	$(GO) test -run='^$$' -fuzz=FuzzReadLibrary -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadIndex -fuzztime=$(FUZZTIME) ./internal/cobs
	$(GO) test -run='^$$' -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) ./internal/wire

## smoke: end-to-end service check — serve a generated library, hit
## /healthz, /v1/search, and /metrics, then SIGTERM and assert a clean drain
smoke:
	./scripts/smoke.sh

## check: the full gate — build, vet, lint, tests under the race
## detector, then the service smoke test
check: build vet lint race smoke

clean:
	$(GO) clean $(PKGS)
