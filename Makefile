# BioHD reproduction — build and quality gates.
#
# `make check` is the pre-commit gate: it runs everything CI runs.

GO       ?= go
FUZZTIME ?= 30s
PKGS      = ./...

.PHONY: all build test test-purego race vet lint inline deadcode lint-json fuzz bench benchsmoke smoke loc check clean

all: build

## build: compile every package and command
build:
	$(GO) build $(PKGS)

## test: run the full test suite
test:
	$(GO) test $(PKGS)

## test-purego: run the packages with portable fallbacks under the
## purego tag — the scalar tier of every bitvec kernel, the packages
## that encode through the row-fold kernels (whose oracle, golden and
## pim bit-identity suites were written against the portable majority
## and would otherwise reach it only through internal/core), internal/genome
## (whose FindAll oracle and fuzz seeds then run every block through the
## scalar lane steps the lane-match kernel takes over on AVX-512), and the
## packages that scan, map and frame — so the code a non-amd64 build
## runs is tested, not just compiled. A purego build cannot map, so this
## is also the run in which every open takes the stream source of the
## one container walk.
test-purego:
	$(GO) test -tags purego ./internal/bitvec ./internal/genome ./internal/encoding ./internal/hdc ./internal/pim ./internal/core ./internal/cobs ./internal/mmapfile ./internal/wire

## race: run the test suite under the race detector, then the three
## packages whose behaviour depends on the scheduler — the coalescer forms
## its blocks out of whichever callers are runnable together, and the
## wire connections combine into one socket write whichever responses
## and requests finish together — again at GOMAXPROCS 1, 2 and 4, and
## so are internal/core's batch and Search tests, which check that a
## Search's answers and counters do not depend on GOMAXPROCS
race:
	$(GO) test -race $(PKGS)
	$(GO) test -race -cpu 1,2,4 ./internal/coalesce ./internal/server ./internal/wire
	$(GO) test -race -cpu 1,2,4 -run 'Batch|Search' ./internal/core

## vet: run go vet
vet:
	$(GO) vet $(PKGS)

## lint: run the repo-specific static analyzers (see internal/lint/README.md)
## twice — once for the default build, once under the purego tag so the
## portable kernel fallbacks are held to the same hot-path rules as the
## assembly dispatch stubs they replace — after the inline gate
lint: inline
	$(GO) run ./cmd/biohdlint $(PKGS)
	$(GO) run ./cmd/biohdlint -tags purego $(PKGS)

## inline: fail unless the compiler can inline genome.Sequence's per-base
## accessors At and Set; every encoder, hash and test oracle calls them
## once per base, and a call that is not inlined costs more than the
## base it reads (a panic message formatted in place is enough to push
## either over the budget)
inline:
	@out=$$($(GO) build -gcflags=-m ./internal/genome 2>&1); \
	for f in At Set; do \
		printf '%s\n' "$$out" | grep -q "can inline (\*Sequence)\.$$f$$" || \
			{ echo "inline: (*Sequence).$$f is not inlinable" >&2; exit 1; }; \
	done; \
	echo "inline: (*Sequence).At and (*Sequence).Set are inlinable"

## deadcode: fail on a function no program links — build every main
## package with inlining off, under the default and purego tags, and
## compare `go tool nm` against the functions the source declares; the
## only exceptions are testdata/deadcode.allow's entries, each with its
## reason, and an entry that is linked again fails too
## (deadcode_test.go, behind the deadcode build tag so tier 1 skips it)
deadcode:
	$(GO) test -tags deadcode -run TestEveryFunctionLinked .

## lint-json: the lint gate with a machine-readable artifact (CI uploads
## it so findings are diffable across runs)
lint-json:
	$(GO) run ./cmd/biohdlint -json $(PKGS) > biohdlint.json; \
	status=$$?; cat biohdlint.json; exit $$status

## bench: run the repository's one benchmark (bench/, declared in
## BENCHMARK.json) — five named workloads, end-to-end and per-layer
## metrics, one result object per workload on stdout; see bench/README.md
bench:
	bash bench/run.sh --workload all

## benchsmoke: compile and run every micro-benchmark once (internal/bitvec
## includes BenchmarkScanPlane, the range kernel's block rows at the two
## workload geometries — 2 056 × 16 words at 4 queries, 8 192 × 40 at 1,
## 3 and 8 — which the purego line below repeats on the portable tier,
## and BenchmarkSlideRows, BenchmarkDepositBits and
## BenchmarkSlideDepositTiers, the build's exact slide and bundle tie pass
## on each tier; internal/hdc BenchmarkRowsSeal8192, a 16-row seal on each
## tie-pass tier; internal/encoding BenchmarkSlideExact, one exact window
## folded and slid, which the purego line repeats on the portable slide;
## internal/core includes BenchmarkBuild, ns a window at exact C = 16,
## approximate C = 1 and the CLI's exact C = 63, whose odd buckets have
## no tie pass, and BenchmarkProbeBlockWidths, the per-query cost
## of a probe block at widths 1 to 8, BenchmarkApproxVariantDB, the
## bytes and lookup time of 8 approximate variants, built once per
## process, and BenchmarkVariantDBOpen, the open time and heap of those
## variants on both tiers at C = 1 and C = 63, and BenchmarkRoutedLookup,
## µs per 32-base exact lookup of a content-routed library beside
## genome.FindAll over the same references, at scan_exact_wire's shape
## and over 8 variants at C = 63;
## internal/cobs BenchmarkLookup, a lookup at the
## cobs workload's shape; internal/genome BenchmarkFindAll, one verify
## pass over a cobs-sized reference), then the benchmark's smoke pass —
## catches benchmarks that no longer build or crash, without measuring
## anything.
## The second line re-runs the kernel, encoder and FindAll benchmarks
## under the purego tag so the scalar fallbacks of the single-query,
## multi-query, range, row-fold and lane-match kernels stay exercised on
## machines whose first pass dispatches to vector tiers.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/bitvec ./internal/hdc ./internal/encoding ./internal/genome ./internal/core ./internal/cobs .
	$(GO) test -tags purego -run='^$$' -bench=. -benchtime=1x ./internal/bitvec ./internal/encoding ./internal/genome
	$(GO) run ./bench -smoke

## fuzz: run each fuzz target for FUZZTIME (default 30s)
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFromString -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzReadFASTA -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzApplyEdits -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzFindAll -fuzztime=$(FUZZTIME) ./internal/genome
	$(GO) test -run='^$$' -fuzz=FuzzEncode -fuzztime=$(FUZZTIME) ./internal/encoding
	$(GO) test -run='^$$' -fuzz=FuzzScanPlane -fuzztime=$(FUZZTIME) ./internal/bitvec
	$(GO) test -run='^$$' -fuzz=FuzzFoldRows -fuzztime=$(FUZZTIME) ./internal/bitvec
	$(GO) test -run='^$$' -fuzz=FuzzBundleRows -fuzztime=$(FUZZTIME) ./internal/hdc
	$(GO) test -run='^$$' -fuzz=FuzzHV -fuzztime=$(FUZZTIME) ./internal/hdc
	$(GO) test -run='^$$' -fuzz=FuzzReadLibrary -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadIndex -fuzztime=$(FUZZTIME) ./internal/cobs
	$(GO) test -run='^$$' -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) ./internal/wire

## smoke: end-to-end service check — serve a generated library, hit
## /healthz, /v1/search, and /metrics, then SIGTERM and assert a clean
## drain; then serve -mmap straight from `build -o` for both backends
smoke:
	./scripts/smoke.sh

## loc: non-test Go lines per package and in total, bench/ and testdata
## excluded — `find … | xargs wc -l`, the count every "less code" claim
## in CHANGES.md is taken with, so a later claim is checked the same way
## — then the assembly (*.s) lines, which that total leaves out
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs -n1 dirname | sort -u); do \
		printf '%6d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')" "$$d"; \
	done
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs wc -l | tail -1
	@printf '%6d assembly (*.s)\n' "$$(find . -name '*.s' ! -path './bench/*' | xargs cat | wc -l)"

## check: the full gate — build, vet, lint, the linked-function gate,
## tests under the race detector and under the purego tag, then the
## service smoke test
check: build vet lint deadcode race test-purego smoke

clean:
	$(GO) clean $(PKGS)
