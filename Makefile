# Development entry points. `make check` is the tier-1 gate: formatting,
# vet, build, the full test suite under the race detector (which includes
# the fault-injected scheme soaks), the documentation linter, and every
# benchmark guard.

GO ?= go

# The benchmark suites (see "Benchmark suites" below) and their guards.
SUITES = tune par compile qos soak scale zoo perf backends
GUARDS = $(addsuffix -guard,$(filter-out backends,$(SUITES)))

# The packages the observability Recorder/Registry and the real-time
# fabric's driver goroutines reach (the shared verbs CQ and receive queue run
# on them); `make race` runs just these under the race detector for a fast
# concurrency gate.
RACE_PKGS = ./internal/core/ ./internal/ib/ ./internal/mpi/ ./internal/rtfab/ ./internal/stats/ ./internal/trace/ ./internal/traffic/ ./internal/verbs/

.PHONY: check fmt vet build test race conformance doclint bench $(SUITES) $(GUARDS)

check: fmt vet build test doclint $(GUARDS)

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The cross-backend conformance suite on its own: every datatype shape over
# every transfer scheme must deliver byte-identical data on both the
# deterministic simulator and the real-time concurrent fabric.
conformance:
	$(GO) test -race -count=1 -run TestCrossBackend ./internal/mpi/

# Documentation floor: package comments everywhere under internal/, and a
# doc comment on every exported symbol of the strict packages (core, pack,
# perfgate, qos, verbs).
doclint:
	$(GO) run ./cmd/doclint

# Benchmark suites (internal/exper.Suites): `make NAME` regenerates one
# committed artifact, `make NAME-guard` reruns its virtual-time backends and
# checks the artifact's pinned section without writing anything.
#
#   tune      BENCH_tuner.json     adversarial tuner sweep; whole document pinned
#   par       BENCH_parallel.json  workers x backend (sim + rt); sim_rows pinned
#   compile   BENCH_compile.json   compiled vs interpreted pack (sim + host); sim_rows pinned
#   qos       BENCH_qos.json       QoS on/off contention (sim + rt); sim_rows pinned
#   soak      SOAK_traffic.json    two-phase sim traffic soak; whole document pinned
#   scale     BENCH_scale.json     world-size sweep to 1024 ranks (sim + rt); sim_rows pinned
#   zoo       BENCH_zoo.json       layout zoo (sim + rt + shm); modeled_rows (sim + shm) pinned
#   perf      BENCH_perf.json      hot-path micro-suite; zero-alloc rows exact,
#                                  virtual ns within 10%, wall ns advisory
#   backends  BENCH_backends.json  wall-clock ping-pong on every backend; no guard
#
# Wall-clock rows (rt, host, perf wall rows) are machine-dependent:
# regenerate them deliberately, on the machine the numbers are quoted for.
# Each guard runs in its own process.
$(SUITES):
	$(GO) run ./cmd/dtbench -suite $@

$(GUARDS): %-guard:
	@$(GO) run ./cmd/dtbench -suite $* -check

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
