DUNE ?= dune

.PHONY: all build test test-domains test-seeds bench bench-smoke chaos check ci fmt fmt-check loc clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# The suite at both domain counts CI tests: the sequential path and a
# parallel one must pass the same pins.
test-domains: build
	PAR_DOMAINS=1 $(DUNE) runtest --force
	PAR_DOMAINS=4 $(DUNE) runtest --force

# The suite under the QCheck seeds CI pins: QCheck draws a fresh seed per
# run, so a generator defect fails one run in many.  908619300 once made
# the frontend round-trip generator emit a primary input as a primary
# output, which Verilog export rejects.
QCHECK_SEEDS = 908619300 42 20261017

test-seeds: build
	for s in $(QCHECK_SEEDS); do \
	  QCHECK_SEED=$$s $(DUNE) runtest --force || exit 1; \
	done

# The paper's evaluation (Table I, Fig. 6/7, ablations) and the ~1M-gate
# scale run; slow, print-only.  Performance is measured by the ledger
# benchmark in bench/ledger.
bench: build
	$(DUNE) exec bench/main.exe

# One short pass of every ledger workload at the golden seed, checking
# the model md5s and exact-eval counts in bench/ledger/golden.  Used by
# `make check` and `make ci`.
bench-smoke: build
	$(DUNE) build @bench/ledger/smoke

# Chaos harness: crash the daemon at each seeded injection point
# (post-response, torn WAL append, durable-but-unanswered, torn model
# spill), restart it on the same state directory, and require the
# replayed stream to be byte-identical to an uninterrupted run.  The
# structural verdict fields are compared against the committed golden.
chaos: build
	$(DUNE) exec bin/hssta.exe -- chaos \
	  --corpus bench/serve_recovery_corpus_c1908.jsonl \
	  --dir _build/_chaos -o _build/chaos_verdicts.jsonl
	cmp _build/chaos_verdicts.jsonl test/golden/chaos_verdicts.jsonl

check: build test bench-smoke

# What CI runs: build, tests at PAR_DOMAINS=1 and 4 and under the pinned
# QCheck seeds, the ledger smoke pass, format check.
ci: build test-domains test-seeds bench-smoke fmt-check

fmt:
	$(DUNE) build @fmt --auto-promote

# Non-mutating format check.  Fails hard: CI runs this in a dedicated
# fmt job with a pinned ocamlformat, and a missing formatter locally is
# a real failure, not a skip (install the version named in .ocamlformat).
fmt-check:
	$(DUNE) build @fmt

# The .ml/.mli/.c line total of lib/ + bin/: the size every simplicity
# change is measured by.  C stubs count too, so moving code into C never
# reads as a size reduction.
loc:
	@find lib bin \( -name '*.ml' -o -name '*.mli' -o -name '*.c' \) \
	  -exec cat {} + | wc -l

clean:
	$(DUNE) clean
