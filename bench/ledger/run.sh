#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it; every argument goes
# to run.exe (see README.md).  Run from the repository root:
#   bash bench/ledger/run.sh --workload grid100k --seed 42 --seconds 15 --trace 0
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . ./bench/ledger/run.exe 1>&2
exec ./_build/default/bench/ledger/run.exe "$@"
