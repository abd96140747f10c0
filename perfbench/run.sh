#!/usr/bin/env bash
# Build the benchmark's workload runner from source and run it.  Run from
# the root of a checkout; every argument is passed to the runner, e.g.
#
#   bash perfbench/run.sh --workload flood-proc --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the runner's last stdout line is the JSON
# result.  Everything the run writes stays inside the checkout: the dune
# cache is off, and temp files (shared-memory rings, timestamp maps) go
# to .perfbench/tmp.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a cgpp checkout (no dune-project, lib/ or perfbench/dune here)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench/tmp"
mkdir -p "$TMPDIR"

dune build --root . --profile release ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
