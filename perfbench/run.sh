#!/usr/bin/env bash
# Build the benchmark and the slif CLI from this checkout, then run one
# workload:
#
#   bash perfbench/run.sh --workload spec-corpus|synth-moves|daemon-mix \
#        --seed N --seconds S --trace 0|1 [--out FILE]
#
# Run it from the root of a checkout.  Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# The shared dune cache would write outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe ./bin/slif_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
