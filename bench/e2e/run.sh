#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark
# with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload kv_update_hot --seed 3 --seconds 18 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . bin/oa_cli.exe bench/e2e/oa_bench.exe 1>&2
exec ./_build/default/bench/e2e/oa_bench.exe --oa-cli ./_build/default/bin/oa_cli.exe "$@"
