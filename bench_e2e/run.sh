#!/bin/sh
# Build the binaries the benchmark drives, then run it with the given
# arguments, e.g.
#   bash bench_e2e/run.sh --workload xval --seed 1 --seconds 12 --trace 0
# Run from the repository root.  Build output goes to stderr, so the
# benchmark's last stdout line stays its JSON result.
set -e
DUNE_CACHE=disabled dune build --root . \
  bin/tables.exe bin/qdp.exe bench_e2e/e2e.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
