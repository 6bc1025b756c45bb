.PHONY: all build test check tables bench perf profile perf-diff faults turns dist chaos serve load fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: what CI runs and what every PR must keep green.
check: build test

tables:
	dune exec bin/tables.exe all

bench:
	dune exec bench/main.exe

# Sequential-vs-parallel wall-clock per workload group; honors
# QDP_JOBS for the parallel column.  Writes BENCH_perf.json.
perf:
	dune exec bench/main.exe -- perf

# perf plus attribution: per-group flat profile (with the dense-kernel
# call counts) / tree / domain busy-idle split on stderr.
profile:
	dune exec bench/main.exe -- perf --profile

# Noise-aware gate between two perf artifacts, e.g.
# `make perf-diff OLD=BENCH_perf.base.json NEW=BENCH_perf.json`.
# Exits 1 on any regression over the threshold.
perf-diff:
	dune exec bin/qdp.exe -- perf diff $(OLD) $(NEW)

# Graceful-degradation sweep: writes BENCH_faults.json, exits non-zero
# on any soundness or monotonicity violation.
faults:
	dune exec bin/qdp.exe -- faults --seed 42

# Turn-reduction experiment on the interactive equality family:
# writes BENCH_turns.json (deterministic for a fixed seed at any
# QDP_JOBS value).
turns:
	dune exec bin/qdp.exe -- turns --seed 42

# Seq vs domains vs processes comparison on a fixed seeded workload:
# writes BENCH_dist.json (digests + chaos event accounting only, so
# it is byte-stable across reruns), wall-clock to stderr.
dist:
	dune exec bench/main.exe -- dist

# Chaos self-check: run the distributed workload under injected
# worker crashes/hangs/corruption and verify the result digest is
# byte-identical to the sequential baseline.  Exits 1 on divergence.
chaos:
	dune exec bin/qdp.exe -- dist chaos --trials 120

# Always-on verification daemon on a Unix-domain socket
# (/tmp/qdp-serve.sock); SIGTERM/Ctrl-C drains gracefully.
serve:
	dune exec bin/qdp.exe -- serve

# Paced load against a running daemon (`make serve` in another
# terminal): writes BENCH_serve.json and prints the verdict digest,
# which must equal `qdp load --direct`'s for the same seed.
load:
	dune exec bin/qdp.exe -- load --out BENCH_serve.json

# Requires the ocamlformat binary (not vendored); version pinned in
# .ocamlformat so results are reproducible wherever it is installed.
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
