#!/usr/bin/env bash
# Tier-1 CI gate. Run from anywhere; everything happens in the repo root.
#
# Offline-friendly by construction: every external dependency is vendored
# as a path crate under vendor/ (see Cargo.toml [workspace.dependencies]),
# so no step below touches a registry or the network. Do not add
# registry-resolved dependencies; extend vendor/ instead.

set -euo pipefail
cd "$(dirname "$0")"

echo "== format check =="
cargo fmt --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken links and missing docs are errors) =="
# First-party crates only: the vendored path crates under vendor/ are
# workspace members too, and their upstream docs are not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p sthreads -p mta-sim -p smp-sim -p autopar -p c3i -p c3i-fuzz \
  -p eval-core -p bench -p repro -p tera-c3i

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test -q --workspace

echo "== kernels bench smoke (quick scale) =="
# One pass over the per-kernel Criterion group at reduced sizes: proves
# the bench target builds and runs; the paper-scale numbers live in
# EXPERIMENTS.md and the BENCH_harness.json kernels phase.
KERNELS_BENCH_QUICK=1 cargo bench -p bench --bench kernels > /dev/null

echo "== harness self-timing (4 threads) =="
# The tier-1 release build above only covers the root package (the
# workspace root is itself a package), so build the harness CLI
# explicitly before invoking it.
cargo build --release -p repro
# Regenerates BENCH_harness.json at reduced scale with the per-phase
# dispatch/imbalance/useful-work breakdown.
./target/release/repro --reduced --timing --threads 4 timing > /dev/null

echo "== differential fuzz smoke (fixed seed) =="
# A short fixed-seed campaign: 25 reduced-size generated scenarios, each
# run sequential-oracle × {coarse,fine,chunked} × {Static,Dynamic,
# Stealing} × {1,2,8} workers with bit-identical comparison. The fixed
# seed makes this a deterministic regression check, not a flaky lottery;
# broaden locally with `repro --fuzz 200 --fuzz-seed $RANDOM`.
./target/release/repro --reduced --fuzz 25 --fuzz-seed 1

echo "== autopar soundness suites =="
# The dataflow pass's contract, by name (see docs/AUTOPAR.md): every
# PARALLEL verdict *executes* bit-identically — random loop bodies
# interpreted sequentially vs uneven workers under adversarial iteration
# orders, privatized temps poisoned (exec_soundness); brute-force
# soundness plus dataflow-subsumes-conservative on random affine loops
# (soundness); and the pinned provenance-carrying report text
# (report_snapshot).
# All also part of `cargo test`; explicit so a verdict regression is
# named in CI output.
cargo test -q -p autopar --test soundness --test exec_soundness \
  --test report_snapshot

echo "== table-auto smoke (auto-vs-manual comparison, pinned CSV) =="
# Regenerates the living comparison table behind docs/AUTOPAR.md:
# verdicts for both passes, cleared obstacles, residual blockers,
# emitted schedules, and the execution checks (the auto-parallelized
# Threat Analysis structure run through the real c3i chunked kernel,
# bit-identical to sequential). Every cell is deterministic text — no
# timings — so the CSV must match the pinned copy byte for byte.
TABLE_AUTO_DIR=$(mktemp -d)
./target/release/repro --reduced table-auto --csv "$TABLE_AUTO_DIR" > /dev/null
diff -u results/table_auto.csv "$TABLE_AUTO_DIR/table_auto.csv"
rm -rf "$TABLE_AUTO_DIR"

echo "== pinned paper tables (paper scale, no cache) =="
# The golden for table generation: all 12 paper tables, measured and
# calibrated from scratch at paper scale, must match results/ byte for
# byte.
TABLES_DIR=$(mktemp -d)
./target/release/repro --no-cache tables --csv "$TABLES_DIR" > /dev/null
for i in $(seq 1 12); do
  diff -u "results/table_$i.csv" "$TABLES_DIR/table_$i.csv"
done
rm -rf "$TABLES_DIR"

echo "== simulator goldens (fixed-seed) =="
# The mta-sim behaviour pin: Machine::run must reproduce the recorded
# cycles, completion/deadlock flags, fault count, RunResult digest and
# final-memory digest (words and full/empty bits) of every case in
# crates/mta-sim/tests/goldens/run.txt: the kernel corpus, lookahead,
# timeout and soft-spawn runs, a deadlock/fault matrix, and a fixed-seed
# random-program fuzz smoke. Also part of `cargo test`; kept explicit so
# a simulator behaviour change is named in CI output.
cargo test -q -p mta-sim --test goldens

echo "== pinned regression corpus replay =="
# Every minimized failure ever pinned under tests/corpus/ replays through
# the same differential matrix (also part of `cargo test`; kept explicit
# here so a corpus regression is named in CI output).
cargo test -q --test corpus_replay

echo "== harness regression gate (schema + identity + speedups) =="
# `repro --gate` parses the report against the extended schema (every
# phase must carry a breakdown, and the report must carry the kernels
# phase), fails if any phase's parallel output diverged from sequential,
# fails if work stealing fell below 0.95x of the shared queue on the
# fine_grain storm, and fails if the run-based arena kernels fell below
# 1.5x over the pinned scalar baseline on the terrain pipeline. The
# kernels check compares two sequential runs, so core count does not
# affect it.
./target/release/repro --gate BENCH_harness.json

echo "== service smoke (serve + load replay + gate) =="
# Starts the scenario-evaluation server on a unix socket, replays a
# fixed-seed fuzzer-generated request mix through it over 4 concurrent
# connections, and verifies every served response is bit-identical to a
# direct sequential evaluation. The replay writes BENCH_service.json
# (p50/p99 latency, throughput, identity flag) which the gate then
# parses against the service schema.
SERVICE_SOCK=target/c3i-serve.sock
rm -f "$SERVICE_SOCK"
./target/release/repro --serve "$SERVICE_SOCK" --reduced &
SERVICE_PID=$!
trap 'kill "$SERVICE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 150); do
  [ -S "$SERVICE_SOCK" ] && break
  sleep 0.2
done
if ! [ -S "$SERVICE_SOCK" ]; then
  echo "service smoke: server never bound $SERVICE_SOCK" >&2
  exit 1
fi
./target/release/repro --load "$SERVICE_SOCK" --reduced \
  --requests 40 --mix-seed 1 --conns 4 --stop-server
wait "$SERVICE_PID"
trap - EXIT
./target/release/repro --gate BENCH_service.json

echo "CI OK"
