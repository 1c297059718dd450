#!/usr/bin/env sh
# The repository's pre-merge gate, runnable fully offline:
#   1. formatting       (cargo fmt --check)
#   2. lints            (clippy, warnings are errors, all targets)
#   3. tier-1 tests     (release build + the root package's test suite)
#   4. doc-tests        (workspace-wide)
#   5. smoke benches    (the spin-vs-event, trace-overhead, Section 8,
#                        and residency harnesses in MACHTLB_SMOKE mode;
#                        the Section 8 scaling harness drives the
#                        1024-processor point and asserts the
#                        fanout+batching curve stays sub-linear, the
#                        Section 8 NUMA harness drives the migration
#                        storm on a 4-node x 16-processor machine,
#                        asserting node-local traffic stays flat and
#                        cross-node placement pays the interconnect, and
#                        the residency harness runs the Mach build with
#                        the shootdown-target filter off and on,
#                        asserting the filtered run stays consistent and
#                        sends no more IPIs.
#                        Each writes BENCH_<name>.json into
#                        target/bench-json, and `machtlb bench-check`
#                        holds the headline numbers against the committed
#                        baselines in crates/bench/baselines within a
#                        ±30% noise envelope — the simulation is
#                        deterministic, so drift means a real change)
#   6. trace smoke      (machtlb trace end-to-end; the validated Chrome
#                        trace lands in target/machtlb-trace.json and CI
#                        uploads it as an artifact)
#   7. chaos smoke      (machtlb chaos: the two-sided fault-injection
#                        matrix, including the fail-stop family — halted
#                        responders evicted, dead lock holders stolen
#                        from, revived processors fenced; tolerable plans
#                        survive, beyond-envelope plans are caught; the
#                        survival table lands in target/machtlb-chaos.txt
#                        and the machine-readable outcome matrix in
#                        target/machtlb-chaos.json, both uploaded by CI.
#                        A second run on an uneven 2-node machine with a
#                        slow interconnect writes
#                        target/machtlb-chaos-numa.json, so the path that
#                        carries the topology into every row runs too)
#   8. soak smoke       (machtlb soak --smoke: one full rotation of the
#                        five compound-fault shapes — halt,
#                        offline/revive, wrongful eviction, two-halt,
#                        FailOp — through the membership fence with the
#                        checker on; the survival table and JSON land in
#                        target/machtlb-soak.{txt,json}, uploaded by CI.
#                        A second run with --inject-exhaustion on must
#                        exit nonzero, proving a red soak actually fails
#                        the gate rather than passing silently)
#   9. fuzz smoke       (machtlb fuzz --smoke: a seeded adversarial
#                        fault-schedule campaign inside the tolerable
#                        envelope, which must stay green; the coverage
#                        JSON lands in target/machtlb-fuzz.json and CI
#                        uploads it. Then the committed known-bad
#                        schedule — wrongful eviction with the rejoin
#                        fence sabotaged off — is replayed and must exit
#                        nonzero, proving the checker and the replay
#                        red path still have teeth)
#  10. benchmark package (examples/benchmark is a standalone package
#                        with its own workspace, so the steps above never
#                        compile it: build it, lint it with warnings as
#                        errors, and run its tests, since it drives the
#                        fault API — generate_schedule, compile, run_chaos)
#  11. benchmark smoke  (run BENCHMARK.json's command on every workload
#                        for its fixed passes only: --workload all --seed 1
#                        --seconds 0, results in target/benchmark-smoke.
#                        A workload that fails or panics exits nonzero and
#                        fails the gate, so a change cannot reach the
#                        benchmark unrun; about a minute on two cores)
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> one reader of the spin-mode knob"
# Every spin site returns Step::Block and the machine decides how it
# waits: outside the KernelConfig field and enum (state.rs) and the
# re-exports (lib.rs), only install_kernel_handlers may read the knob.
# Comments may name it anywhere.
KNOB='spin_mode|SpinMode::'
knob_code() { grep -rHnE "$KNOB" "$@" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true; }
stray=$(knob_code crates/*/src | grep -vE '^crates/core/src/(state|lib|kernel)\.rs:' || true)
in_kernel=$(knob_code crates/core/src/kernel.rs | wc -l)
in_reader=$(awk '/^pub fn install_kernel_handlers/,/^}/' crates/core/src/kernel.rs \
    | grep -E "$KNOB" | grep -cvE '^[[:space:]]*//' || true)
if [ -n "$stray" ] || [ "$in_kernel" != "$in_reader" ]; then
    echo "error: the spin mode is read outside install_kernel_handlers:" >&2
    [ -n "$stray" ] && echo "$stray" >&2
    grep -nE "$KNOB" crates/core/src/kernel.rs >&2
    exit 1
fi

echo "==> one declaration of the hardening counters"
# The hardening counters are declared once, in the KernelStats registry
# (state.rs), and every report enumerates KernelStats::hardening. Other
# non-test code may name a counter in a comment or a field access, but
# not as a string literal or a `name=` format fragment. Each file is
# scanned only up to its #[cfg(test)], so test goldens stay legal.
HARDENING=$(awk '/^    hardening \{/,/^    \}/' crates/core/src/state.rs \
    | grep -oE '^ +[a-z_]+,$' | tr -d ' ,' | paste -sd '|' -)
if [ -z "$HARDENING" ]; then
    echo "error: no hardening group found in crates/core/src/state.rs" >&2
    exit 1
fi
spelled=$(find crates/*/src src -name '*.rs' ! -path crates/core/src/state.rs \
    -exec awk '/#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ":" $0 }' {} + \
    | grep -E "\\\\?\"($HARDENING)\\\\?\"|\\b($HARDENING)=([^=]|\$)" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$spelled" ]; then
    echo "error: a hardening counter is spelled outside the registry in state.rs:" >&2
    echo "$spelled" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --quiet
cargo test --quiet

echo "==> doc-tests"
cargo test --doc --workspace --quiet

echo "==> smoke benches (writing BENCH_*.json to target/bench-json)"
BENCH_DIR="$(pwd)/target/bench-json"
mkdir -p "$BENCH_DIR"
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench spin_vs_event
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench trace_overhead
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench sec8_scaling
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench sec8_numa
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench sec_residency
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench soak_scale
MACHTLB_SMOKE=1 MACHTLB_BENCH_DIR="$BENCH_DIR" cargo bench -p machtlb-bench --bench fuzz_throughput

echo "==> bench noise envelope vs committed baselines"
cargo run --release --quiet --bin machtlb -- bench-check \
    --baseline crates/bench/baselines --current "$BENCH_DIR" --tolerance 30

echo "==> trace smoke"
cargo run --release --quiet --bin machtlb -- trace \
    --workload tester --cpus 8 --out target/machtlb-trace.json

echo "==> chaos smoke (two-sided envelope, fail-stop recovery)"
cargo run --release --quiet --bin machtlb -- chaos \
    --cpus 4 --seeds 2 --out target/machtlb-chaos.txt \
    --json target/machtlb-chaos.json
cargo run --release --quiet --bin machtlb -- chaos \
    --cpus 8 --seeds 1 --nodes 2 --node-cpus 3 --remote-latency 20 \
    --json target/machtlb-chaos-numa.json

echo "==> soak smoke (compound-fault rotation through the membership fence)"
cargo run --release --quiet --bin machtlb -- soak --smoke on \
    --out target/machtlb-soak.txt --json target/machtlb-soak.json

echo "==> soak red-exit assertion (injected exhaustion must fail the gate)"
if cargo run --release --quiet --bin machtlb -- soak --smoke on \
    --inject-exhaustion on >/dev/null 2>&1; then
    echo "error: an injected retries_exhausted soak exited 0" >&2
    exit 1
fi

echo "==> fuzz smoke (seeded adversarial schedule campaign, coverage artifact)"
cargo run --release --quiet --bin machtlb -- fuzz --smoke on \
    --json target/machtlb-fuzz.json

echo "==> replay red-exit assertion (the known-bad schedule must be caught)"
if cargo run --release --quiet --bin machtlb -- replay \
    --schedule tests/data/known_bad_schedule.json >/dev/null 2>&1; then
    echo "error: the known-bad schedule replayed green" >&2
    exit 1
fi

echo "==> benchmark package (build, clippy, tests)"
BENCH_PKG=examples/benchmark/Cargo.toml
cargo build --release --quiet --manifest-path "$BENCH_PKG"
cargo clippy --all-targets --quiet --manifest-path "$BENCH_PKG" -- -D warnings
cargo test --release --quiet --manifest-path "$BENCH_PKG"

echo "==> benchmark smoke (every workload's fixed passes)"
cargo run --release --quiet --offline --manifest-path "$BENCH_PKG" -- \
    --workload all --seed 1 --seconds 0 --out target/benchmark-smoke

echo "==> all checks passed"
