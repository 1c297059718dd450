#!/usr/bin/env sh
# The repository's pre-merge gate, runnable fully offline:
#   1. formatting       (cargo fmt --check)
#   2. lints            (clippy, warnings are errors, all targets)
#   3. tier-1 tests     (release build + the root package's test suite),
#                       then the member crates' unit tests (the root
#                       package's `cargo test` does not run them)
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
#                        red path still have teeth. Every committed
#                        tests/data/repro_*.json — a fuzzer finding that
#                        was fixed — is replayed too and must exit 0)
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
#  12. benchmark pin    (each workload's sim_makespan_ms,
#                        sim_ipis_per_shootdown and failed-run count from
#                        the smoke run must equal
#                        crates/bench/baselines/benchmark_sim_seed1.txt
#                        exactly: the simulation is deterministic, so a
#                        difference means the simulated run moved)
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> the stepped-wait oracle stays off the production path"
# Machine::set_stepped_waits steps every spin iteration; it is a test
# oracle, not a configuration. Outside the simulator (crates/sim/src)
# only the tests and the spin-vs-event bench may name it, in code or in
# a comment, so no production path can switch it on.
stray=$(grep -rlE 'set_stepped_waits' --include='*.rs' --exclude-dir=target \
    crates src examples \
    | grep -vE '^crates/sim/src/|^crates/bench/benches/spin_vs_event\.rs$|(^|/)tests/' \
    || true)
if [ -n "$stray" ]; then
    echo "error: the stepped-wait oracle is named outside the simulator, tests/ and spin_vs_event:" >&2
    grep -nHE 'set_stepped_waits' $stray >&2
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

echo "==> every eviction wakes the round leaders"
# health::evict drops a processor from every quorum, which can complete
# a round whose leader then owes a wake. health::evict_and_wake evicts
# and wakes in one step, so outside it no non-test code may call evict
# directly. Scanned like the guard above (each file up to its
# #[cfg(test)], comment lines skipped), tracking the enclosing fn.
direct=$(find crates/*/src src -name '*.rs' \
    -exec awk '
        FNR == 1 { f = "" }
        /#\[cfg\(test\)\]/ { nextfile }
        /^[[:space:]]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        /(^|[^a-z_0-9])evict\(/ && f != "evict" && f != "evict_and_wake" {
            print FILENAME ":" FNR ":" $0
        }' {} + || true)
if [ -n "$direct" ]; then
    echo "error: evict is called outside health::evict_and_wake:" >&2
    echo "$direct" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --quiet
cargo test --quiet

echo "==> unit tests of every workspace crate"
cargo test --workspace --lib --quiet

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

echo "==> repro replays (every fixed fuzzer finding must replay green)"
for repro in tests/data/repro_*.json; do
    if ! cargo run --release --quiet --bin machtlb -- replay \
        --schedule "$repro" >/dev/null 2>&1; then
        echo "error: $repro no longer replays green" >&2
        exit 1
    fi
done

echo "==> benchmark package (build, clippy, tests)"
BENCH_PKG=examples/benchmark/Cargo.toml
cargo build --release --quiet --manifest-path "$BENCH_PKG"
cargo clippy --all-targets --quiet --manifest-path "$BENCH_PKG" -- -D warnings
cargo test --release --quiet --manifest-path "$BENCH_PKG"

echo "==> benchmark smoke (every workload's fixed passes)"
cargo run --release --quiet --offline --manifest-path "$BENCH_PKG" -- \
    --workload all --seed 1 --seconds 0 --out target/benchmark-smoke \
    > target/benchmark-smoke.txt
cat target/benchmark-smoke.txt

echo "==> benchmark simulated numbers against the committed pin"
# The fixed passes are deterministic: every workload's simulated
# makespan, IPIs per shootdown and failed-run count must equal the pin
# exactly (no noise envelope).
SIM_PIN=crates/bench/baselines/benchmark_sim_seed1.txt
awk '$2 ~ /^sim_(makespan_ms|ipis_per_shootdown)$/ { print $1, $2, $3 }
     $1 == "#" && $3 == "error_rate" { sub(/^\(/, "", $5); print $2, "failed", $5 }' \
    target/benchmark-smoke.txt > target/benchmark-sim-seed1.txt
if ! grep -v '^#' "$SIM_PIN" | diff -u - target/benchmark-sim-seed1.txt; then
    echo "error: the benchmark's simulated numbers differ from $SIM_PIN" >&2
    exit 1
fi

echo "==> all checks passed"
