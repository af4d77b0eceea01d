#!/usr/bin/env bash
# Tier-1 verification: build + full test suite with a locked dependency
# graph, a run of every example, static analysis, the determinism matrix at two RAMP_THREADS
# values, the paper-headline bands on the full-length study, the
# obs/trace/alloc/bench/fleet smokes, the serve contract test, and a
# short run of every benchmark workload.
#
# Usage: scripts/verify.sh
# Exits non-zero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (locked) =="
cargo build --release --workspace --locked

echo "== tier 1: tests (locked) =="
cargo test --release --workspace --locked -q

echo "== examples: every example runs and prints its recorded stdout =="
# The test run builds the examples but runs none of them; a change that
# breaks one at run time fails here (a non-zero exit stops the script),
# and a change that moves a printed number fails the diff against
# examples/expected/NAME.stdout. After a deliberate change, re-record
# with `cargo run --release --example NAME > examples/expected/NAME.stdout`.
# trace_files has no recording: it prints the host's temp-dir path.
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "-- ${name}"
    if [ "${name}" = trace_files ]; then
        cargo run --release --locked --quiet --example "${name}" > /dev/null
    else
        cargo run --release --locked --quiet --example "${name}" \
            | diff -u "examples/expected/${name}.stdout" -
    fi
done

echo "== static analysis: ramp-lint (workspace invariants) =="
# Token rules (unit safety, determinism, obs/panic/span hygiene) plus
# the structural v2 rules (panic-reach, float-determinism,
# atomic-ordering, alloc-hygiene). Fails on any finding not covered by
# lint-baseline.toml or an inline allow, and — via --fail-stale — on
# baseline entries that no longer match a finding (prune with
# `ramp-lint --prune-baseline`). The JSON report and the SARIF file for
# code scanning both land in target/ for inspection and CI upload.
mkdir -p target
lint_status=0
cargo run --release --locked -p ramp-analyze --bin ramp-lint -- \
    --root . --fail-stale --format json \
    > target/ramp-lint-report.json || lint_status=$?
if [ "${lint_status}" -ne 0 ]; then
    # Re-run in human format so the failure is readable in the log.
    cargo run --release --locked -p ramp-analyze --bin ramp-lint -- \
        --root . --fail-stale || true
    exit "${lint_status}"
fi
cargo run --release --locked -p ramp-analyze --bin ramp-lint -- \
    --root . --fail-stale --format sarif > target/ramp-lint.sarif
echo "ramp-lint: clean (report at target/ramp-lint-report.json, SARIF at target/ramp-lint.sarif)"

echo "== static analysis: clippy (workspace lint table, warnings are errors) =="
cargo clippy --release --workspace --all-targets --locked -- -D warnings

echo "== determinism: byte-identical products across threads and observability =="
# The matrix sweeps threads {1, 2, 8} x observability {off, log, alloc,
# trace} x product {study, fleet, serve}; running the binary under two
# RAMP_THREADS values additionally covers the env-var path that the
# default configuration takes.
for threads in 1 4; do
    echo "-- RAMP_THREADS=${threads}"
    RAMP_THREADS="${threads}" cargo test --release --locked -q \
        --test determinism
done

echo "== paper headlines: the full-length study against the paper's bands =="
# crates/bench/tests/paper_headlines.rs runs the production-length 16x5
# study once, asserts every band of the paper-claims table
# (crates/bench/src/claims.rs) and compares every generated
# <!-- report:NAME --> block of EXPERIMENTS.md with a fresh render. It is
# #[ignore]d, so the debug tier-1 `cargo test -q` skips it; here it runs
# in release.
cargo test --release --locked -p ramp-bench --test paper_headlines -- --ignored

echo "== obs + trace smoke: JSONL events, manifest, trace export, critical path =="
# Runs a traced quick study with debug logging, then validates the Chrome
# Trace Event export (complete events, monotone timestamps, cache-outcome
# args), that the critical path attributes >=90% of study wall-clock to
# named spans, that the JSONL event stream parses and covers every
# pipeline stage, and that the manifest's stage tree accounts for the
# wall-clock (within 10%). The Perfetto-loadable trace lands in target/
# for inspection and CI upload.
RAMP_LOG=debug RAMP_EVENTS=target/obs-smoke-events.jsonl \
    cargo run --release --locked -p ramp-bench --bin trace -- \
    --check --out target/trace-smoke.json

echo "== alloc smoke: tracking allocator on end to end =="
# Re-runs the traced study with RAMP_ALLOC=1 (whole-process tracking via
# the env path, not just the programmatic toggle): every trace check must
# still pass — memory counter track present, >=90% of allocated bytes
# attributed to spans — and the allocation-annotated run manifest lands
# in target/ for inspection and CI artifact upload.
RAMP_ALLOC=1 cargo run --release --locked -p ramp-bench --bin trace -- \
    --check --out target/trace-alloc-smoke.json

echo "== benchmark gate: exact digests against the checked-in baseline =="
# Runs the reference workload once, a 100k-chip fleet and the
# single-threaded alloc pass, and gates them against the latest
# BENCH_<seq>.json: exact results digest, exact population digest, exact
# per-stage allocation-count digest, and peak live bytes within 1.5x of
# the baseline. Nothing is timed. A failure here means the simulation's
# numbers or the fleet population drifted, a pipeline stage appeared or
# disappeared, or the allocation profile changed.
cargo run --release --locked -p ramp-bench --bin benchgate -- \
    --emit target/bench-candidate.json

echo "== fleet smoke: population determinism + quantile artifact =="
# A 50k-chip population Monte Carlo per node, then byte-determinism
# re-proved in-process across thread counts and chunkings
# (--assert-deterministic). The canonical population JSON lands in
# target/ for inspection and CI artifact upload.
cargo run --release --locked -p ramp-bench --bin fleet -- \
    --chips 50000 --assert-deterministic \
    --out target/fleet-population.json

echo "== serve contract: coalescing and cache under concurrent load =="
# crates/serve/tests/contract.rs: concurrent client threads query
# Server::handle_line; exactly one pipeline execution per distinct
# (benchmark, node) pair, everything else coalesced or cache-served,
# nothing shed, replays byte-identical.
cargo test --release --locked -q -p ramp-serve --test contract

echo "== benchmark smoke: every workload builds, runs and checks its output =="
# The repo benchmark (benchmark/, see BENCHMARK.json) is a separate
# package on path deps: build it against the current crates, then run
# each workload briefly. Its last line is a JSON record whose "correct"
# field is the workload's own output check (digest, canary, failures);
# the printed *_digest: lines must also equal the ones recorded for the
# seed in scripts/benchmark-digests.txt.
# --seconds 3, not 1: serve_mix needs >=400 requests for one window.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
for workload in study_5node study_1node_long fleet_population serve_mix; do
    echo "-- ${workload}"
    output=$(cargo run --quiet --release --offline --locked \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "${workload}" --seed 42 --seconds 3)
    last=$(printf '%s\n' "${output}" | tail -n 1)
    echo "${last}"
    case "${last}" in
        *'"correct":true'*) ;;
        *) echo "benchmark smoke: ${workload} is not correct" >&2; exit 1 ;;
    esac
    printf '%s\n' "${output}" | scripts/check-benchmark-digests.sh "${workload}"
done

echo "verify: OK"
