#!/usr/bin/env bash
# Local CI gate: formatting, lints, and a tiny-budget test pass.
#
# The tiny ATR_SIM_* budget keeps the simulation-heavy experiment tests
# fast while still executing every code path; full-budget numbers are
# regenerated with `--bin all_experiments` (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== perfbench builds against the pipeline API"
# perfbench is a package of its own (not a workspace member), so the
# gates above never compile it; a pipeline API change that breaks the
# benchmark fails here instead of in the perf gate. Its committed
# Cargo.lock is stale (any build rewrites it), so it is restored after.
perfbench_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo check --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
cp "$perfbench_lock" perfbench/Cargo.lock
if [ "$perfbench_status" -ne 0 ]; then
    echo "FAIL: perfbench does not build against the workspace crates" >&2
    exit 1
fi

echo "== cargo doc -D warnings"
# Broken intra-doc links are what a deletion leaves behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== no process-environment mutation in the workspace"
# Knobs are parsed from an explicit lookup (Session::from_lookup), so no
# code or test needs to write the process environment; a test that did
# would race every sibling test reading it.
if grep -rnE '\b(set_var|remove_var)\b' crates src tests; then
    echo "FAIL: std::env::set_var/remove_var under crates/, src/ or tests/" >&2
    exit 1
fi

echo "== the model reads no environment"
# Every knob is resolved once at process entry (Session, TelemetryConfig,
# budget_from_env in atr-sim) and handed down as configuration; the
# model crates themselves never consult the process environment.
model_src="crates/isa/src crates/workload/src crates/frontend/src crates/mem/src"
model_src="$model_src crates/core/src crates/pipeline/src crates/analysis/src"
# shellcheck disable=SC2086
if grep -rnE 'env::var|var_os' $model_src; then
    echo "FAIL: an environment read in a model crate" >&2
    exit 1
fi

echo "== cargo test (tiny budget)"
ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    cargo test --workspace --offline -q

fingerprint() { cat "$1"/*.json | sha256sum | cut -d' ' -f1; }

echo "== all_experiments with rename auditor (tiny budget)"
# Re-runs the experiment matrix with the cycle-level rename/release
# auditor attached; any invariant violation panics the run. The results
# dir is redirected so the tiny-budget pass never clobbers the committed
# full-budget results/*.json; its fingerprint is compared with the live
# pass below. Stdout is captured to assert the telemetry-off default
# emits zero telemetry records.
audit_out="$(mktemp)"
audit_results="$(mktemp -d)"
ATR_AUDIT=1 ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    ATR_RESULTS_DIR="$audit_results" \
    cargo run --release --offline -p atr-bench --bin all_experiments >"$audit_out"
if grep -q "atr-run-telemetry" "$audit_out"; then
    echo "FAIL: telemetry records leaked onto stdout with ATR_TELEMETRY unset" >&2
    exit 1
fi

echo "== all_experiments with rename auditor at the smallest budget (40 + 160)"
# So few instructions stop many runs with a resolved, mispredicted
# branch still in flight; the end-of-run CoreStats consistency audit
# must hold there too. Any failed point makes the pass exit 1.
small_err="$(mktemp)"
small_results="$(mktemp -d)"
ATR_AUDIT=1 ATR_SIM_WARMUP=40 ATR_SIM_INSTS=160 ATR_SIM_PROGRESS=0 \
    ATR_RESULTS_DIR="$small_results" \
    target/release/all_experiments >/dev/null 2>"$small_err" || {
    echo "FAIL: the audited 40 + 160 pass failed" >&2
    grep -E "failed|panicked" "$small_err" | head -20 >&2
    exit 1
}
if grep -q "points failed" "$small_err"; then
    echo "FAIL: the audited 40 + 160 pass reported failed points" >&2
    exit 1
fi

echo "== all_experiments with telemetry + audit (tiny budget), JSONL schema check"
# With ATR_TELEMETRY=stats the executor emits one JSONL record per
# simulated point on stdout (all narrative goes to stderr); every line
# must parse and satisfy the record schema, including the CPI-stack
# Σ slots == width x cycles invariant (also asserted per-cycle in-core
# because ATR_AUDIT=1 is set).
telemetry_out="$(mktemp)"
telemetry_results="$(mktemp -d)"
ATR_TELEMETRY=stats ATR_AUDIT=1 ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 \
    ATR_SIM_PROGRESS=0 ATR_RESULTS_DIR="$telemetry_results" \
    cargo run --release --offline -p atr-bench --bin all_experiments >"$telemetry_out"
cargo run --release --offline -p atr-bench --bin jsonl_check "$telemetry_out"

echo "== telemetry off-path guard (off records only the CPI stack)"
# ATR_TELEMETRY=off must record no histogram, series, trace or lifetime
# sample, and must simulate and account exactly what stats does; a
# failure means the disabled path lost its gating. Deterministic (the
# off/stats wall ratio is printed, not gated); fixed internal budget;
# see --bin telemetry_overhead.
cargo run --release --offline -p atr-bench --bin telemetry_overhead

echo "== cpi_stack: one table whatever the level, the worker count or the auditor"
# Every run accounts its CPI stack and cpi_stack runs on the shared
# executor, so an audited pass with telemetry off and a serial stats
# pass (records sent to a file) must print byte-identical tables.
cpi_audit="$(mktemp)"
cpi_stats="$(mktemp)"
ATR_AUDIT=1 ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    cargo run --release --offline -p atr-bench --bin cpi_stack >"$cpi_audit"
ATR_TELEMETRY=stats ATR_TELEMETRY_OUT="$(mktemp)" ATR_SIM_THREADS=1 \
    ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0 \
    target/release/cpi_stack >"$cpi_stats"
if ! cmp "$cpi_audit" "$cpi_stats"; then
    echo "FAIL: cpi_stack's table depends on the telemetry level, workers or auditor" >&2
    diff "$cpi_audit" "$cpi_stats" >&2 || true
    exit 1
fi
echo "cpi_stack OK: audited/off and serial/stats tables identical"

echo "== live tiny pass: the reference fingerprint"
# The figure JSON of a plain pass (no audit or telemetry) anchors
# every fingerprint gate below.
live_results="$(mktemp -d)"
tiny="ATR_SIM_WARMUP=500 ATR_SIM_INSTS=2000 ATR_SIM_PROGRESS=0"
env $tiny ATR_RESULTS_DIR="$live_results" \
    cargo run --release --offline -p atr-bench --bin all_experiments >/dev/null
live_fp=$(fingerprint "$live_results")
echo "live fingerprint: $live_fp"

# Every other gate compares against this same build, so a change that
# silently moved the figures would still pass them; the live pass is
# therefore pinned to a known fingerprint as well. Change the pin only
# together with a CHANGES.md entry that names and justifies every
# figure number that moved.
pinned_fp=93d38585c64873d3cceb3f7ec467b79946726c6ad77625d5f7c9da11bd8c9f91
if [ "$live_fp" != "$pinned_fp" ]; then
    echo "FAIL: the tiny-pass figures changed" >&2
    echo "  pinned $pinned_fp / live $live_fp" >&2
    exit 1
fi
echo "pinned fingerprint OK"

# The cycle loop skips quiet cycles on one path whether telemetry and
# audit are on or off, so the observed passes above must reproduce the
# live figures bit for bit.
audit_fp=$(fingerprint "$audit_results")
telemetry_fp=$(fingerprint "$telemetry_results")
if [ "$audit_fp" != "$live_fp" ] || [ "$telemetry_fp" != "$live_fp" ]; then
    echo "FAIL: observation changed the figures" >&2
    echo "  live $live_fp / audit $audit_fp / telemetry+audit $telemetry_fp" >&2
    exit 1
fi
echo "observation gate OK: audit and telemetry+audit passes match the live fingerprint"

echo "== all_experiments --only: one entry, the same bytes"
# A pass over one registry entry ensures only that entry's points; its
# JSON must equal the full pass's byte for byte (results are keyed by
# point, not by what else the pass simulated).
only_results="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$only_results" \
    target/release/all_experiments --only fig13 >/dev/null
if ! cmp "$only_results/fig13.json" "$live_results/fig13.json"; then
    echo "FAIL: --only fig13 diverged from the full pass's fig13.json" >&2
    exit 1
fi
if [ "$(ls "$only_results")" != "$(printf 'fig13.json\nfig13.txt')" ]; then
    echo "FAIL: --only fig13 wrote more than fig13's files: $(ls "$only_results")" >&2
    exit 1
fi
only_err="$(mktemp)"
status=0
target/release/all_experiments --only nope >/dev/null 2>"$only_err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "valid names: .*fig13" "$only_err"; then
    echo "FAIL: --only nope must exit 2 and list the valid names (exit $status)" >&2
    cat "$only_err" >&2
    exit 1
fi
echo "--only OK: fig13 identical, an unknown name exits 2"

echo "== panic isolation: a fault-injected pass thins, says so and exits 1"
# ATR_FAULT_INJECT panics every point whose label contains the needle.
# The pass must isolate those points, still write the entry's files from
# the surviving set, log the coverage marker, and exit 1, so a script
# can tell a thinned pass from a complete one.
fault_results="$(mktemp -d)"
fault_err="$(mktemp)"
status=0
env $tiny ATR_RESULTS_DIR="$fault_results" ATR_FAULT_INJECT=505.mcf_r \
    target/release/all_experiments --only fig13 >/dev/null 2>"$fault_err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "4/92 points failed" "$fault_err"; then
    echo "FAIL: a fault-injected pass must exit 1 and log 4/92 points failed (exit $status)" >&2
    tail -20 "$fault_err" >&2
    exit 1
fi
if [ "$(ls "$fault_results")" != "$(printf 'fig13.json\nfig13.txt')" ]; then
    echo "FAIL: the fault-injected pass must still write fig13's files: $(ls "$fault_results")" >&2
    exit 1
fi
echo "panic isolation OK: 4/92 points failed, fig13 written from the surviving set, exit 1"

echo "CI OK"
