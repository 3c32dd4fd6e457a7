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

echo "== no process-environment mutation in the workspace"
# Knobs are parsed from an explicit lookup (Session::from_lookup), so no
# code or test needs to write the process environment; a test that did
# would race every sibling test reading it.
if grep -rnE '\b(set_var|remove_var)\b' crates src tests; then
    echo "FAIL: std::env::set_var/remove_var under crates/, src/ or tests/" >&2
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

echo "== telemetry off-path overhead guard (<2%)"
# ATR_TELEMETRY=off must never be slower than stats (within 2% noise):
# a failure means the disabled path lost its gating. Fixed internal
# budget, min-of-3 walls per level; see --bin telemetry_overhead.
cargo run --release --offline -p atr-bench --bin telemetry_overhead

echo "== live tiny pass: the reference fingerprint"
# The figure JSON of a plain pass (no audit, telemetry or journal)
# anchors every fingerprint gate below.
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

echo "== journal interrupt-resume gate + journal-off/on fingerprint identity"
# A journaled all_experiments pass is SIGKILLed mid-matrix, then resumed
# with the same journal directory. The resume must (a) serve a nonzero
# number of points straight from the journal — i.e. actually skip
# re-simulation — and (b) produce figure JSON bit-identical to the
# journal-less live pass above. A third, uninterrupted journal-on pass
# asserts the journal is pure observation: fingerprints with the journal
# on and off must match exactly.
#
# The binary is exec'd directly (not via `cargo run`) so the kill hits
# the simulator process itself rather than a cargo wrapper that would
# orphan it.
cargo build --release --offline -p atr-bench --bin all_experiments
journal_dir="$(mktemp -d)"
resume_results="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$(mktemp -d)" ATR_RUN_JOURNAL="$journal_dir" \
    target/release/all_experiments >/dev/null 2>&1 &
victim=$!
journal_file="$journal_dir/run-journal.jsonl"
for _ in $(seq 1 300); do
    kill -0 "$victim" 2>/dev/null || break
    [ -f "$journal_file" ] && [ "$(wc -l <"$journal_file")" -ge 20 ] && break
    sleep 0.1
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if [ ! -s "$journal_file" ]; then
    echo "FAIL: the killed pass journaled nothing — nothing to resume from" >&2
    exit 1
fi
echo "killed the journaled pass after $(wc -l <"$journal_file") completed point(s)"

resume_log="$(mktemp)"
env $tiny ATR_RESULTS_DIR="$resume_results" ATR_RUN_JOURNAL="$journal_dir" \
    target/release/all_experiments >/dev/null 2>"$resume_log"
served=$(sed -n 's/.*\[journal\] \([0-9]*\) of .*/\1/p' "$resume_log" | head -1)
if [ -z "$served" ] || [ "$served" -eq 0 ]; then
    echo "FAIL: the resume served no points from the journal" >&2
    sed -n 's/^/  /p' "$resume_log" | tail -20 >&2
    exit 1
fi
resume_fp=$(fingerprint "$resume_results")
if [ "$resume_fp" != "$live_fp" ]; then
    echo "FAIL: the resumed pass diverged from the uninterrupted live pass" >&2
    echo "  live $live_fp / resumed $resume_fp" >&2
    exit 1
fi
echo "resume gate OK: $served point(s) served from the journal, fingerprint identical"

journal_results="$(mktemp -d)"
full_journal="$(mktemp -d)"
env $tiny ATR_RESULTS_DIR="$journal_results" ATR_RUN_JOURNAL="$full_journal" \
    target/release/all_experiments >/dev/null
journal_fp=$(fingerprint "$journal_results")
if [ "$journal_fp" != "$live_fp" ]; then
    echo "FAIL: enabling the run journal perturbed the results" >&2
    echo "  journal-off $live_fp / journal-on $journal_fp" >&2
    exit 1
fi
echo "journal-off/on fingerprint identity OK"

# A rerun over the complete journal simulates nothing, and says so.
served_log="$(mktemp)"
env $tiny ATR_RESULTS_DIR="$(mktemp -d)" ATR_RUN_JOURNAL="$full_journal" \
    target/release/all_experiments >/dev/null 2>"$served_log"
if ! grep -q "points requested, 0 simulated" "$served_log"; then
    echo "FAIL: a fully journaled pass did not report 0 simulated points" >&2
    grep "points requested" "$served_log" >&2 || true
    exit 1
fi
echo "journal accounting OK: $(grep -o '[0-9]* served from the journal' "$served_log" | head -1)"

echo "CI OK"
