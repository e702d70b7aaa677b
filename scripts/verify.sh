#!/usr/bin/env bash
# Tier-1 verification for the whole workspace.
#
# Bare `cargo test -q` at the root only runs the root package's ten
# integration tests and silently skips the ~180 unit tests living in the
# member crates — always verify with `--workspace`. The quick bench pass
# catches bench bit-rot (the bench harness compiles and runs end to end,
# emitting results/bench_*.json) without paying for real statistics.
#
# Usage: scripts/verify.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace

# Static analysis gate: the workspace lint (crates/lint) must report zero
# findings. Textual rules D1-D5 (wall-clock, unordered maps, entropy,
# non-exhaustive error enums, unwrap in migration code) and H1 (hermetic
# manifests), plus the semantic rules over the workspace call graph: D6
# determinism-taint reachability, D7 lock-order cycles, D8 panic-path
# closure, O1 obs-name audit and L1 bad-allow validation. The allowlist
# lives in lint.toml and inline `// lint:allow(...)` annotations. The
# gate consumes `--json` (machine-readable, stable field order), checks
# the seeded fixture corpus against its golden findings and the clean
# twin against zero, and holds the semantic pass to a <10s budget.
echo "==> workspace lint (bin/lint --json, fixture corpus, <10s budget)"
lint_out=$(mktemp)
lint_start=$(date +%s)
if ! cargo run --release -q -p mtm-lint --bin lint -- --json >"$lint_out"; then
    cat "$lint_out"
    rm -f "$lint_out"
    echo "verify: FAIL (lint findings, see above)"
    exit 1
fi
lint_elapsed=$(( $(date +%s) - lint_start ))
if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$lint_out" 2>/dev/null; then
    cat "$lint_out"
    rm -f "$lint_out"
    echo "verify: FAIL (lint --json emitted invalid JSON)"
    exit 1
fi
if cargo run --release -q -p mtm-lint --bin lint -- crates/lint/fixtures/corpus \
        >"$lint_out" 2>/dev/null; then
    rm -f "$lint_out"
    echo "verify: FAIL (seeded fixture corpus reported no findings)"
    exit 1
fi
if ! diff -u crates/lint/fixtures/corpus/expected.txt "$lint_out"; then
    rm -f "$lint_out"
    echo "verify: FAIL (corpus findings drifted from golden expected.txt)"
    exit 1
fi
rm -f "$lint_out"
if ! cargo run --release -q -p mtm-lint --bin lint -- crates/lint/fixtures/clean; then
    echo "verify: FAIL (clean fixture twin has findings)"
    exit 1
fi
if [ "$lint_elapsed" -ge 10 ]; then
    echo "verify: FAIL (semantic lint took ${lint_elapsed}s, budget is <10s)"
    exit 1
fi

if [[ "${1:-}" != "--no-bench" ]]; then
    cargo bench -p mtm-bench -- --quick
fi

# Every harness smoke below is one `gate` call:
#
#   gate LABEL BIN ARTIFACT REF [VAR=VALUE...]
#
# runs bin/BIN (release, quick inputs) under the given environment with
# stdout in "$tmp/stdout", and fails verify on a non-zero exit or on any
# `warning:` line on stderr (an ignored env override, an n/a experiment
# row, a failed result write). With a non-empty REF, the first gate that
# names REF saves ARTIFACT as the reference and every later gate naming
# it must reproduce that file byte for byte: the pool, MTM_JOBS and the
# read-only MTM_CHECK sanitizer must never change a result.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gate() {
    local label="$1 (${*:5})" bin=$2 artifact=$3 ref=$4
    shift 4
    echo "==> $label"
    if ! env "$@" cargo run --release -q -p mtm-harness --bin "$bin" \
            >"$tmp/stdout" 2>"$tmp/stderr"; then
        cat "$tmp/stderr" >&2
        echo "verify: FAIL ($label run failed)"
        exit 1
    fi
    if grep -E '^warning:' "$tmp/stderr"; then
        echo "verify: FAIL (warning lines on $label stderr, see above)"
        exit 1
    fi
    if [ -z "$ref" ]; then
        return
    fi
    if [ ! -e "$ref" ]; then
        cp "$artifact" "$ref"
    elif ! cmp -s "$ref" "$artifact"; then
        echo "verify: FAIL ($label changed $artifact against the first run)"
        exit 1
    fi
}

# Parallel quick-mode smoke: the whole harness (bin/all) on 4 workers,
# exercising the worker pool, the single-flight run cache and the stderr
# diagnostics end to end. Then the same matrix with the MTM_CHECK
# shadow-state sanitizer armed: every migration commit/abort and every
# interval boundary re-verifies PTE<->frame consistency, tier occupancy
# and the obs counter/event books (a violation panics the run), and
# results/ALL.txt must not change.
gate "quick harness smoke" all results/ALL.txt "$tmp/all" MTM_QUICK=1 MTM_JOBS=4
gate "sanitized harness smoke" all results/ALL.txt "$tmp/all" MTM_CHECK=1 MTM_QUICK=1 MTM_JOBS=4

# Telemetry smoke: the same quick matrix with MTM_TELEMETRY=1 must emit
# per-run JSON under results/telemetry/ that parses and carries the
# required top-level keys (telemetry_check validates every file).
rm -rf results/telemetry
gate "telemetry smoke" all results/ALL.txt "" MTM_TELEMETRY=1 MTM_QUICK=1 MTM_JOBS=4
if ! cargo run --release -q -p mtm-harness --bin telemetry_check; then
    echo "verify: FAIL (emitted telemetry is malformed)"
    exit 1
fi

# Resilience smoke: the fault-injection sweep (bin/resilience) across all
# managers in quick mode at the default seed (so the overwritten
# results/resilience.txt matches the committed artifact byte for byte).
# Exercises the FaultPlan parser, the retry/abort/deferral machinery and
# the robustness table end to end, with the shadow-state sanitizer armed
# so migration aborts are checked too.
gate "resilience smoke" resilience "" "" MTM_CHECK=1 MTM_QUICK=1 MTM_JOBS=4

# Admission smoke: the admission-control/shadow-copy sweep
# (bin/admission) in quick mode. MTM_JOBS=1 and MTM_JOBS=4 must produce
# byte-identical results/admission.txt (the sweep seeds every cell from
# its own label, never from execution order), and an MTM_CHECK=1 pass
# must pass the sanitizer — shadow-copy retention changes the allocator
# books (used == mapped + shadow), so this is the cell where a broken
# shadow ledger would surface.
for env in "MTM_JOBS=1" "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"; do
    # shellcheck disable=SC2086 # $env is a list of VAR=VALUE words
    gate "admission smoke" admission results/admission.txt "$tmp/adm" MTM_QUICK=1 $env
done

# Multi-tenant smoke: the global-arbitration sweep (bin/multitenant)
# restricted to 2 tenants. The table must be byte-identical between
# MTM_JOBS=1 and MTM_JOBS=4 (cells and solo references are seeded from
# tenant/workload labels, never execution order), and an MTM_CHECK=1 pass
# arms the shadow-state sanitizer plus the per-tenant quota-partition
# census at every interval boundary without changing a byte. With
# MTM_TENANTS set the bin does not touch the committed
# results/multitenant.txt, so stdout is compared directly.
for env in "MTM_JOBS=1" "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"; do
    # shellcheck disable=SC2086
    gate "multitenant smoke" multitenant "$tmp/stdout" "$tmp/mt" MTM_QUICK=1 MTM_TENANTS=2 $env
done

# Scenario smoke: the serving-generator/churn sweep (bin/scenarios) at a
# short horizon. The table must be byte-identical between MTM_JOBS=1 and
# MTM_JOBS=4 (cells are pure functions of their labels; the churn cell
# steps tenants lock-step serial), and an MTM_CHECK=1 pass arms the
# sanitizer without changing a byte. Every full-sweep pass also exercises
# the checkpoint machinery: the bin saves the MTM/KVDrift cell mid-run,
# resumes it in fresh objects, and asserts the resumed report is
# byte-identical — a failed differential panics the run. With
# MTM_SCENARIO_INTERVALS set the bin does not touch the committed
# results/scenarios.txt, so stdout is compared directly.
for env in "MTM_JOBS=1" "MTM_JOBS=4" "MTM_CHECK=1 MTM_JOBS=4"; do
    # shellcheck disable=SC2086
    gate "scenario smoke" scenarios "$tmp/stdout" "$tmp/sc" MTM_QUICK=1 MTM_SCENARIO_INTERVALS=12 $env
done

echo "verify: OK"
