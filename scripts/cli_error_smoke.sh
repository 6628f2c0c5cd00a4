#!/usr/bin/env bash
# CLI error-path smoke: every user mistake must exit 1 with a one-line
# `error: <what>` on stderr — no stack traces, no std::terminate, no exit 0.
# Asking for help is not a mistake: `--help` must print the usage and exit 0.
#
# Usage: cli_error_smoke.sh <build-dir>
set -u

BUILD_DIR=${1:?usage: cli_error_smoke.sh <build-dir>}
RUN_EXPERIMENT="$BUILD_DIR/examples/run_experiment"
TOURNAMENT="$BUILD_DIR/examples/tournament"
TRACE_TOOLS="$BUILD_DIR/examples/trace_tools"

failures=0

# expect_error <description> -- <command...>
# Passes when the command exits 1 AND prints "error:" on stderr.
expect_error() {
  local desc=$1
  shift 2
  local stderr_file
  stderr_file=$(mktemp)
  "$@" >/dev/null 2>"$stderr_file"
  local code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: $desc — expected exit 1, got $code" >&2
    failures=$((failures + 1))
  elif ! grep -q "error:" "$stderr_file"; then
    echo "FAIL: $desc — stderr lacks 'error:':" >&2
    sed 's/^/    /' "$stderr_file" >&2
    failures=$((failures + 1))
  else
    echo "ok: $desc"
  fi
  rm -f "$stderr_file"
}

# expect_usage <description> -- <command...>
# Passes when the command exits 0 AND prints "usage:" on stdout.
expect_usage() {
  local desc=$1
  shift 2
  local stdout_file
  stdout_file=$(mktemp)
  "$@" >"$stdout_file" 2>/dev/null
  local code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $desc — expected exit 0, got $code" >&2
    failures=$((failures + 1))
  elif ! grep -q "usage:" "$stdout_file"; then
    echo "FAIL: $desc — stdout lacks 'usage:'" >&2
    failures=$((failures + 1))
  else
    echo "ok: $desc"
  fi
  rm -f "$stdout_file"
}

# --- run_experiment ---------------------------------------------------------
expect_usage "run_experiment: --help prints usage" -- "$RUN_EXPERIMENT" --help
expect_usage "run_experiment: -h prints usage" -- "$RUN_EXPERIMENT" -h
expect_error "run_experiment: negative num_servers" \
  -- "$RUN_EXPERIMENT" --inline "num_servers = -3"
expect_error "run_experiment: duplicate config key" \
  -- "$RUN_EXPERIMENT" --inline "num_servers = 4
num_servers = 8"
expect_error "run_experiment: absurd faults.backoff_jitter" \
  -- "$RUN_EXPERIMENT" --inline "faults.backoff_jitter = 2"
expect_error "run_experiment: crashes enabled without repair" \
  -- "$RUN_EXPERIMENT" --inline "faults.mtbf_s = 100" "faults.mttr_s = 0"
expect_error "run_experiment: unknown scenario name" \
  -- "$RUN_EXPERIMENT" --scenario nope/nothing 100
expect_error "run_experiment: missing config file" \
  -- "$RUN_EXPERIMENT" /nonexistent/config.cfg
expect_error "run_experiment: missing trace file" \
  -- "$RUN_EXPERIMENT" --trace /nonexistent/trace.csv
expect_error "run_experiment: removed batch_decisions key" \
  -- "$RUN_EXPERIMENT" --inline "batch_decisions = true"
expect_error "run_experiment: extra argument after --scenario NAME JOBS" \
  -- "$RUN_EXPERIMENT" --scenario tiny/round-robin 50 --inline "trace.seed = 9"
# A readable trace, so the extra argument is the only mistake on the line.
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
converted_trace=$(mktemp)
"$TRACE_TOOLS" convert google2011 "$REPO_DIR/data/traces/google2011_task_events.sample.csv" \
  "$converted_trace" >/dev/null 2>&1
expect_error "run_experiment: extra argument after --trace PATH SYSTEM" \
  -- "$RUN_EXPERIMENT" --trace "$converted_trace" hierarchical extra
rm -f "$converted_trace"
expect_error "run_experiment: extra argument after --catalog NAME SYSTEM" \
  -- "$RUN_EXPERIMENT" --catalog google2011-sample hierarchical extra

# --- tournament -------------------------------------------------------------
expect_error "tournament: unknown combo" \
  -- "$TOURNAMENT" --combos definitely-not-a-policy+always-on --serial
expect_error "tournament: unknown scenario" \
  -- "$TOURNAMENT" --scenarios nope/nothing --serial --jobs 50
expect_error "tournament: non-numeric --jobs" \
  -- "$TOURNAMENT" --jobs banana
expect_error "tournament: unwritable --out-dir" \
  -- "$TOURNAMENT" --combos round-robin+always-on --scenarios tiny/round-robin \
     --jobs 50 --serial --out-dir /nonexistent/deep/dir

# --- trace_tools ------------------------------------------------------------
expect_error "trace_tools: missing trace file" \
  -- "$TRACE_TOOLS" inspect /nonexistent/trace.csv
expect_error "trace_tools: unknown raw-trace format" \
  -- "$TRACE_TOOLS" convert not-a-format /nonexistent/raw.csv /tmp/out.csv

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error-path check(s) failed" >&2
  exit 1
fi
echo "all CLI error paths exit 1 with 'error:' on stderr"
