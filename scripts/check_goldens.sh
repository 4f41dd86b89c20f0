#!/usr/bin/env bash
# Fails when the checked-in golden traces and the trace schema version in
# src/obs/trace.h drift apart — the no-build counterpart of
# TraceGoldenTest.GoldenHeadersCarryCurrentSchemaVersion, so CI (or a
# pre-commit hook) can catch a schema bump whose goldens were not
# regenerated before anything compiles.
#
# Usage: scripts/check_goldens.sh
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
trace_header="$repo_root/src/obs/trace.h"
golden_dir="$repo_root/tests/golden"

schema="$(sed -n 's/.*kTraceSchemaVersion = \([0-9][0-9]*\);.*/\1/p' \
  "$trace_header")"
if [ -z "$schema" ]; then
  echo "check_goldens: cannot parse kTraceSchemaVersion from $trace_header" >&2
  exit 1
fi

goldens=("$golden_dir"/*.jsonl)
if [ ! -e "${goldens[0]}" ]; then
  echo "check_goldens: no goldens under $golden_dir" >&2
  echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
  exit 1
fi

status=0
expected_header="{\"schema\":$schema,\"clock\":\"sim_ms\"}"
for golden in "${goldens[@]}"; do
  header="$(head -n 1 "$golden")"
  if [ "$header" != "$expected_header" ]; then
    echo "check_goldens: $golden is stale" >&2
    echo "  header:   $header" >&2
    echo "  expected: $expected_header (kTraceSchemaVersion = $schema)" >&2
    echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
    status=1
  fi
done

# Some goldens exist to keep event types pinned in a checked-in trace: if a
# refactor stops emitting any of them, this catches it without a build.
require_events() {
  local golden="$golden_dir/$1"
  shift
  if [ ! -e "$golden" ]; then
    echo "check_goldens: missing $golden" >&2
    echo "  regenerate with: DYNO_UPDATE_GOLDEN=1 build/tests/trace_golden_test" >&2
    status=1
    return
  fi
  local event
  for event in "$@"; do
    if ! grep -q "\"name\":\"$event\"" "$golden"; then
      echo "check_goldens: $golden has no '$event' event" >&2
      status=1
    fi
  done
}

# Data integrity: healed replica re-reads, shuffle re-fetches, quarantine.
require_events q10_corruption.jsonl \
  block_corruption shuffle_checksum_retry record_quarantined
# The engine under faults: node crashes, the reduce side, spills and the
# shuffle re-fetch after a crash invalidates map outputs.
require_events q10_engine_faults.jsonl \
  node_crash reduce_attempt task_spill shuffle_fetch_retry

if [ "$status" -eq 0 ]; then
  echo "check_goldens: ${#goldens[@]} golden(s) match trace schema v$schema"
fi
exit $status
