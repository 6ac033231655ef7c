#!/usr/bin/env bash
# Runs the full test suite with statement coverage measured across all
# internal packages and fails if the merged total drops below the floor.
# The floor trails the measured baseline (~89% as of the recovery PR) far
# enough to absorb noise from new code, but close enough to catch a PR that
# ships an untested subsystem. Usage:
#
#   scripts/check_coverage.sh [floor_percent]    # default 87
set -euo pipefail
cd "$(dirname "$0")/.."

floor="${1:-87}"
profile="$(mktemp)"
log="$(mktemp)"
trap 'rm -f "$profile" "$log"' EXIT

# The full test log is too long to print, but a failing run must say what
# failed: print its FAIL and panic lines and the file:line messages (test
# failures and compile errors) around them.
if ! go test -count=1 -coverprofile="$profile" -coverpkg=./internal/... ./... >"$log" 2>&1; then
  grep -E -e '^[[:space:]]*(--- FAIL|FAIL|panic:)' -e '\.go:[0-9]+:' "$log" >&2 || cat "$log" >&2
  echo "check_coverage.sh: go test failed" >&2
  exit 1
fi

total="$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%$/, "", $NF); print $NF}')"
if [ -z "$total" ]; then
  echo "check_coverage.sh: could not parse total coverage" >&2
  exit 1
fi

echo "coverage: ${total}% of statements in ./internal/... (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t >= f) }' || {
  echo "check_coverage.sh: coverage ${total}% is below the ${floor}% floor" >&2
  exit 1
}
