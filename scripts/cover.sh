#!/bin/sh
# cover.sh: per-package statement coverage with enforced floors.
#
# Runs `go test -cover` over the library packages, prints the five worst
# packages, and fails if any package named in FLOOR_PKGS is below the
# floor (first argument, default 85%). The floor guards the verification
# pyramid's foundations: the topology (the fabric's only wiring source),
# the fabric, the routing algorithms and the differential oracle must
# stay almost fully exercised by their own package tests.
set -eu

FLOOR=${1:-85}
FLOOR_PKGS="smart/internal/topology smart/internal/wormhole smart/internal/routing smart/internal/oracle"

out=$(go test -count=1 -cover ./internal/...) || { echo "$out"; exit 1; }
echo "$out"
echo

echo "worst five packages by statement coverage:"
echo "$out" | awk '
  /coverage:/ {
    for (i = 1; i <= NF; i++) if ($i == "coverage:") { pct = $(i+1); sub("%", "", pct); print pct, $2 }
  }' | sort -n | head -5 | awk '{ printf "  %6.1f%%  %s\n", $1, $2 }'
echo

fail=0
for pkg in $FLOOR_PKGS; do
  pct=$(echo "$out" | awk -v p="$pkg" '
    $2 == p { for (i = 1; i <= NF; i++) if ($i == "coverage:") { v = $(i+1); sub("%", "", v); print v } }')
  if [ -z "$pct" ]; then
    echo "cover: no coverage reported for $pkg" >&2
    fail=1
    continue
  fi
  if awk -v v="$pct" -v f="$FLOOR" 'BEGIN { exit !(v < f) }'; then
    echo "cover: $pkg at $pct% is below the $FLOOR% floor" >&2
    fail=1
  else
    echo "cover: $pkg at $pct% meets the $FLOOR% floor"
  fi
done
exit $fail
