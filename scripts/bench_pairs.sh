#!/usr/bin/env bash
# Runs the benchmark of two checkouts in alternating pairs and compares
# them pair by pair:
#
#   bash scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [bench flags]
#   bash scripts/bench_pairs.sh ../parent . observed_sweep 1 10 --seconds 20
#   bash scripts/bench_pairs.sh --check
#
# Each pair runs `bash bench/run.sh --workload WORKLOAD --seed SEED
# [bench flags]` once in each checkout, the parent first in odd pairs and
# the change first in even ones, so a host that drifts between runs
# favours neither side. Only the last line of each run's standard output
# (the bench's JSON result) is read; each run's standard error goes to a
# log that is printed if the run fails. For every metric the runs report
# that CHANGE_DIR's BENCHMARK.json names (the end-to-end metrics, and the
# per-layer ones of `--trace 1` runs) it prints each pair, each side's
# median and quartiles (computed as bench/stats.go computes them), the
# pairs the change won, and whether the gap between the medians exceeds
# the parent's interquartile range. For every metric with a `bound` it
# also prints the bound verdict: the change's median is beyond the bound
# when it is worse than the parent's by more than bound times the
# parent's median. A last line counts the metrics beyond their bound.
# Give one directory for both sides to measure a checkout's run-to-run
# spread. Exits 1 if any run is not correct; a metric beyond its bound
# is reported, not an error, since one pair can land there by noise.
#
# --check runs only the median and quartile definitions below over the
# value table of bench/stats_test.go's TestMedianAndQuartiles and exits
# 1 unless they give that test's expected figures.
set -euo pipefail

# The median, and the first ($i = 1) or third ($i = 3) quartile by the
# exclusive method of Python statistics.quantiles(n=4), as bench/stats.go
# computes them.
stats='
def med: sort | length as $n
  | if $n == 0 then 0 elif $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
def quart($i): sort as $s | ($s | length) as $n
  | if $n < 2 then ($s | med)
    else ([[($i * ($n + 1) / 4 | floor), 1] | max, $n - 1] | min) as $j
      | ($i * ($n + 1) - $j * 4) as $d
      | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4
    end;
'

if [ "${1:-}" = "--check" ]; then
	root=$(cd "$(dirname "$0")/.." && pwd)
	# Rows such as `{[]float64{3, 1, 2}, 2, 1, 3},` become JSON arrays
	# `[[3, 1, 2], 2, 1, 3]`: the values, median, q1 and q3.
	rows=$(sed -n '/^func TestMedianAndQuartiles/,/^}/p' "$root/bench/stats_test.go" |
		grep -E '^[[:space:]]*\{\[\]float64\{' |
		sed -E 's/^[[:space:]]*\{\[\]float64\{/[[/; s/\}, /], /; s/\},[[:space:]]*$/]/')
	jq -nr --argjson rows "[$(paste -sd, <<<"$rows")]" "$stats"'
	def off($got; $want): ($got - $want | fabs) > 1e-12;
	[$rows[] | . as [$v, $m, $q1, $q3]
	  | select(off($v | med; $m) or off($v | quart(1); $q1) or off($v | quart(3); $q3))
	  | "\($v): median \($v | med), quartiles \($v | quart(1)), \($v | quart(3)); bench/stats_test.go wants \($m), \($q1), \($q3)\n"] as $bad
	| if ($rows | length) == 0 then "found no value table in bench/stats_test.go\n" | halt_error(1)
	  elif ($bad | length) > 0 then $bad | add | halt_error(1)
	  else "\($rows | length) value sets: median and quartiles agree with bench/stats_test.go"
	  end'
	exit
fi

if [ $# -lt 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [bench flags]" >&2
	echo "       $0 --check" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
shift 5
flags=("$@")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
: >"$tmp/runs.jsonl"

# run SIDE DIR PAIR appends the run's result line, or a failed record
# when the run printed none, to runs.jsonl.
run() {
	local side=$1 dir=$2 pair=$3 line
	echo "pair $pair: $side ($dir)" >&2
	line=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" "${flags[@]}" 2>"$tmp/log" | tail -n 1) || true
	if [ -z "$line" ] || ! jq -e 'type == "object"' >/dev/null 2>&1 <<<"$line"; then
		line='{"correct": false, "metrics": {}}'
	fi
	if ! jq -e '.correct == true' >/dev/null <<<"$line"; then
		echo "pair $pair: $side run was not correct; its log:" >&2
		cat "$tmp/log" >&2
	fi
	jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair, result: .}' <<<"$line" >>"$tmp/runs.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

jq -rn --slurpfile runs "$tmp/runs.jsonl" --slurpfile bench "$change/BENCHMARK.json" "$stats"'
def sig: if . == 0 then 0 else pow(10; 3 - (fabs | log10 | floor)) as $f | (. * $f | round) / $f end;
def summary: "\(med | sig) (\(quart(1) | sig)–\(quart(3) | sig))";

$runs as $runs
| [($bench[0] | (.end_to_end + .per_layer)[]) as $m
  | [$runs[] | select(.result.metrics[$m.name] != null)] as $have
  | select($have | length > 0)
  | [$have[] | .pair] | unique | map(. as $p
      | {pair: $p,
         first: ([$have[] | select(.pair == $p)] | first | .side),
         parent: ([$have[] | select(.pair == $p and .side == "parent") | .result.metrics[$m.name].value] | first),
         change: ([$have[] | select(.pair == $p and .side == "change") | .result.metrics[$m.name].value] | first)}
      | select(.parent != null and .change != null)) as $pairs
  | ($pairs | map(.parent)) as $pv
  | ($pairs | map(.change)) as $cv
  | (if $m.better == "lower" then 1 else -1 end) as $sign
  | ((($pv | med) - ($cv | med)) * $sign) as $gain
  | $m + {pairs: $pairs, pv: $pv, cv: $cv, sign: $sign, gain: $gain,
      iqr: (($pv | quart(3)) - ($pv | quart(1))),
      beyond: ($m.bound != null and -$gain > $m.bound * ($pv | med | fabs))}
  ] as $metrics
| "\($runs | length) runs, \($runs | map(select(.result.correct != true)) | length) not correct",
  ($metrics[]
  | "",
    "\(.name) (\(.unit), \(.better) is better)",
    (.pairs[] | "  pair \(.pair), \(.first) first: parent \(.parent | sig), change \(.change | sig)"),
    "  parent \(.pv | summary)   change \(.cv | summary)",
    "  change \(if .gain > 0 then "better" elif .gain < 0 then "worse" else "level" end) in median by \(.gain | fabs | sig); won \(.sign as $s | .pairs | map(select((.parent - .change) * $s > 0)) | length)/\(.pairs | length) pairs; median gap \(if (.gain | fabs) > .iqr then "exceeds" else "within" end) the parent interquartile range \(.iqr | sig)",
    (select(.bound != null)
    | "  bound \(.bound * 100 | sig)%: change median \(if .gain < 0 then "worse" else "not worse" end) by \(if (.pv | med) == 0 then 0 else .gain / (.pv | med) * 100 | fabs | sig end)% of the parent median; \(if .beyond then "beyond" else "within" end) the bound")),
  "",
  "\($metrics | map(select(.bound != null)) | length) metrics with a bound, \($metrics | map(select(.beyond)) | length) beyond it\($metrics | map(select(.beyond) | .name) | if length > 0 then ": " + join(", ") else "" end)"
'

jq -se 'all(.[]; .result.correct == true)' "$tmp/runs.jsonl" >/dev/null
