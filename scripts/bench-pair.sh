#!/usr/bin/env bash
# Paired benchmark runs of the working tree against a git ref: the
# protocol the bounds in BENCHMARK.json assume. Both sides run from
# fresh trees in one temporary directory, with no .git metadata and no
# build output: `git archive <git-ref>` for the parent, and for the
# change a copy of the working tree's tracked and untracked,
# not-ignored files (what `git ls-files -co --exclude-standard` lists).
# Runs one workload on both trees in alternating order (parent first in
# odd pairs, change first in even ones), and prints, per end-to-end
# metric, each side's median and quartiles and in how many pairs the
# change read better, then in how many pairs the two sides' runs
# reported the same sim_fingerprint (both values where they differ).
#
#   scripts/bench-pair.sh <git-ref> <workload> [pairs=10] [seed=1]
#
# Every run is `bash bench/run.sh --workload W --seed N --seconds 20
# --trace 0`, exactly as the acceptance driver makes it.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || { echo "bench-pair: unknown git ref $ref" >&2; exit 2; }

tmp=$(mktemp -d)
parent="$tmp/parent" change="$tmp/change"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent" "$change"
git archive "$ref" | tar -x -C "$parent"
# Files deleted in the working tree but still in the index are skipped.
git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -xf - -C "$change"

# run <tree> <side>: one benchmark run of pair $pair, its whole stdout
# kept in $tmp/<side>.<pair>.out; appends one "<side> <pair> <metric>
# <value>" line per metric to $tmp/runs and one "<side> <pair>
# <sim_fingerprint>" line to $tmp/fingerprints.
run() {
	local out="$tmp/$2.$pair.out" line
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0) >"$out" || :
	line=$(tail -n 1 "$out")
	case $line in
	*'"correct":true'*) ;;
	*) echo "bench-pair: $2 run failed: $line" >&2; exit 1 ;;
	esac
	echo "$line" | grep -o '"[a-z_]*":{"value":[^,}]*' |
		sed -e 's/^"\([a-z_]*\)":{"value":/\1 /' -e "s/^/$2 $pair /" >>"$tmp/runs"
	echo "$2 $pair $(grep -o 'sim_fingerprint=[^ ]*' "$out" | head -n 1 | cut -d= -f2)" >>"$tmp/fingerprints"
	echo "  pair $pair $2: $(echo "$line" | grep -o '"minstr_per_s":{"value":[^,}]*' | sed 's/.*://') Minstr/s" >&2
}

echo "bench-pair: $workload, seed $seed, $pairs pairs of 20 s runs, parent = $ref ($(git rev-parse --short "$ref"))" >&2
for pair in $(seq "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run "$parent" parent
		run "$change" change
	else
		run "$change" change
		run "$parent" parent
	fi
done

# Per metric: median and quartiles of each side, and the pairs won.
awk -v pairs="$pairs" '
function quantile(a, n, q,    pos, lo, frac) {
	pos = (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo + 1 < n ? a[lo + 1] * (1 - frac) + a[lo + 2] * frac : a[n]
}
function summary(side, m,    n, i, j, s, vals) {
	n = 0
	for (i = 1; i <= pairs; i++) vals[++n] = v[side, i, m]
	# insertion sort: a handful of values
	for (i = 2; i <= n; i++) { s = vals[i]; for (j = i - 1; j >= 1 && vals[j] > s; j--) vals[j + 1] = vals[j]; vals[j + 1] = s }
	return sprintf("%10.4g [%.4g, %.4g]", quantile(vals, n, 0.5), quantile(vals, n, 0.25), quantile(vals, n, 0.75))
}
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
	higher["minstr_per_s"] = higher["ipc_accuracy_pct"] = 1
	printf "%-18s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change better"
	for (k = 1; k <= nm; k++) {
		m = order[k]; wins = ties = 0
		for (i = 1; i <= pairs; i++) {
			p = v["parent", i, m]; c = v["change", i, m]
			if (p == c) ties++
			else if ((m in higher) ? c > p : c < p) wins++
		}
		printf "%-18s %-34s %-34s %d of %d pairs", m, summary("parent", m), summary("change", m), wins, pairs
		if (ties) printf " (%d ties)", ties
		printf "\n"
	}
}' "$tmp/runs"

# The simulated results are the same on both sides exactly when every
# pair's two fingerprints are.
awk -v pairs="$pairs" '
{ fp[$1, $2] = $3 }
END {
	for (i = 1; i <= pairs; i++) {
		if (fp["parent", i] == fp["change", i]) equal++
		else diff = diff sprintf("  pair %d: parent %s, change %s\n", i, fp["parent", i], fp["change", i])
	}
	printf "sim_fingerprint equal in %d of %d pairs\n%s", equal, pairs, diff
}' "$tmp/fingerprints"
