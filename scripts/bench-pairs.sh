#!/usr/bin/env bash
# Runs one benchmark workload on the parent commit and on this checkout in
# interleaved pairs, and prints the comparison in the form a performance
# claim needs (choosing-metrics guide, section 8):
#
#	scripts/bench-pairs.sh <workload> <pairs> [parent-rev]
#	scripts/bench-pairs.sh search-large 10
#
# Pair i runs both sides with seed FIRST_SEED+i−1 (FIRST_SEED defaults to
# 101; set it, e.g. FIRST_SEED=201, to re-check a claim on held-out seeds);
# odd pairs run the parent first, even pairs the change first. Each side is built and run by its own
# bench/run.sh, for the run length BENCHMARK.json fixes. For every end-to-end
# metric the script prints each side's median and quartiles, how many pairs
# the change won (ties count for neither), and two verdicts. The gain rule:
# at least ten pairs, wins in at least nine tenths of them and a median gap
# wider than the distance between the parent's own quartiles. The
# no-regression rule, which a PR that claims no gain needs, against the
# metric's bound in BENCHMARK.json (a fraction of the parent's median): "ok"
# when the change's median is no worse than the parent's by more than the
# bound, "worse" when it is, and "unresolved" when the parent's own min-max
# spread is wider than the bound, unless every change run beats every parent
# run.
#
# The parent is checked out with `git worktree` under .bench_pairs/parent
# (git-ignored; an existing checkout there is moved to the wanted commit and
# reused). parent-rev defaults to HEAD when the working tree has uncommitted
# changes — they are the change — and to HEAD~1 otherwise.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <workload> <pairs> [parent-rev]" >&2
	exit 2
fi
workload=$1
pairs=$2
first=${FIRST_SEED:-101}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

if [ $# -eq 3 ]; then
	rev=$3
elif [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	rev=HEAD
else
	rev=HEAD~1
fi
commit=$(git rev-parse --verify "$rev^{commit}")

parent="$root/.bench_pairs/parent"
if [ -e "$parent/.git" ]; then
	git -C "$parent" checkout --quiet --detach "$commit"
else
	mkdir -p "$root/.bench_pairs"
	git worktree add --quiet --detach "$parent" "$commit"
fi

seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
out="$root/.bench_pairs/$workload.tsv"
: >"$out"

# run_side <side> <dir> <pair> <seed>: one run, its metrics appended to $out
# as "pair side metric value".
run_side() {
	echo "pair $3 $1 (seed $4)" >&2
	bash "$2/bench/run.sh" --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 |
		awk -v pair="$3" -v side="$1" 'NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^[-+0-9.e]+$/ { print pair "\t" side "\t" $1 "\t" $2 }' >>"$out"
}

for i in $(seq 1 "$pairs"); do
	seed=$((first + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run_side parent "$parent" "$i" "$seed"
		run_side change "$root" "$i" "$seed"
	else
		run_side change "$root" "$i" "$seed"
		run_side parent "$parent" "$i" "$seed"
	fi
done

echo "$workload: $pairs pairs, parent $(git rev-parse --short "$commit"), seeds $first..$((first + pairs - 1)), ${seconds}s runs"
# BENCHMARK.json lists one end-to-end metric per line: take name, direction
# and bound.
sed -n 's/.*{"name": "\([a-z0-9_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": *\([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json |
	while read -r metric better bound; do
		awk -F'\t' -v metric="$metric" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
			function quantile(v, n, q,    pos, lo, frac) {
				pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
				return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
			}
			function sorted(src, dst, n,    i, j, t) {
				for (i = 1; i <= n; i++) dst[i] = src[i]
				for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
			}
			$3 == metric { if ($2 == "parent") p[$1] = $4; else c[$1] = $4 }
			END {
				for (i = 1; i <= pairs; i++) {
					if (!(i in p) || !(i in c)) { printf "%-14s pair %d has no result on both sides\n", metric, i; exit }
					if (better == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
				}
				sorted(p, ps, pairs); sorted(c, cs, pairs)
				pm = quantile(ps, pairs, .5); cm = quantile(cs, pairs, .5)
				iqr = quantile(ps, pairs, .75) - quantile(ps, pairs, .25)
				gap = better == "higher" ? cm - pm : pm - cm
				verdict = pairs < 10 ? "under ten pairs" : (wins * 10 >= pairs * 9 && gap > iqr) ? "gain" : "no claim"
				# Every change run beats every parent run when the sorted
				# ranges do not touch.
				clear = better == "higher" ? cs[1] > ps[pairs] : cs[pairs] < ps[1]
				if (ps[pairs] - ps[1] > bound * pm && !clear) regress = "unresolved"
				else regress = -gap > bound * pm ? "worse" : "ok"
				printf "%-14s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  wins %d/%d  gap %+.4g vs parent IQR %.4g  -> %s; parent range %.4g..%.4g vs bound %.4g -> %s\n",
					metric, pm, quantile(ps, pairs, .25), quantile(ps, pairs, .75),
					cm, quantile(cs, pairs, .25), quantile(cs, pairs, .75), wins, pairs, gap, iqr, verdict,
					ps[1], ps[pairs], bound * pm, regress
			}' "$out"
	done
echo "per-run values: $out"
