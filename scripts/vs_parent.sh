#!/usr/bin/env bash
# Host time against <rev>: alternating hostbench pairs per workload.
#
# Usage: scripts/vs_parent.sh <rev> [pairs] [seconds] [seed]
#
# Builds hostbench for <rev> in a git worktree under target/ and for the
# working tree under target/vs_parent/, then runs, for each workload in
# BENCHMARK.json, `pairs` (default 10) pairs of `hostbench --workload W
# --seed S --seconds T --trace 0` (default seed 1, 50 s: the benchmark's
# settings), one run of each side per pair, alternating which side runs
# first. It prints, per workload:
#   - the per-pair table of the four end-to-end metrics, parent -> change,
#   - each side's median and quartiles, the parent's interquartile range
#     and the pairs the change won,
#   - the nine-in-ten verdict per metric: the change wins at least nine
#     pairs in ten and its median beats the parent's by more than the
#     parent's interquartile range.
# A run whose result line does not read `"failed":0` (the pinned seed-1
# digests) fails the script. Nothing under hostbench/ is edited; each
# build writes its result records to its own source tree's
# hostbench/out/, which git ignores. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/vs_parent.sh <rev> [pairs] [seconds] [seed]" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs="${2:-10}"
seconds="${3:-50}"
seed="${4:-1}"
root=$PWD
work="${root}/target/vs_parent"
base_src="${work}/base-src"

cleanup() {
    git -C "${root}" worktree remove --force "${base_src}" 2>/dev/null || true
}
trap cleanup EXIT
cleanup
mkdir -p "${work}"

echo "==> building hostbench at ${rev:0:12} in a worktree and at the working tree (offline, release)"
git worktree add --quiet --detach "${base_src}" "${rev}"
CARGO_TARGET_DIR="${work}/base-target" cargo build --release --offline --quiet \
    --manifest-path "${base_src}/hostbench/Cargo.toml"
CARGO_TARGET_DIR="${work}/head-target" cargo build --release --offline --quiet \
    --manifest-path "${root}/hostbench/Cargo.toml"
base_bin="${work}/base-target/release/hostbench"
head_bin="${work}/head-target/release/hostbench"

workloads=$(grep -o '"name": *"[a-z0-9_]*", *"why"' BENCHMARK.json | sed -E 's/"name": *"([^"]*)".*/\1/')
metrics="run_s sim_mips setup_s peak_rss_mb"

# One run: prints the four metrics as "name value" lines, or fails.
run_one() {
    local bin=$1 workload=$2 line
    line=$("${bin}" --workload "${workload}" --seed "${seed}" --seconds "${seconds}" \
        --trace 0 2>/dev/null | tail -1)
    case "${line}" in
    *'"failed":0,'* | *'"failed":0}'*) ;;
    *)
        echo "FAIL: ${workload} run did not read \"failed\":0: ${line}" >&2
        return 1
        ;;
    esac
    for m in ${metrics}; do
        printf '%s %s\n' "${m}" \
            "$(echo "${line}" | grep -o "\"${m}\":{\"value\":[0-9.eE+-]*" | sed 's/.*://')"
    done
}

status=0
for workload in ${workloads}; do
    results="${work}/${workload}-s${seed}.tsv"
    : > "${results}"
    echo
    echo "==> ${workload}: ${pairs} pairs, --seed ${seed} --seconds ${seconds} --trace 0"
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then order="base head"; else order="head base"; fi
        for side in ${order}; do
            bin_var="${side}_bin"
            if ! run_one "${!bin_var}" "${workload}" > "${work}/one.txt"; then
                status=1
                continue 2
            fi
            while read -r m v; do
                printf '%s\t%s\t%s\t%s\n' "${pair}" "${side}" "${m}" "${v}" >> "${results}"
            done < "${work}/one.txt"
        done
        first=${order%% *}
        awk -F'\t' -v pair="${pair}" -v first="${first}" '
            $1 == pair { v[$2, $3] = $4 }
            END {
                printf "pair %2d (%s first):", pair, first == "base" ? "parent" : "change"
                n = split("run_s sim_mips setup_s peak_rss_mb", ms, " ")
                for (i = 1; i <= n; i++)
                    printf "  %s %.4g -> %.4g", ms[i], v["base", ms[i]], v["head", ms[i]]
                printf "\n"
            }' "${results}"
    done
    echo "-- ${workload}: parent median (q1-q3) -> change median (q1-q3), wins, verdict"
    awk -F'\t' '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Linear interpolation between closest ranks (inclusive method).
        function q(a, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        { v[$1, $2, $3] = $4; if ($1 > pairs) pairs = $1; seen[$1, $3] = seen[$1, $3] + 1 }
        END {
            split("run_s sim_mips setup_s peak_rss_mb", ms, " ")
            split("lower higher lower lower", better, " ")
            for (k = 1; k <= 4; k++) {
                m = ms[k]; nb = nh = wins = done = 0
                delete b; delete h
                for (p = 1; p <= pairs; p++) {
                    if (seen[p, m] != 2) continue
                    done++
                    b[++nb] = v[p, "base", m]; h[++nh] = v[p, "head", m]
                    if (better[k] == "lower" ? v[p, "head", m] < v[p, "base", m] \
                                             : v[p, "head", m] > v[p, "base", m]) wins++
                }
                if (done == 0) continue
                sort(b, nb); sort(h, nh)
                bm = q(b, nb, 0.5); hm = q(h, nh, 0.5); iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
                gain = better[k] == "lower" ? bm - hm : hm - bm
                holds = (wins * 10 >= done * 9) && gain > iqr
                printf "%-12s %.4g (%.4g-%.4g) -> %.4g (%.4g-%.4g)  %+.1f%%  parent IQR %.4g  won %d/%d  %s\n", \
                    m, bm, q(b, nb, 0.25), q(b, nb, 0.75), hm, q(h, nh, 0.25), q(h, nh, 0.75), \
                    (hm - bm) / bm * 100, iqr, wins, done, \
                    holds ? "nine-in-ten: holds" : "nine-in-ten: does not hold"
            }
        }' "${results}"
done
exit "${status}"
