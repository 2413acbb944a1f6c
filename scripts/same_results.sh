#!/usr/bin/env bash
# Same results as <rev>: a change that should not move any simulated
# number is checked against the revision it starts from.
#
# Usage: scripts/same_results.sh <rev>
#
# Builds <rev> in a git worktree under target/ and the working tree in
# place, runs each side in its own scratch directory under
# target/same_results/ (so neither rewrites committed result files),
# and fails unless
#   - the stdout of `figures quick 4 10 12 16 attrib memcurve ablations`
#     is byte-identical on both sides, and so is its RunLog once the
#     provenance line and each job's worker, claim and wall time (host
#     facts, not simulated ones) are dropped,
#   - SAMPLED_VALIDATION.csv (`figures quick validate-sampled`) is
#     byte-identical outside its `wall_speedup` rows, and
#   - `simdiff --baseline BASELINES.json` passes on the working tree's
#     `figures quick 10 attrib` RunLog (the run scripts/ci.sh gates).
# Everything runs offline; a full check takes several minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/same_results.sh <rev>" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
root=$PWD
work="${root}/target/same_results"
base_src="${work}/base-src"

cleanup() {
    git -C "${root}" worktree remove --force "${base_src}" 2>/dev/null || true
}
trap cleanup EXIT
cleanup
rm -rf "${work}"
mkdir -p "${work}/base" "${work}/head"

echo "==> building ${rev:0:12} in a worktree and the working tree (offline, release)"
git worktree add --quiet --detach "${base_src}" "${rev}"
(cd "${base_src}" && CARGO_TARGET_DIR="${work}/base-target" \
    cargo build --release --offline --quiet -p middlesim --bin figures)
cargo build --release --offline --quiet -p middlesim --bin figures --bin simdiff
base_bin="${work}/base-target/release"
head_bin="${root}/target/release"

figs=(4 10 12 16 attrib memcurve ablations)
for side in base head; do
    bin_var="${side}_bin"
    bin="${!bin_var}"
    echo "==> ${side}: figures quick ${figs[*]}, then validate-sampled"
    (cd "${work}/${side}" \
        && "${bin}/figures" quick "${figs[@]}" > figures.out 2> figures.err \
        && mv RUNLOG_figures.jsonl figures.runlog.jsonl \
        && "${bin}/figures" quick validate-sampled > validate.out 2> validate.err)
done

status=0
if cmp -s "${work}/base/figures.out" "${work}/head/figures.out"; then
    echo "ok: figures stdout is byte-identical"
else
    echo "FAIL: figures stdout differs:"
    diff "${work}/base/figures.out" "${work}/head/figures.out" | head -20 || true
    status=1
fi

simulated() {
    grep -v '^{"ev":"provenance"' "$1" \
        | sed -E 's/"worker":[0-9]+,"claim":[0-9]+,//; s/,"wall_secs":[0-9.eE+-]+//'
}
if cmp -s <(simulated "${work}/base/figures.runlog.jsonl") \
    <(simulated "${work}/head/figures.runlog.jsonl"); then
    echo "ok: the figures RunLog is identical outside host facts"
else
    echo "FAIL: the figures RunLog differs outside host facts:"
    diff <(simulated "${work}/base/figures.runlog.jsonl") \
        <(simulated "${work}/head/figures.runlog.jsonl") | head -20 || true
    status=1
fi

without_wall() { grep -v ',wall_speedup,' "$1"; }
if cmp -s <(without_wall "${work}/base/SAMPLED_VALIDATION.csv") \
    <(without_wall "${work}/head/SAMPLED_VALIDATION.csv"); then
    echo "ok: SAMPLED_VALIDATION.csv is byte-identical outside wall_speedup"
else
    echo "FAIL: SAMPLED_VALIDATION.csv differs outside wall_speedup:"
    diff <(without_wall "${work}/base/SAMPLED_VALIDATION.csv") \
        <(without_wall "${work}/head/SAMPLED_VALIDATION.csv") | head -20 || true
    status=1
fi

echo "==> head: figures quick 10 attrib, then simdiff against BASELINES.json"
mkdir -p "${work}/gate"
(cd "${work}/gate" && "${head_bin}/figures" quick 10 attrib > figures.out 2> figures.err)
if "${head_bin}/simdiff" --baseline BASELINES.json "${work}/gate/RUNLOG_figures.jsonl" \
    > "${work}/gate/drift.txt"; then
    echo "ok: simdiff --baseline BASELINES.json passes"
else
    echo "FAIL: simdiff --baseline BASELINES.json:"
    tail -20 "${work}/gate/drift.txt"
    status=1
fi

if [ "${status}" -eq 0 ]; then
    echo "same results as ${rev:0:12}"
else
    echo "results differ from ${rev:0:12} (outputs kept in ${work})"
fi
exit "${status}"
