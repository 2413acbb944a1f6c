#!/usr/bin/env bash
# Offline bench smoke: the MemorySystem::access throughput bench on
# captured SPECjbb streams across CPU-count shapes (BENCH_memsys.json,
# with host/commit provenance).
#
# Usage: scripts/bench_smoke.sh [quick|standard|full] [--gate]
#
# Pass `quick` for a fast sanity run (CI-sized); the default Standard
# run is the number the ROADMAP's bench item tracks.
#
# After the fresh run, BENCH_memsys.json is diffed against the version
# committed at HEAD. The diff only engages when the provenance block says
# the baseline came from the same host class (hostname + cpu_count);
# numbers from a different machine are not comparable and are skipped
# with a note. A >20% regression (refs/sec down, or serial batch time
# up) prints a loud WARNING banner. By default that is advisory —
# benches on shared hosts are too noisy to hard-gate merges on — but
# with `--gate` the script exits non-zero on any warning, for the
# separate non-blocking CI perf job. Skipped diffs (no baseline, or a
# host-class mismatch) never trip the gate: they carry no signal.
set -euo pipefail
cd "$(dirname "$0")/.."

effort="standard"
gate=0
for arg in "$@"; do
    case "${arg}" in
    --gate) gate=1 ;;
    quick | standard | full) effort="${arg}" ;;
    *)
        echo "unknown argument: ${arg}" >&2
        echo "usage: scripts/bench_smoke.sh [quick|standard|full] [--gate]" >&2
        exit 2
        ;;
    esac
done

echo "==> building the bench example (offline, release)"
cargo build --release --offline --example bench_memsys

echo "==> running the memsys access bench at effort: ${effort}"
./target/release/examples/bench_memsys "${effort}"

echo "==> BENCH_memsys.json"
cat BENCH_memsys.json

echo "==> diffing the fresh BENCH_memsys.json against the baseline committed at HEAD"
mkdir -p target/bench-baseline
warn_log="target/bench-baseline/warnings.txt"
: > "${warn_log}"

# Pulls "hostname <space> cpu_count <space> effort" out of a BENCH
# json — the triple that decides whether two runs are comparable. The
# effort comes from the provenance line when recorded there (lowercase),
# falling back to a top-level "effort" field, else "unknown"; an
# unknown-effort baseline predates effort provenance and is skipped.
host_class() {
    awk '
        /"provenance"/ && !seen {
            seen = 1
            match($0, /"hostname":"[^"]*"/)
            h = substr($0, RSTART + 12, RLENGTH - 13)
            match($0, /"cpu_count":[0-9]+/)
            c = substr($0, RSTART + 12, RLENGTH - 12)
            if (match($0, /"effort":"[^"]*"/))
                e = tolower(substr($0, RSTART + 10, RLENGTH - 11))
        }
        !e && /^  "effort"/ && match($0, /: "[^"]*"/) {
            e = tolower(substr($0, RSTART + 3, RLENGTH - 4))
        }
        END { print h, c, (e ? e : "unknown") }
    ' "$1"
}

f=BENCH_memsys.json
base="target/bench-baseline/${f}"
if ! git show "HEAD:${f}" > "${base}" 2>/dev/null; then
    echo "    no committed baseline for ${f} — skipping its diff"
elif [ "$(host_class "${base}")" != "$(host_class "${f}")" ]; then
    echo "    ${f}: baseline class ($(host_class "${base}")) differs from" \
         "this run ($(host_class "${f}")) — numbers not comparable, skipping"
else
    # Per-shape throughput: each shape is one line carrying both the
    # name and its refs_per_sec, in both files.
    awk '
        FNR == 1 { file++ }
        /"refs_per_sec"/ {
            match($0, /"name": "[^"]*"/)
            name = substr($0, RSTART + 9, RLENGTH - 10)
            match($0, /"refs_per_sec": [0-9]+/)
            rps = substr($0, RSTART + 16, RLENGTH - 16) + 0
            if (file == 1) base[name] = rps
            else if (name in base && rps < 0.8 * base[name])
                printf "memsys %s: %d refs/s vs baseline %d (-%.0f%%)\n",
                       name, rps, base[name], (1 - rps / base[name]) * 100
        }' "${base}" "${f}" >> "${warn_log}"
fi

if [ -s "${warn_log}" ]; then
    echo
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
    echo "!!! BENCH REGRESSION WARNING: >20% worse than the committed baseline"
    sed 's/^/!!!   /' "${warn_log}"
    echo "!!! Re-run scripts/bench_smoke.sh standard on a quiet host to"
    echo "!!! confirm, then recommit BENCH_memsys.json if the change is real"
    echo "!!! and intended."
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
    if [ "${gate}" = 1 ]; then
        echo "--gate: failing on the regression warnings above."
        exit 1
    fi
else
    echo "    fresh numbers are within 20% of the committed baseline."
fi
