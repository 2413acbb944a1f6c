#!/usr/bin/env bash
# The offline CI gate: everything here must pass with no network access.
#
# Usage: scripts/ci.sh
#
# The workspace has no benchmark targets: host time is gated by the
# separate hostbench package (BENCHMARK.json), and bench_smoke.sh below
# builds and runs the advisory bench example at quick effort.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Lints are errors. Clippy also keeps unused `pub(crate)` items out:
# rustc's dead_code lint names them, and `-D warnings` fails on it.
echo "==> cargo clippy -D warnings (offline)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test -q (tier-1, offline)"
cargo test -q --offline

# The tier-1 step above already ran the root package's tests, so the
# workspace step covers every other crate: each test binary runs once.
echo "==> cargo test --workspace -q (every other crate, offline)"
cargo test --workspace -q --offline --exclude java-middleware-memsim

# hostbench is its own cargo package (outside the workspace) with path
# dependencies on crates/*, so the workspace build above never compiles
# it: build and test it here so a memsys API change cannot silently
# break the benchmark.
echo "==> cargo test -q hostbench (the host-time benchmark package, offline)"
cargo test -q --offline --manifest-path hostbench/Cargo.toml

# The committed RunLogs must pass the schema check as they sit on disk,
# before the figures runs below regenerate RUNLOG_figures.jsonl.
echo "==> simreport --check over the committed RunLogs"
for log in RUNLOG_plan.jsonl RUNLOG_figures.jsonl RUNLOG_gc_timeline.jsonl; do
    ./target/release/simreport --check "$log"
done

echo "==> bench smoke (quick)"
scripts/bench_smoke.sh quick

# RUNLOG_plan.jsonl is the committed two-pass, multi-worker fixture:
# render the machine-readable artifact CI uploads and prove the
# mpstat-style worker table renders from a real RunLog.
echo "==> simreport over RUNLOG_plan.jsonl"
./target/release/simreport --csv RUNLOG_plan.jsonl > SIMREPORT_plan.csv
./target/release/simreport RUNLOG_plan.jsonl | grep -q "worker   jobs" \
    || { echo "simreport text report is missing the worker table"; exit 1; }
echo "==> SIMREPORT_plan.csv ($(wc -l < SIMREPORT_plan.csv) rows)"

echo "==> bandwidth-latency curve figure (quick) + simreport over its RunLog"
cargo build --release --offline -p middlesim --bin figures
# Bad arguments fail before any simulation: a figure number is not an
# effort, an unknown figure name is an error, not a silent no-op, and
# the deleted sampled-mode flag is rejected rather than ignored.
for bad in "10" "quick nosuchfig" "--sampled quick 4"; do
    status=0
    ./target/release/figures $bad 2>/dev/null || status=$?
    test "$status" -eq 2 || { echo "figures $bad exited $status, expected 2"; exit 1; }
done
./target/release/figures quick memcurve
./target/release/simreport --check RUNLOG_figures.jsonl
test -s MEMCURVE.csv || { echo "figures memcurve did not write MEMCURVE.csv"; exit 1; }
head -1 MEMCURVE.csv | grep -q "write_pct,load_permille,mean_latency" \
    || { echo "MEMCURVE.csv is missing its header row"; exit 1; }
echo "==> MEMCURVE.csv ($(wc -l < MEMCURVE.csv) rows)"

# The figures binary rewrites RUNLOG_figures.jsonl on every invocation,
# so the curve's log is checked above before figure 10 regenerates it.
# Figure 10 and the cycle-attribution profile share one invocation: the
# combined RunLog is what rebaseline.sh aggregates, so the drift gate
# below covers the attrib counters too. `--check` cross-validates every
# attrib record stream against its span's `attrib.cycles` counter.
echo "==> figure 10 trace + cycle attribution + simreport over the combined RunLog"
./target/release/figures quick 10 attrib
./target/release/simreport --check RUNLOG_figures.jsonl
./target/release/simreport --simstat RUNLOG_figures.jsonl | grep -q "intervals x" \
    || { echo "simstat view is missing the interval table"; exit 1; }
./target/release/simreport --simstat-csv RUNLOG_figures.jsonl > SIMSTAT_figures.csv
echo "==> SIMSTAT_figures.csv ($(wc -l < SIMSTAT_figures.csv) rows)"

# The attribution artifacts CI uploads: the CPI-stack table must carry
# the paper's GC/mutator split, the CSV is the machine-readable
# companion, and the folded stacks feed inferno / flamegraph.pl /
# speedscope directly.
echo "==> cycle-attribution artifacts: CPI-stack CSV + folded stacks"
./target/release/simreport --attrib RUNLOG_figures.jsonl | grep -q "cycles attributed" \
    || { echo "attrib view is missing the CPI-stack table"; exit 1; }
./target/release/simreport --attrib-csv RUNLOG_figures.jsonl > ATTRIB_figures.csv
head -1 ATTRIB_figures.csv | grep -q "run,phase,component,cause,region,cycles,share_pct" \
    || { echo "ATTRIB_figures.csv is missing its header row"; exit 1; }
./target/release/simreport --folded RUNLOG_figures.jsonl > ATTRIB_figures.folded
grep -q "^gc;" ATTRIB_figures.folded || { echo "folded stacks lack the GC phase"; exit 1; }
grep -q "^mutator;" ATTRIB_figures.folded || { echo "folded stacks lack the mutator phase"; exit 1; }
echo "==> ATTRIB_figures.csv ($(wc -l < ATTRIB_figures.csv) rows), ATTRIB_figures.folded ($(wc -l < ATTRIB_figures.folded) stacks)"

# The run observatory: export the figure-10 RunLog as a Chrome-trace
# timeline (the artifact CI uploads for Perfetto), then gate its
# counters against the committed baseline. The drift gate is blocking:
# every counter is simulated and deterministic, so out-of-band drift
# means a code change silently shifted simulation results. Refresh the
# baseline deliberately with scripts/rebaseline.sh.
echo "==> run observatory: Chrome-trace export + drift gate vs committed baseline"
./target/release/simreport --trace TRACE_figures.json RUNLOG_figures.jsonl
test -s TRACE_figures.json || { echo "simreport --trace did not write TRACE_figures.json"; exit 1; }
./target/release/simdiff --baseline BASELINES.json RUNLOG_figures.jsonl | tee DRIFT_figures.txt
# The machine-readable twin for PR annotations (same verdict and rank).
./target/release/simdiff --json --baseline BASELINES.json RUNLOG_figures.jsonl > DRIFT_figures.json
grep -q '"ok": true' DRIFT_figures.json || { echo "DRIFT_figures.json verdict is not ok"; exit 1; }

# The sampled spine's correctness claim is measured, not assumed: the
# differential matrix runs each config every-cycle and sampled, and the
# binary exits non-zero if any metric breaks the error bound. The
# matrix calls measure_sampled directly, so its RunLog holds no
# sample_unit records; it must still pass the simreport schema check.
echo "==> sampled-vs-full differential validation (quick)"
./target/release/figures quick validate-sampled
test -s SAMPLED_VALIDATION.csv || { echo "figures validate-sampled did not write SAMPLED_VALIDATION.csv"; exit 1; }
head -1 SAMPLED_VALIDATION.csv | grep -q "config,metric,full,sampled" \
    || { echo "SAMPLED_VALIDATION.csv is missing its header row"; exit 1; }
# Throughput and the system share are recorded, not bounded: check
# that their rows are there, so they cannot silently disappear.
for config in jbb:p2 jbb:p8 ecperf:p2; do
    for metric in throughput system_share; do
        grep -q "^$config,$metric," SAMPLED_VALIDATION.csv \
            || { echo "SAMPLED_VALIDATION.csv has no $config $metric row"; exit 1; }
    done
done
./target/release/simreport --check RUNLOG_figures.jsonl
echo "==> SAMPLED_VALIDATION.csv ($(wc -l < SAMPLED_VALIDATION.csv) rows)"

echo "CI gate passed."
