//! End-to-end `simdiff` drift-gate test, driving the real binary.
//!
//! The gate's contract, proven against actual simulation output: a
//! same-seed re-run diffs clean (exit 0), a single perturbed counter
//! fails the gate (exit nonzero), the `--write-baseline`/`--baseline`
//! round trip works, and comparisons across mismatched `sim_mode`
//! provenance are refused (exit 2).

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use memsys::{Addr, AddrRange};
use middlesim::{ExperimentPlan, JobTelemetry, Machine, MachineConfig};
use probes::RunLog;
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

const MCYCLES: u64 = 1_000_000;

/// One tiny probed run, serialized to JSONL with the given `sim_mode`.
fn mini_runlog(sim_mode: &str) -> String {
    let jobs: Vec<u64> = vec![0, 1];
    let log = Arc::new(RunLog::new());
    let plan =
        ExperimentPlan::serial(middlesim::Effort::Quick).with_run_log(Arc::clone(&log), "gate");
    let _ = plan.run_telemetry(
        &jobs,
        |_| 1,
        |&s| {
            let cfg = SpecJbbConfig::scaled(2, 64);
            let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
            let mut mc = MachineConfig::e6000(1);
            mc.seed = s;
            let mut m = Machine::new(mc, SpecJbb::new(cfg, region));
            m.run_until(5 * MCYCLES);
            m.begin_measurement();
            let start = m.time();
            m.run_until(start + 10 * MCYCLES);
            (
                m.window_report(),
                JobTelemetry::counters(Some(m.counters())),
            )
        },
    );
    log.to_jsonl(&probes::Provenance {
        git_rev: "test".into(),
        hostname: "test".into(),
        cpu_count: 4,
        timestamp: 0,
        workers: Some(1),
        effort: Some("quick".into()),
        sim_mode: Some(sim_mode.into()),
    })
}

/// Bump the first occurrence of `"name":<n>` to `<n+1>`.
fn perturb(jsonl: &str, name: &str) -> String {
    let needle = format!("\"{name}\":");
    let pos = jsonl.find(&needle).expect("counter present in the log");
    let start = pos + needle.len();
    let digits = jsonl[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number terminated");
    let val: u64 = jsonl[start..start + digits].parse().expect("counter value");
    format!("{}{}{}", &jsonl[..start], val + 1, &jsonl[start + digits..])
}

fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("simdiff_gate_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

fn simdiff(args: &[&PathBuf]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simdiff"))
        .args(args.iter().map(|p| p.as_os_str()))
        .output()
        .expect("run simdiff");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("simdiff exited"), text)
}

fn simdiff_mode(mode: &str, a: &PathBuf, b: &PathBuf) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simdiff"))
        .arg(mode)
        .arg(a)
        .arg(b)
        .output()
        .expect("run simdiff");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("simdiff exited"), text)
}

#[test]
fn drift_gate_passes_clean_reruns_and_fails_perturbed_counters() {
    // Two independent same-seed runs. Their spans differ in wall-clock
    // time (host noise), but every simulated counter must agree — which
    // is exactly the separation the gate enforces.
    let a = mini_runlog("full");
    let b = mini_runlog("full");

    let log_a = scratch("a.jsonl", &a);
    let log_b = scratch("b.jsonl", &b);

    // Same-seed re-run diffs clean.
    let (code, text) = simdiff(&[&log_a, &log_b]);
    assert_eq!(code, 0, "clean re-run must pass the gate:\n{text}");
    assert!(text.contains("PASS"), "report announces the pass:\n{text}");

    // A single perturbed counter — one retired-instruction count off by
    // one — trips the gate.
    let bad = perturb(&b, "cpustat.instr_cnt");
    let log_bad = scratch("bad.jsonl", &bad);
    let (code, text) = simdiff(&[&log_a, &log_bad]);
    assert_ne!(code, 0, "perturbed counter must fail the gate:\n{text}");
    assert!(
        text.contains("cpustat.instr_cnt"),
        "report names the drifted counter:\n{text}"
    );

    // The baseline round trip gates the same way.
    let baseline = scratch("BASELINES.json", "");
    let (code, text) = simdiff_mode("--write-baseline", &baseline, &log_a);
    assert_eq!(code, 0, "write-baseline succeeds:\n{text}");
    let (code, _) = simdiff_mode("--baseline", &baseline, &log_b);
    assert_eq!(code, 0, "clean run passes against the committed baseline");
    let (code, _) = simdiff_mode("--baseline", &baseline, &log_bad);
    assert_ne!(
        code, 0,
        "perturbed run fails against the committed baseline"
    );

    // Mismatched sim_mode provenance is refused outright, not diffed:
    // sampled-mode counters are extrapolated estimates.
    let sampled = mini_runlog("sampled");
    let log_sampled = scratch("sampled.jsonl", &sampled);
    let (code, text) = simdiff(&[&log_a, &log_sampled]);
    assert_eq!(code, 2, "mode mismatch is a refusal, not a drift:\n{text}");
    assert!(text.contains("refusing"), "refusal is explicit:\n{text}");

    for p in [log_a, log_b, log_bad, baseline, log_sampled] {
        let _ = std::fs::remove_file(p);
    }
}
