//! Seeded mutation fuzz over the committed RunLogs, `BASELINES.json`
//! and an in-process MTRC trace capture.
//!
//! Each case truncates, bit-flips or digit-substitutes one committed
//! file and feeds the result to every reader: `report::check`, every
//! `render_*`, the Chrome-trace export and its validator,
//! `Baseline::from_log` and `Baseline::parse`. The binary trace gets
//! truncations and bit flips through `SystemTrace::read_from`. Each
//! must return `Ok` or `Err` — malformed bytes must never panic
//! (overflow checks are on in the test profile, so a wrapping sum
//! fails here too).

use std::panic::{self, AssertUnwindSafe};

use memsys::SystemTrace;
use middlesim::engine::TraceObserver;
use middlesim::{jbb_machine, Effort};
use probes::drift::Baseline;
use probes::{report, timeline};

/// Mutations per committed file.
const CASES: usize = 25;

/// splitmix64: a seeded, dependency-free case generator.
struct Cases(u64);

impl Cases {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutation of `src`, drawn from the first `kinds` of truncate,
/// bit flip and digit substitution, and a description of it.
fn mutate(src: &[u8], kinds: usize, cases: &mut Cases) -> (Vec<u8>, String) {
    let mut out = src.to_vec();
    match cases.below(kinds) {
        0 => {
            let at = cases.below(src.len());
            out.truncate(at);
            (out, format!("truncate at {at}"))
        }
        1 => {
            let at = cases.below(src.len());
            let bit = cases.below(8);
            out[at] ^= 1 << bit;
            (out, format!("flip bit {bit} of byte {at}"))
        }
        _ => {
            let digits: Vec<usize> = (0..src.len())
                .filter(|&i| src[i].is_ascii_digit())
                .collect();
            let at = digits[cases.below(digits.len())];
            let digit = b'0' + cases.below(10) as u8;
            out[at] = digit;
            (out, format!("digit {} at byte {at}", digit as char))
        }
    }
}

/// Every reader a RunLog reaches.
fn read_runlog(text: &str) {
    let Ok(log) = report::check(text) else {
        return;
    };
    report::render_text(&log);
    report::render_csv(&log);
    report::render_simstat(&log);
    report::render_interval_csv(&log);
    report::render_attrib(&log);
    report::render_attrib_csv(&log);
    report::render_folded(&log);
    let _ = timeline::validate_chrome_trace(&timeline::render_chrome_trace(&log));
    let _ = Baseline::from_log(&log);
}

fn read_baseline(text: &str) {
    if let Ok(base) = Baseline::parse(text) {
        base.to_json();
    }
}

/// Every reader an MTRC trace reaches. A trace that reads back must
/// survive a write/read round trip unchanged.
fn read_trace(bytes: &[u8]) {
    let Ok(trace) = SystemTrace::read_from(bytes) else {
        return;
    };
    let mut again = Vec::new();
    trace.write_to(&mut again).expect("write to memory");
    assert_eq!(SystemTrace::read_from(&again[..]).expect("re-read"), trace);
}

/// Feeds `CASES` seeded mutations of `src` to `read`.
fn fuzz_bytes(name: &str, src: &[u8], seed: u64, kinds: usize, read: impl Fn(&[u8])) {
    let mut cases = Cases(seed);
    for case in 0..CASES {
        let (bytes, what) = mutate(src, kinds, &mut cases);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| read(&bytes)));
        assert!(outcome.is_ok(), "{name} case {case} ({what}) panicked");
    }
}

fn fuzz(file: &str, seed: u64, read: fn(&str)) {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    fuzz_bytes(file, &src, seed, 3, |b| read(&String::from_utf8_lossy(b)));
}

#[test]
fn mutated_runlogs_and_baselines_error_without_panicking() {
    fuzz("RUNLOG_plan.jsonl", 1, read_runlog);
    fuzz("RUNLOG_figures.jsonl", 2, read_runlog);
    fuzz("RUNLOG_gc_timeline.jsonl", 3, read_runlog);
    fuzz("BASELINES.json", 4, read_baseline);

    // A small SPECjbb capture in the on-disk MTRC format.
    let mut m = jbb_machine(2, 4, 1, Effort::Quick);
    let observer = m.attach_observer(TraceObserver::new());
    m.run_until(200_000);
    let mut src = Vec::new();
    m.observer(observer).trace().write_to(&mut src).unwrap();
    fuzz_bytes("MTRC capture", &src, 5, 2, read_trace);
}
