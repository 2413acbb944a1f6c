//! Trace capture → replay fidelity.
//!
//! The paper's methodology feeds captured reference traces into the
//! memory-system simulator (Simics → Sumo, Section 3.3). For that to be
//! sound, a replayed trace must reproduce the live run's memory-system
//! behavior exactly: same hit levels, same upgrades, same cache-to-cache
//! transfers. These tests capture a live SPECjbb window through the
//! observer seam and assert the replay is bit-identical.

use memsys::{Addr, AddrRange};
use middlesim::engine::{replay_trace, TraceObserver};
use middlesim::{AccessSource, ExperimentPlan, Machine, MachineConfig};
use workloads::specjbb::{SpecJbb, SpecJbbConfig};

const MCYCLES: u64 = 1_000_000;

/// A short but real SPECjbb run on `pset` processors with a
/// [`TraceObserver`] attached from cycle zero, returning the machine
/// (after its measurement window) and the capture.
fn captured_run(pset: usize, seed: u64) -> (Machine<SpecJbb>, memsys::SystemTrace) {
    let cfg = SpecJbbConfig::scaled(2 * pset, 64);
    let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
    let mut mc = MachineConfig::e6000(pset);
    mc.seed = seed;
    let mut m = Machine::new(mc, SpecJbb::new(cfg, region));
    let handle = m.attach_observer(TraceObserver::new());
    m.run_until(4 * MCYCLES);
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + 8 * MCYCLES);
    let trace = m.observer(handle).trace().clone();
    (m, trace)
}

/// Replaying a capture into a fresh, cold memory system of the same
/// configuration reproduces the live window statistics *exactly*: the
/// warm-up prefix re-warms the caches and the in-stream window marker
/// resets the counters at the same point in coherence order.
#[test]
fn replay_reproduces_live_window_statistics() {
    let (m, trace) = captured_run(2, 7);
    assert!(trace.refs() > 10_000, "capture is non-trivial");
    let live = m.memory().stats().clone();
    let replayed = replay_trace(&trace, m.memory().config());
    assert_eq!(
        replayed.stats, live,
        "replayed window statistics must equal the live run's"
    );
    // Spot-check the headline counters the figures are built from.
    assert_eq!(replayed.stats.data().l2_misses, live.data().l2_misses);
    assert_eq!(replayed.stats.data().upgrades, live.data().upgrades);
    assert_eq!(replayed.stats.data().c2c, live.data().c2c);
    assert!(replayed.instructions > 0);
}

/// Capture once, replay twice — the replay itself is deterministic, and
/// replaying through the experiment plan merges in input order.
#[test]
fn replay_is_deterministic_and_plan_routable() {
    let (m, trace) = captured_run(1, 3);
    let hierarchy = *m.memory().config();
    let a = replay_trace(&trace, &hierarchy);
    let b = replay_trace(&trace, &hierarchy);
    assert_eq!(a, b);
    let plan = ExperimentPlan::serial(middlesim::Effort::Quick).with_threads(2);
    let reports = middlesim::replay_traces(&plan, &[trace.clone(), trace], &hierarchy);
    assert_eq!(reports[0], a);
    assert_eq!(reports[1], a);
}

/// The Section 3.3 filter: a capture reduced to a processor subset
/// replays only that subset's traffic, and filtering at capture time
/// (observer predicate) equals filtering the full capture afterwards
/// with [`memsys::SystemTrace::filtered_cpus`].
#[test]
fn filtered_capture_equals_post_filtered_trace() {
    let cfg = SpecJbbConfig::scaled(4, 64);
    let region = AddrRange::new(Addr(0x2000_0000), cfg.required_bytes());
    let mut mc = MachineConfig::e6000(2);
    mc.seed = 5;
    let mut m = Machine::new(mc, SpecJbb::new(cfg, region));
    let full = m.attach_observer(TraceObserver::new());
    let filtered = m.attach_observer(TraceObserver::filtered(
        |cpu: usize, _source: AccessSource| cpu == 0,
    ));
    m.run_until(4 * MCYCLES);
    m.begin_measurement();
    let start = m.time();
    m.run_until(start + 4 * MCYCLES);

    let post = m.observer(full).trace().filtered_cpus(|cpu| cpu == 0);
    let at_capture = m.observer(filtered).trace();
    assert!(at_capture.refs() > 0);
    assert!(at_capture.refs() < m.observer(full).trace().refs());
    assert_eq!(at_capture.refs(), post.refs());
    assert_eq!(at_capture.instructions(), post.instructions());
}
