//! The correctness gate: counter digests pinned for the default seed.
//!
//! A change that only speeds the simulator up must leave every
//! simulated statistic identical, so each run digests its end-of-run
//! counter snapshots and compares them with the digest pinned here.
//! Every iteration of a run must also reproduce the first iteration's
//! digest: the closed loop replays one seed, and the simulator is
//! deterministic.

use probes::registry::Snapshot;

use crate::workload::{Scale, Workload};
use crate::DEFAULT_SEED;

/// Digests of the end-of-run counters at [`DEFAULT_SEED`] and
/// [`Scale::BENCH`]. Re-pin only with a change that is meant to alter
/// simulated results, and say so in that change.
pub const PINNED: [(Workload, u64); 2] = [
    (Workload::Jbb8Fig10, 0x6f28_966f_2f11_5507),
    (Workload::Ecperf8Sampled, 0xfe33_99a9_5b6f_21aa),
];

/// The digest of the sweep batch's job counters at [`DEFAULT_SEED`] and
/// [`Scale::BENCH`].
pub const PINNED_SWEEP: u64 = 0x5f78_93db_fcfa_b397;

/// FNV-1a over every `(name, value)` pair, in order.
pub fn digest_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (name, value) in pairs {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&value.to_le_bytes());
    }
    h
}

/// The digest of a run's end-of-run snapshots, in job order.
pub fn digest(snapshots: &[Snapshot]) -> u64 {
    digest_pairs(
        snapshots
            .iter()
            .flat_map(|s| s.iter().map(|(name, _, value)| (name, value))),
    )
}

/// The pinned digest for `workload`, when `seed` and `scale` are the
/// pinned ones.
pub fn pinned(workload: Workload, seed: u64, scale: Scale) -> Option<u64> {
    if seed != DEFAULT_SEED || scale != Scale::BENCH {
        return None;
    }
    PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d)
}

/// The pinned sweep digest, when `seed` and `scale` are the pinned ones.
pub fn pinned_sweep(seed: u64, scale: Scale) -> Option<u64> {
    (seed == DEFAULT_SEED && scale == Scale::BENCH).then_some(PINNED_SWEEP)
}

/// Compares a run's digest with the pinned one and with the digest the
/// run's first iteration produced; returns one message per mismatch.
pub fn check_digest(got: u64, first: u64, pinned: Option<u64>) -> Vec<String> {
    let mut failures = Vec::new();
    if got != first {
        failures.push(format!(
            "counter digest {got:016x} differs from the first iteration's {first:016x}: \
             the same seed simulated differently"
        ));
    }
    if let Some(p) = pinned {
        if got != p {
            failures.push(format!(
                "counter digest {got:016x} differs from the pinned {p:016x}: a simulated \
                 statistic changed"
            ));
        }
    }
    failures
}
