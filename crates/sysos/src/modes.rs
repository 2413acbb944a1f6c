//! `mpstat`-style execution-mode accounting.
//!
//! The paper's Figure 5 decomposes wall-clock time per processor into the
//! modes reported by Solaris's `mpstat` — user, system, I/O wait and idle —
//! plus an estimated garbage-collection idle slice (idle time of the other
//! processors while the single-threaded collector runs). This module
//! accumulates cycles per processor per mode and renders the same
//! breakdown.

use std::fmt;

/// Execution modes, following the paper's Figure 5 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Running benchmark code.
    User,
    /// Running operating-system code (kernel networking, syscalls).
    System,
    /// Stalled on I/O.
    Io,
    /// Idle for other reasons (lock contention, no runnable thread).
    Idle,
    /// Idle because the single-threaded garbage collector has stopped the
    /// world on another processor.
    GcIdle,
}

/// All modes, in Figure 5's stacking order.
pub const ALL_MODES: [ExecMode; 5] = [
    ExecMode::User,
    ExecMode::System,
    ExecMode::Io,
    ExecMode::Idle,
    ExecMode::GcIdle,
];

impl ExecMode {
    fn index(self) -> usize {
        match self {
            ExecMode::User => 0,
            ExecMode::System => 1,
            ExecMode::Io => 2,
            ExecMode::Idle => 3,
            ExecMode::GcIdle => 4,
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecMode::User => "user",
            ExecMode::System => "system",
            ExecMode::Io => "io",
            ExecMode::Idle => "idle",
            ExecMode::GcIdle => "gc-idle",
        };
        f.write_str(s)
    }
}

/// Per-processor mode-time accumulator.
#[derive(Debug, Clone)]
pub struct ModeAccount {
    per_cpu: Vec<[u64; 5]>,
}

impl ModeAccount {
    /// Creates an accumulator for `cpus` processors.
    pub fn new(cpus: usize) -> Self {
        ModeAccount {
            per_cpu: vec![[0; 5]; cpus],
        }
    }

    /// Adds `cycles` of `mode` time on processor `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn add(&mut self, cpu: usize, mode: ExecMode, cycles: u64) {
        self.per_cpu[cpu][mode.index()] += cycles;
    }

    /// Cycles of `mode` on `cpu`.
    pub fn get(&self, cpu: usize, mode: ExecMode) -> u64 {
        self.per_cpu[cpu][mode.index()]
    }

    /// Total cycles of `mode` across all processors.
    pub fn total(&self, mode: ExecMode) -> u64 {
        self.per_cpu.iter().map(|m| m[mode.index()]).sum()
    }

    /// All cycles across all processors and modes.
    pub(crate) fn grand_total(&self) -> u64 {
        self.per_cpu.iter().flatten().sum()
    }

    /// The mode breakdown as fractions of total time (Figure 5's bars).
    pub fn breakdown(&self) -> ModeBreakdown {
        let total = self.grand_total();
        let frac = |m: ExecMode| {
            if total == 0 {
                0.0
            } else {
                self.total(m) as f64 / total as f64
            }
        };
        ModeBreakdown {
            user: frac(ExecMode::User),
            system: frac(ExecMode::System),
            io: frac(ExecMode::Io),
            idle: frac(ExecMode::Idle),
            gc_idle: frac(ExecMode::GcIdle),
        }
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        for m in &mut self.per_cpu {
            *m = [0; 5];
        }
    }
}

/// Fractions of execution time per mode; sums to 1 when any time has been
/// recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeBreakdown {
    /// User fraction.
    pub user: f64,
    /// System (kernel) fraction.
    pub system: f64,
    /// I/O-wait fraction.
    pub io: f64,
    /// Idle fraction (excluding GC).
    pub idle: f64,
    /// GC-induced idle fraction.
    pub gc_idle: f64,
}

impl ModeBreakdown {
    /// Sum of all fractions (1.0 once populated, 0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.user + self.system + self.io + self.idle + self.gc_idle
    }

    /// Idle of all causes.
    pub fn total_idle(&self) -> f64 {
        self.idle + self.gc_idle
    }
}

impl fmt::Display for ModeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "user {:5.1}% | system {:5.1}% | io {:4.1}% | idle {:5.1}% | gc-idle {:4.1}%",
            self.user * 100.0,
            self.system * 100.0,
            self.io * 100.0,
            self.idle * 100.0,
            self.gc_idle * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut a = ModeAccount::new(2);
        a.add(0, ExecMode::User, 70);
        a.add(0, ExecMode::System, 10);
        a.add(1, ExecMode::Idle, 15);
        a.add(1, ExecMode::GcIdle, 5);
        let b = a.breakdown();
        assert!((b.sum() - 1.0).abs() < 1e-12);
        assert!((b.user - 0.7).abs() < 1e-12);
        assert!((b.total_idle() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_account_breaks_down_to_zero() {
        let a = ModeAccount::new(4);
        assert_eq!(a.breakdown().sum(), 0.0);
        assert_eq!(a.grand_total(), 0);
    }

    #[test]
    fn per_cpu_attribution() {
        let mut a = ModeAccount::new(2);
        a.add(1, ExecMode::System, 42);
        assert_eq!(a.get(1, ExecMode::System), 42);
        assert_eq!(a.get(0, ExecMode::System), 0);
        assert_eq!(a.total(ExecMode::System), 42);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut a = ModeAccount::new(1);
        a.add(0, ExecMode::Io, 7);
        a.reset();
        assert_eq!(a.grand_total(), 0);
    }

    #[test]
    fn display_is_mpstat_like() {
        let mut a = ModeAccount::new(1);
        a.add(0, ExecMode::User, 50);
        a.add(0, ExecMode::Idle, 50);
        let s = a.breakdown().to_string();
        assert!(s.contains("user"));
        assert!(s.contains("50.0%"));
    }
}
