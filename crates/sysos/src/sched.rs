//! Processor sets.
//!
//! The paper binds the benchmark to a subset of the E6000's sixteen
//! processors with Solaris's `psrset` (Section 3): the application may only
//! run inside the set, other processes are kept out of it, and the
//! operating system still runs everywhere (which is why Figure 8 shows
//! cache-to-cache transfers even at "1 processor"). [`ProcessorSet`]
//! models the binding.

/// A `psrset`-style binding: the processors the workload may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorSet {
    cpus: Vec<usize>,
}

impl ProcessorSet {
    /// Binds the workload to the first `bound` of `machine_cpus`
    /// processors (how the paper scales from 1 to 15 on the 16-way E6000).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero or exceeds `machine_cpus`.
    pub fn first_n(bound: usize, machine_cpus: usize) -> Self {
        assert!(
            bound > 0 && bound <= machine_cpus,
            "processor set of {bound} cpus on a {machine_cpus}-cpu machine"
        );
        ProcessorSet {
            cpus: (0..bound).collect(),
        }
    }

    /// The processors in the set.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_binds_prefix() {
        let p = ProcessorSet::first_n(4, 16);
        assert_eq!(p.cpus(), [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "processor set")]
    fn oversubscribed_set_panics() {
        let _ = ProcessorSet::first_n(17, 16);
    }

    #[test]
    #[should_panic(expected = "processor set")]
    fn empty_set_panics() {
        let _ = ProcessorSet::first_n(0, 16);
    }
}
