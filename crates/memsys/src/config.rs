//! Configuration for caches and cache hierarchies.

use std::fmt;

use crate::addr::LINE_BYTES;

/// Errors produced when validating a cache or hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A numeric parameter must be a power of two but was not.
    NotPowerOfTwo {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The cache capacity is not divisible into `ways * block_bytes` sets.
    Indivisible {
        /// Total capacity in bytes.
        capacity: u64,
        /// Associativity.
        ways: u32,
        /// Block size in bytes.
        block: u64,
    },
    /// The geometry leaves a 32-bit address's tag wider than a cache way
    /// word holds: block and set index together must take at least
    /// three address bits.
    TagTooWide {
        /// Block size in bytes.
        block: u64,
        /// Number of sets.
        sets: u64,
    },
    /// The processor count is not divisible by the sharing degree.
    BadSharing {
        /// Number of processors.
        cpus: usize,
        /// Processors per shared L2.
        per_cache: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::Indivisible {
                capacity,
                ways,
                block,
            } => write!(
                f,
                "capacity {capacity} B is not divisible by ways ({ways}) x block ({block} B)"
            ),
            ConfigError::TagTooWide { block, sets } => write!(
                f,
                "{block} B blocks in {sets} set(s) leave 32-bit address tags too wide for a way word"
            ),
            ConfigError::BadSharing { cpus, per_cache } => write!(
                f,
                "cpu count {cpus} is not divisible by processors-per-cache {per_cache}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of one set-associative cache.
///
/// The default corresponds to the paper's simulated configuration:
/// 4-way set-associative with 64-byte blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Block (line) size in bytes.
    pub block: u64,
}

impl CacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is not a power of two or the
    /// capacity does not divide evenly into sets.
    pub fn new(capacity: u64, ways: u32, block: u64) -> Result<Self, ConfigError> {
        let cfg = CacheConfig {
            capacity,
            ways,
            block,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for (what, value) in [
            ("capacity", self.capacity),
            ("ways", self.ways as u64),
            ("block size", self.block),
        ] {
            if !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { what, value });
            }
        }
        let set_bytes = self.ways as u64 * self.block;
        if !self.capacity.is_multiple_of(set_bytes) || self.capacity < set_bytes {
            return Err(ConfigError::Indivisible {
                capacity: self.capacity,
                ways: self.ways,
                block: self.block,
            });
        }
        if (self.capacity / set_bytes) == 0 {
            return Err(ConfigError::Indivisible {
                capacity: self.capacity,
                ways: self.ways,
                block: self.block,
            });
        }
        if self.block_bits() + self.sets().trailing_zeros() < crate::cache::STATE_BITS {
            return Err(ConfigError::TagTooWide {
                block: self.block,
                sets: self.sets(),
            });
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.ways as u64 * self.block)
    }

    /// Log2 of the block size.
    pub fn block_bits(&self) -> u32 {
        self.block.trailing_zeros()
    }
}

impl Default for CacheConfig {
    /// The paper's baseline L2: 1 MB, 4-way, 64-byte blocks.
    fn default() -> Self {
        CacheConfig {
            capacity: 1 << 20,
            ways: 4,
            block: LINE_BYTES,
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity;
        if cap >= 1 << 20 && cap.is_multiple_of(1 << 20) {
            write!(f, "{}MB/{}way/{}B", cap >> 20, self.ways, self.block)
        } else {
            write!(f, "{}KB/{}way/{}B", cap >> 10, self.ways, self.block)
        }
    }
}

/// Selects the banked-DRAM memory backend.
///
/// Its timing (channels, banks, row size, queue depth and latencies) is
/// a set of constants in the backend, because no experiment varies it.
/// The type stays, without fields, because the `hostbench` package
/// builds `MemoryConfig::BankedDram(DramConfig)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DramConfig;

/// Which memory backend sits below the L2s, and its parameters.
///
/// The default is the original flat model with the latency owned by the
/// CPU side (`simcpu::LatencyTable`), which keeps this crate
/// latency-agnostic and is bit-identical to the pre-backend behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryConfig {
    /// Constant-latency memory. `None` defers the cost to the caller's
    /// latency table (the historical behavior); `Some(cycles)` makes the
    /// backend supply that constant with every fill.
    #[default]
    Flat,
    /// Flat memory that stamps every fill with an explicit constant
    /// cost, exercising the backend-supplied-latency path end to end.
    FlatFixed(u64),
    /// The banked-DRAM timing model.
    BankedDram(DramConfig),
}

/// Full hierarchy configuration for a multiprocessor memory system.
///
/// Models the E6000-style two-level hierarchy of the paper: per-processor
/// split L1 instruction/data caches, and L2 caches each shared by
/// `cpus_per_l2` processors (1 = private L2s, the paper's base case;
/// 2/4/8 reproduce the Figure 16 chip-multiprocessor topologies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of processors.
    pub cpus: usize,
    /// Per-processor L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-processor L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache (one per sharing group).
    pub l2: CacheConfig,
    /// How many processors share each L2 cache.
    pub cpus_per_l2: usize,
    /// The memory backend below the L2s.
    pub memory: MemoryConfig,
}

impl HierarchyConfig {
    /// E6000-like configuration: 16 KB L1I, 16 KB L1D, private 1 MB L2.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadSharing`] if `cpus == 0`.
    pub fn e6000(cpus: usize) -> Result<Self, ConfigError> {
        HierarchyConfig::builder(cpus).build()
    }

    /// Starts building a hierarchy for `cpus` processors with E6000-like
    /// defaults.
    pub fn builder(cpus: usize) -> HierarchyBuilder {
        HierarchyBuilder {
            cpus,
            l1i: CacheConfig::new(16 << 10, 2, LINE_BYTES).expect("static L1I config"),
            l1d: CacheConfig::new(16 << 10, 2, LINE_BYTES).expect("static L1D config"),
            l2: CacheConfig::default(),
            cpus_per_l2: 1,
            memory: MemoryConfig::default(),
        }
    }

    /// Number of L2 caches in the system.
    pub fn l2_count(&self) -> usize {
        self.cpus / self.cpus_per_l2
    }

    /// The L2 group (cache index) serving processor `cpu`.
    pub fn l2_group(&self, cpu: usize) -> usize {
        cpu / self.cpus_per_l2
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.cpus == 0 || self.cpus_per_l2 == 0 || !self.cpus.is_multiple_of(self.cpus_per_l2) {
            return Err(ConfigError::BadSharing {
                cpus: self.cpus,
                per_cache: self.cpus_per_l2,
            });
        }
        Ok(())
    }
}

/// Builder for [`HierarchyConfig`].
#[derive(Debug, Clone)]
pub struct HierarchyBuilder {
    cpus: usize,
    l1i: CacheConfig,
    l1d: CacheConfig,
    l2: CacheConfig,
    cpus_per_l2: usize,
    memory: MemoryConfig,
}

impl HierarchyBuilder {
    /// Sets the L1 instruction-cache configuration.
    pub fn l1i(&mut self, cfg: CacheConfig) -> &mut Self {
        self.l1i = cfg;
        self
    }

    /// Sets the L1 data-cache configuration.
    pub fn l1d(&mut self, cfg: CacheConfig) -> &mut Self {
        self.l1d = cfg;
        self
    }

    /// Sets the L2 configuration.
    pub fn l2(&mut self, cfg: CacheConfig) -> &mut Self {
        self.l2 = cfg;
        self
    }

    /// Sets how many processors share each L2 (1 = private).
    pub fn cpus_per_l2(&mut self, n: usize) -> &mut Self {
        self.cpus_per_l2 = n;
        self
    }

    /// Selects the memory backend below the L2s.
    pub fn memory(&mut self, cfg: MemoryConfig) -> &mut Self {
        self.memory = cfg;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid sharing degrees.
    pub fn build(&self) -> Result<HierarchyConfig, ConfigError> {
        let cfg = HierarchyConfig {
            cpus: self.cpus,
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            cpus_per_l2: self.cpus_per_l2,
            memory: self.memory,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_has_expected_sets() {
        let c = CacheConfig::new(1 << 20, 4, 64).unwrap();
        assert_eq!(c.sets(), (1 << 20) / (4 * 64));
        assert_eq!(c.block_bits(), 6);
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert!(matches!(
            CacheConfig::new(3 << 10, 4, 64),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(1 << 20, 3, 64),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(1 << 20, 4, 48),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn capacity_smaller_than_one_set_rejected() {
        assert!(matches!(
            CacheConfig::new(128, 4, 64),
            Err(ConfigError::Indivisible { .. })
        ));
    }

    #[test]
    fn geometry_whose_tags_overflow_a_way_word_rejected() {
        // 1 B blocks in one set: a 32-bit address is all tag.
        assert_eq!(
            CacheConfig::new(4, 4, 1),
            Err(ConfigError::TagTooWide { block: 1, sets: 1 })
        );
        assert_eq!(
            CacheConfig::new(8, 2, 1),
            Err(ConfigError::TagTooWide { block: 1, sets: 4 })
        );
        // Three bits of block and index leave a 29-bit tag, which fits.
        assert!(CacheConfig::new(16, 2, 1).is_ok());
        assert!(CacheConfig::new(32, 4, 8).is_ok());
    }

    #[test]
    fn default_is_paper_l2() {
        let c = CacheConfig::default();
        assert_eq!(c.capacity, 1 << 20);
        assert_eq!(c.ways, 4);
        assert_eq!(c.block, 64);
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(CacheConfig::default().to_string(), "1MB/4way/64B");
        assert_eq!(
            CacheConfig::new(256 << 10, 4, 64).unwrap().to_string(),
            "256KB/4way/64B"
        );
    }

    #[test]
    fn hierarchy_sharing_groups() {
        let mut b = HierarchyConfig::builder(8);
        let cfg = b.cpus_per_l2(4).build().unwrap();
        assert_eq!(cfg.l2_count(), 2);
        assert_eq!(cfg.l2_group(0), 0);
        assert_eq!(cfg.l2_group(3), 0);
        assert_eq!(cfg.l2_group(4), 1);
        assert_eq!(cfg.l2_group(7), 1);
    }

    #[test]
    fn hierarchy_bad_sharing_rejected() {
        let mut b = HierarchyConfig::builder(8);
        assert!(b.cpus_per_l2(3).build().is_err());
        let b0 = HierarchyConfig::builder(0);
        assert!(b0.build().is_err());
    }

    #[test]
    fn default_memory_backend_is_flat() {
        let cfg = HierarchyConfig::e6000(2).unwrap();
        assert_eq!(cfg.memory, MemoryConfig::Flat);
    }
}
