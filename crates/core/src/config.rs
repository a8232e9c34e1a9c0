//! Simulation configuration.

use nvfs_types::{SimDuration, BLOCK_CLEANER_PERIOD, BLOCK_SIZE, DELAYED_WRITE_BACK};

/// Which client cache organization to simulate (§2.1, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheModelKind {
    /// A single volatile cache with Sprite's 30-second delayed write-back
    /// (the baseline; no NVRAM).
    Volatile,
    /// Volatile cache plus an NVRAM that shadows dirty blocks: data is
    /// written into both memories, the NVRAM is never read except after a
    /// crash, and there is no 30-second write-back.
    WriteAside,
    /// Volatile cache and NVRAM managed as one cache: dirty blocks live
    /// only in the NVRAM, clean blocks in either memory, and there is no
    /// 30-second write-back.
    Unified,
    /// The "even more closely integrated" model §2.6 sketches: writes land
    /// in the volatile cache (so the whole cache absorbs write bursts) and
    /// the 30-second write-back *moves* aged dirty blocks into the NVRAM
    /// instead of sending them to the server. Faster than unified for
    /// small NVRAMs, but dirty data is vulnerable for up to 30 seconds.
    Hybrid,
}

impl CacheModelKind {
    /// Whether the model includes an NVRAM component.
    pub const fn has_nvram(self) -> bool {
        !matches!(self, CacheModelKind::Volatile)
    }
}

/// Block replacement policy for the NVRAM (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Replace the least-recently accessed (or modified) block.
    #[default]
    Lru,
    /// Replace a uniformly random block (the paper's sensitivity check).
    Random {
        /// Seed for the deterministic random choice.
        seed: u64,
    },
    /// Replace the block whose next modification (overwrite, truncate or
    /// delete) lies furthest in the future. Requires an
    /// [`OmniscientSchedule`](crate::omniscient::OmniscientSchedule) built
    /// from the same op stream.
    Omniscient,
}

/// Granularity of the cache consistency protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsistencyMode {
    /// Sprite's protocol: opening a file last written by another client
    /// recalls *all* of that client's dirty data for the file (§2.1).
    #[default]
    WholeFile,
    /// The block-by-block protocol the paper points to for reducing
    /// callback traffic further (§2.3, citing \[21\]): dirty blocks are
    /// recalled lazily, only when another client actually reads them.
    BlockOnDemand,
}

/// Full configuration of a cluster simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cache organization.
    pub model: CacheModelKind,
    /// Per-client volatile cache size in bytes.
    pub volatile_bytes: u64,
    /// Per-client NVRAM size in bytes (ignored by the volatile model).
    pub nvram_bytes: u64,
    /// NVRAM block replacement policy.
    pub policy: PolicyKind,
    /// Volatile model only: prefer replacing clean blocks, as real Sprite
    /// does (the paper deliberately simplifies this away; kept as an
    /// ablation).
    pub dirty_preference: bool,
    /// Consistency protocol granularity.
    pub consistency: ConsistencyMode,
    /// Age at which the volatile model writes dirty data back (Sprite: 30 s).
    pub write_back_delay: SimDuration,
    /// Period of the block cleaner sweep (Sprite: 5 s).
    pub cleaner_period: SimDuration,
}

impl SimConfig {
    /// Baseline volatile-cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if `volatile_bytes` is smaller than one 4 KB block.
    pub fn volatile(volatile_bytes: u64) -> Self {
        assert!(
            volatile_bytes >= BLOCK_SIZE,
            "cache must hold at least one block"
        );
        SimConfig {
            model: CacheModelKind::Volatile,
            volatile_bytes,
            nvram_bytes: 0,
            policy: PolicyKind::Lru,
            dirty_preference: false,
            consistency: ConsistencyMode::WholeFile,
            write_back_delay: DELAYED_WRITE_BACK,
            cleaner_period: BLOCK_CLEANER_PERIOD,
        }
    }

    /// Write-aside NVRAM configuration.
    ///
    /// # Panics
    ///
    /// Panics if either memory is smaller than one 4 KB block.
    pub fn write_aside(volatile_bytes: u64, nvram_bytes: u64) -> Self {
        assert!(
            volatile_bytes >= BLOCK_SIZE,
            "cache must hold at least one block"
        );
        assert!(
            nvram_bytes >= BLOCK_SIZE,
            "NVRAM must hold at least one block"
        );
        SimConfig {
            model: CacheModelKind::WriteAside,
            volatile_bytes,
            nvram_bytes,
            ..SimConfig::volatile(volatile_bytes)
        }
    }

    /// Unified NVRAM configuration.
    ///
    /// # Panics
    ///
    /// Panics if either memory is smaller than one 4 KB block.
    pub fn unified(volatile_bytes: u64, nvram_bytes: u64) -> Self {
        assert!(
            volatile_bytes >= BLOCK_SIZE,
            "cache must hold at least one block"
        );
        assert!(
            nvram_bytes >= BLOCK_SIZE,
            "NVRAM must hold at least one block"
        );
        SimConfig {
            model: CacheModelKind::Unified,
            volatile_bytes,
            nvram_bytes,
            ..SimConfig::volatile(volatile_bytes)
        }
    }

    /// Hybrid (§2.6 sketch) configuration: volatile-style writes whose aged
    /// dirty blocks migrate into NVRAM instead of going to the server.
    ///
    /// # Panics
    ///
    /// Panics if either memory is smaller than one 4 KB block.
    pub fn hybrid(volatile_bytes: u64, nvram_bytes: u64) -> Self {
        assert!(
            volatile_bytes >= BLOCK_SIZE,
            "cache must hold at least one block"
        );
        assert!(
            nvram_bytes >= BLOCK_SIZE,
            "NVRAM must hold at least one block"
        );
        SimConfig {
            model: CacheModelKind::Hybrid,
            volatile_bytes,
            nvram_bytes,
            ..SimConfig::volatile(volatile_bytes)
        }
    }

    /// The configuration of cache model `model` with the given memories;
    /// the volatile model ignores `nvram_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if a memory the model uses is smaller than one 4 KB block.
    pub fn for_model(model: CacheModelKind, volatile_bytes: u64, nvram_bytes: u64) -> Self {
        match model {
            CacheModelKind::Volatile => SimConfig::volatile(volatile_bytes),
            CacheModelKind::WriteAside => SimConfig::write_aside(volatile_bytes, nvram_bytes),
            CacheModelKind::Unified => SimConfig::unified(volatile_bytes, nvram_bytes),
            CacheModelKind::Hybrid => SimConfig::hybrid(volatile_bytes, nvram_bytes),
        }
    }

    /// Enables Sprite's dirty-block replacement preference (builder style).
    pub fn with_dirty_preference(mut self) -> Self {
        self.dirty_preference = true;
        self
    }

    /// Selects the consistency protocol granularity (builder style).
    pub fn with_consistency(mut self, mode: ConsistencyMode) -> Self {
        self.consistency = mode;
        self
    }

    /// Replaces the NVRAM replacement policy (builder style).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Volatile cache capacity in whole blocks.
    pub fn volatile_blocks(&self) -> usize {
        (self.volatile_bytes / BLOCK_SIZE) as usize
    }

    /// NVRAM capacity in whole blocks.
    pub fn nvram_blocks(&self) -> usize {
        (self.nvram_bytes / BLOCK_SIZE) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_model() {
        assert_eq!(SimConfig::volatile(1 << 20).model, CacheModelKind::Volatile);
        assert_eq!(
            SimConfig::write_aside(1 << 20, 1 << 20).model,
            CacheModelKind::WriteAside
        );
        assert_eq!(
            SimConfig::unified(1 << 20, 1 << 20).model,
            CacheModelKind::Unified
        );
    }

    #[test]
    fn block_capacity_math() {
        let c = SimConfig::unified(8 << 20, 1 << 20);
        assert_eq!(c.volatile_blocks(), 2048);
        assert_eq!(c.nvram_blocks(), 256);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn tiny_cache_rejected() {
        let _ = SimConfig::volatile(1024);
    }

    #[test]
    fn nvram_presence() {
        assert!(!CacheModelKind::Volatile.has_nvram());
        assert!(CacheModelKind::WriteAside.has_nvram());
        assert!(CacheModelKind::Unified.has_nvram());
        assert!(CacheModelKind::Hybrid.has_nvram());
    }

    #[test]
    fn hybrid_constructor_and_dirty_preference() {
        let c = SimConfig::hybrid(1 << 20, 1 << 20);
        assert_eq!(c.model, CacheModelKind::Hybrid);
        assert!(!c.dirty_preference);
        let v = SimConfig::volatile(1 << 20).with_dirty_preference();
        assert!(v.dirty_preference);
    }

    #[test]
    fn policy_builder() {
        let c = SimConfig::unified(1 << 20, 1 << 20).with_policy(PolicyKind::Random { seed: 3 });
        assert_eq!(c.policy, PolicyKind::Random { seed: 3 });
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
    }
}
