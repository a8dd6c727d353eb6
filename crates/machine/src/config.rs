//! Architectural parameters (the paper's Table 3).

use crate::protocol::Protocol;
use std::fmt;

/// Errors from building an [`ArchConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size parameter must be a power of two.
    NotPowerOfTwo {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: u64,
    },
    /// The cache must hold at least one line.
    CacheTooSmall {
        /// Cache size requested.
        cache: u64,
        /// Line size requested.
        line: u64,
    },
    /// `cache_size / line_size / associativity` does not divide exactly:
    /// the truncated quotient would silently drop part of the cache.
    InexactGeometry {
        /// Cache size requested.
        cache: u64,
        /// Line size requested.
        line: u64,
        /// Associativity requested.
        ways: u32,
    },
    /// The geometry yields zero cache sets.
    ZeroSets {
        /// Cache size requested.
        cache: u64,
        /// Line size requested.
        line: u64,
        /// Associativity requested.
        ways: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::CacheTooSmall { cache, line } => {
                write!(f, "cache of {cache} bytes cannot hold a {line}-byte line")
            }
            ConfigError::InexactGeometry { cache, line, ways } => {
                write!(
                    f,
                    "cache geometry {cache} B / {line} B lines / {ways} ways does not divide \
                     exactly (the truncated set count would drop part of the cache)"
                )
            }
            ConfigError::ZeroSets { cache, line, ways } => {
                write!(
                    f,
                    "cache geometry {cache} B / {line} B lines / {ways} ways yields zero sets"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Architectural inputs to the simulator (paper Table 3).
///
/// The paper's values: 1-cycle cache hit, 50-cycle memory latency
/// (an Alewife-like moderately loaded multipath network), 6-cycle
/// context switch (pipeline drain), direct-mapped caches of 32 KB or
/// 64 KB (8 MB ≈ infinite), round-robin switch-on-miss scheduling and a
/// distributed directory-based invalidation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchConfig {
    cache_size: u64,
    line_size: u64,
    associativity: u32,
    memory_latency: u64,
    memory_occupancy: u64,
    context_switch: u64,
    upgrade_stalls: bool,
    protocol: Protocol,
}

impl ArchConfig {
    /// The paper's default configuration with a 64 KB cache (used by the
    /// medium-grain suite; coarse-grain apps plus Health and FFT use
    /// [`ArchConfig::with_cache_size`] at 32 KB).
    pub fn paper_default() -> Self {
        ArchConfig {
            cache_size: 64 * 1024,
            line_size: 32,
            associativity: 1,
            memory_latency: 50,
            memory_occupancy: 0,
            context_switch: 6,
            upgrade_stalls: false,
            protocol: Protocol::Wi,
        }
    }

    /// The paper's "effectively infinite" configuration: an 8 MB cache
    /// that eliminates capacity and conflict misses (§4.3).
    pub fn infinite_cache() -> Self {
        ArchConfig {
            cache_size: 8 * 1024 * 1024,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different cache size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `bytes` is not a power of two or is
    /// smaller than the line size.
    pub fn with_cache_size(self, bytes: u64) -> Result<Self, ConfigError> {
        ArchConfigBuilder::from(self).cache_size(bytes).build()
    }

    /// Returns a copy simulating a different coherence protocol. The
    /// protocol does not participate in geometry validation, so this
    /// cannot fail.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> ArchConfigBuilder {
        ArchConfigBuilder::from(Self::paper_default())
    }

    /// Cache size in bytes.
    pub fn cache_size(&self) -> u64 {
        self.cache_size
    }

    /// Cache line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of cache sets (`cache_size / line_size / associativity`).
    ///
    /// The division is exact by construction: [`ArchConfigBuilder::build`]
    /// rejects inexact or zero-set geometry
    /// ([`ConfigError::InexactGeometry`] / [`ConfigError::ZeroSets`]), so
    /// this can no longer silently truncate.
    pub fn num_sets(&self) -> u64 {
        debug_assert_eq!(
            self.cache_size % (self.line_size * u64::from(self.associativity)),
            0,
            "validated config has exact geometry"
        );
        self.cache_size / self.line_size / u64::from(self.associativity)
    }

    /// Validates this configuration's cache geometry and returns the set
    /// count. [`ArchConfigBuilder::build`] enforces this, so a built
    /// config always passes; the check exists for values constructed by
    /// deserialization or future non-builder paths.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InexactGeometry`] if
    /// `cache_size / line_size / associativity` does not divide exactly
    /// (the pre-fix code silently truncated here), or
    /// [`ConfigError::ZeroSets`] if the quotient is zero.
    pub fn check_geometry(&self) -> Result<u64, ConfigError> {
        check_geometry(self.cache_size, self.line_size, self.associativity)
    }

    /// The coherence protocol the machine runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Cache associativity: 1 (direct-mapped, the paper's configuration)
    /// unless overridden for the set-associativity ablation the paper
    /// suggests in §4.1.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Remote memory latency in cycles.
    pub fn memory_latency(&self) -> u64 {
        self.memory_latency
    }

    /// Cycles the (single) memory channel is occupied per line fill.
    /// The paper's multipath network is contention-free (§3.2), so the
    /// default is 0; nonzero values serialize concurrent misses and model
    /// a bandwidth-limited interconnect (ablation).
    pub fn memory_occupancy(&self) -> u64 {
        self.memory_occupancy
    }

    /// Context-switch (pipeline drain) cost in cycles.
    pub fn context_switch(&self) -> u64 {
        self.context_switch
    }

    /// Whether a write hit that must invalidate remote sharers stalls the
    /// writer for the memory latency (ablation; the paper's accounting
    /// treats invalidations as fire-and-forget, so the default is
    /// `false`).
    pub fn upgrade_stalls(&self) -> bool {
        self.upgrade_stalls
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The geometry validation behind [`ArchConfig::check_geometry`] and
/// [`ArchConfigBuilder::build`].
fn check_geometry(cache: u64, line: u64, ways: u32) -> Result<u64, ConfigError> {
    let span = line.saturating_mul(u64::from(ways));
    if span == 0 || !cache.is_multiple_of(span) {
        return Err(ConfigError::InexactGeometry { cache, line, ways });
    }
    let sets = cache / span;
    if sets == 0 {
        return Err(ConfigError::ZeroSets { cache, line, ways });
    }
    Ok(sets)
}

/// Builder for [`ArchConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ArchConfigBuilder {
    cache_size: u64,
    line_size: u64,
    associativity: u32,
    memory_latency: u64,
    memory_occupancy: u64,
    context_switch: u64,
    upgrade_stalls: bool,
    protocol: Protocol,
}

impl From<ArchConfig> for ArchConfigBuilder {
    fn from(c: ArchConfig) -> Self {
        ArchConfigBuilder {
            cache_size: c.cache_size,
            line_size: c.line_size,
            associativity: c.associativity,
            memory_latency: c.memory_latency,
            memory_occupancy: c.memory_occupancy,
            context_switch: c.context_switch,
            upgrade_stalls: c.upgrade_stalls,
            protocol: c.protocol,
        }
    }
}

impl ArchConfigBuilder {
    /// Sets the cache size in bytes (power of two).
    pub fn cache_size(&mut self, bytes: u64) -> &mut Self {
        self.cache_size = bytes;
        self
    }

    /// Sets the line size in bytes (power of two).
    pub fn line_size(&mut self, bytes: u64) -> &mut Self {
        self.line_size = bytes;
        self
    }

    /// Sets the cache associativity (power of two; 1 = direct-mapped).
    pub fn associativity(&mut self, ways: u32) -> &mut Self {
        self.associativity = ways;
        self
    }

    /// Sets the remote memory latency in cycles.
    pub fn memory_latency(&mut self, cycles: u64) -> &mut Self {
        self.memory_latency = cycles;
        self
    }

    /// Sets the memory-channel occupancy per fill (0 = contention-free).
    pub fn memory_occupancy(&mut self, cycles: u64) -> &mut Self {
        self.memory_occupancy = cycles;
        self
    }

    /// Sets the context-switch cost in cycles.
    pub fn context_switch(&mut self, cycles: u64) -> &mut Self {
        self.context_switch = cycles;
        self
    }

    /// Enables or disables write-upgrade stalling.
    pub fn upgrade_stalls(&mut self, on: bool) -> &mut Self {
        self.upgrade_stalls = on;
        self
    }

    /// Sets the coherence protocol.
    pub fn protocol(&mut self, protocol: Protocol) -> &mut Self {
        self.protocol = protocol;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a size is not a power of two, the
    /// cache cannot hold one line, or the set-count division
    /// `cache_size / line_size / associativity` is inexact or zero
    /// (which [`ArchConfig::num_sets`] would previously have silently
    /// truncated).
    pub fn build(&self) -> Result<ArchConfig, ConfigError> {
        if !self.cache_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: self.cache_size,
            });
        }
        if !self.line_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: self.line_size,
            });
        }
        if !u64::from(self.associativity).is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                value: u64::from(self.associativity),
            });
        }
        if self.cache_size < self.line_size * u64::from(self.associativity) {
            return Err(ConfigError::CacheTooSmall {
                cache: self.cache_size,
                line: self.line_size,
            });
        }
        check_geometry(self.cache_size, self.line_size, self.associativity)?;
        Ok(ArchConfig {
            cache_size: self.cache_size,
            line_size: self.line_size,
            associativity: self.associativity,
            memory_latency: self.memory_latency,
            memory_occupancy: self.memory_occupancy,
            context_switch: self.context_switch,
            upgrade_stalls: self.upgrade_stalls,
            protocol: self.protocol,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = ArchConfig::paper_default();
        assert_eq!(c.cache_size(), 65536);
        assert_eq!(c.line_size(), 32);
        assert_eq!(c.num_sets(), 2048);
        assert_eq!(c.associativity(), 1);
        assert_eq!(c.memory_latency(), 50);
        assert_eq!(c.context_switch(), 6);
        assert!(!c.upgrade_stalls());
        assert_eq!(c.memory_occupancy(), 0);
        assert_eq!(ArchConfig::default(), c);
    }

    #[test]
    fn infinite_cache_is_8mb() {
        let c = ArchConfig::infinite_cache();
        assert_eq!(c.cache_size(), 8 * 1024 * 1024);
        assert_eq!(c.num_sets(), 262_144);
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            ArchConfig::builder().cache_size(1000).build(),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            ArchConfig::builder().line_size(24).build(),
            Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            ArchConfig::builder().cache_size(16).line_size(32).build(),
            Err(ConfigError::CacheTooSmall { .. })
        ));
        let ok = ArchConfig::builder()
            .cache_size(32 * 1024)
            .memory_latency(100)
            .context_switch(2)
            .upgrade_stalls(true)
            .build()
            .unwrap();
        assert_eq!(ok.cache_size(), 32 * 1024);
        assert_eq!(ok.memory_latency(), 100);
        assert_eq!(ok.context_switch(), 2);
        assert!(ok.upgrade_stalls());
    }

    #[test]
    fn memory_occupancy_builder() {
        let c = ArchConfig::builder().memory_occupancy(4).build().unwrap();
        assert_eq!(c.memory_occupancy(), 4);
    }

    #[test]
    fn associativity_validated_and_applied() {
        let c = ArchConfig::builder().associativity(4).build().unwrap();
        assert_eq!(c.associativity(), 4);
        assert_eq!(c.num_sets(), 64 * 1024 / 32 / 4);
        assert!(matches!(
            ArchConfig::builder().associativity(3).build(),
            Err(ConfigError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        // A fully associative demand that exceeds the cache is rejected.
        assert!(matches!(
            ArchConfig::builder()
                .cache_size(64)
                .associativity(4)
                .build(),
            Err(ConfigError::CacheTooSmall { .. })
        ));
    }

    #[test]
    fn with_cache_size_shortcut() {
        let c = ArchConfig::paper_default()
            .with_cache_size(32 * 1024)
            .unwrap();
        assert_eq!(c.cache_size(), 32 * 1024);
        assert!(ArchConfig::paper_default().with_cache_size(31).is_err());
    }

    #[test]
    fn error_display() {
        let e = ConfigError::NotPowerOfTwo {
            what: "cache size",
            value: 7,
        };
        assert!(e.to_string().contains("power of two"));
        let e = ConfigError::CacheTooSmall {
            cache: 16,
            line: 32,
        };
        assert!(e.to_string().contains("cannot hold"));
        let e = ConfigError::InexactGeometry {
            cache: 1000,
            line: 48,
            ways: 3,
        };
        assert!(e.to_string().contains("does not divide"));
        let e = ConfigError::ZeroSets {
            cache: 0,
            line: 32,
            ways: 1,
        };
        assert!(e.to_string().contains("zero sets"));
    }

    #[test]
    fn protocol_defaults_to_write_invalidate_and_builds() {
        assert_eq!(ArchConfig::paper_default().protocol(), Protocol::Wi);
        let c = ArchConfig::builder()
            .protocol(Protocol::Dragon)
            .build()
            .unwrap();
        assert_eq!(c.protocol(), Protocol::Dragon);
        // Protocol selection is orthogonal to geometry.
        assert_eq!(c.num_sets(), ArchConfig::paper_default().num_sets());
        let m = ArchConfigBuilder::from(c).protocol(Protocol::Mesi).build();
        assert_eq!(m.unwrap().protocol(), Protocol::Mesi);
    }

    /// Regression: these geometries used to flow straight into
    /// `num_sets`'s truncating division. `ArchConfig { cache_size: 1000,
    /// line_size: 48, associativity: 3, .. }` would have reported
    /// `1000 / 48 / 3 = 6` sets, silently modeling a 864-byte cache.
    /// Every non-builder construction path must now be caught by
    /// `check_geometry`.
    #[test]
    fn inexact_geometry_rejected_not_truncated() {
        let truncating = ArchConfig {
            cache_size: 1000,
            line_size: 48,
            associativity: 3,
            ..ArchConfig::paper_default()
        };
        assert_eq!(
            truncating.check_geometry(),
            Err(ConfigError::InexactGeometry {
                cache: 1000,
                line: 48,
                ways: 3,
            })
        );
        // 2^7 lines over 3 ways: pow2 everywhere except the way count,
        // the exact shape the old code truncated to 42 sets.
        let uneven_ways = ArchConfig {
            cache_size: 4096,
            line_size: 32,
            associativity: 3,
            ..ArchConfig::paper_default()
        };
        assert_eq!(
            uneven_ways.check_geometry(),
            Err(ConfigError::InexactGeometry {
                cache: 4096,
                line: 32,
                ways: 3,
            })
        );
        // A zeroed cache yields zero sets instead of the old `0 / n = 0`
        // silently flowing into the cache constructor's pow2 assert.
        let zeroed = ArchConfig {
            cache_size: 0,
            ..ArchConfig::paper_default()
        };
        assert!(matches!(
            zeroed.check_geometry(),
            Err(ConfigError::ZeroSets { cache: 0, .. })
        ));
        // A zero line size can no longer divide-by-zero or truncate.
        let zero_line = ArchConfig {
            line_size: 0,
            ..ArchConfig::paper_default()
        };
        assert!(matches!(
            zero_line.check_geometry(),
            Err(ConfigError::InexactGeometry { line: 0, .. })
        ));
        // Valid geometry reports the exact set count.
        assert_eq!(ArchConfig::paper_default().check_geometry(), Ok(2048));
    }

    /// `build()` enforces the same geometry law, so configurations that
    /// reach an engine always have an exact set count.
    #[test]
    fn build_enforces_exact_geometry() {
        // Power-of-two inputs large enough to hold a line always divide
        // exactly; sweep a sample to pin that build() and check_geometry
        // agree (no false rejections).
        for shift in 5..22 {
            let c = ArchConfig::builder().cache_size(1 << shift).build();
            match c {
                Ok(cfg) => assert_eq!(cfg.check_geometry().unwrap(), cfg.num_sets()),
                Err(e) => assert!(matches!(e, ConfigError::CacheTooSmall { .. })),
            }
        }
    }
}
