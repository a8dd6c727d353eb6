//! Application specifications: the target characteristics of each model.

/// A target mean with a percentage deviation, matching how the paper's
/// Table 2 reports program characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetStat {
    /// Target mean.
    pub mean: f64,
    /// Target standard deviation as a percentage of the mean.
    pub dev_percent: f64,
}

impl TargetStat {
    /// Convenience constructor.
    pub const fn new(mean: f64, dev_percent: f64) -> Self {
        TargetStat { mean, dev_percent }
    }

    /// The standard deviation in absolute units.
    pub fn std_dev(&self) -> f64 {
        self.mean * self.dev_percent / 100.0
    }
}

/// Workload granularity (paper §3.1): coarse-grain programs have fewer,
/// longer threads; medium-grain programs have more, shorter threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// SPLASH-style programs, millions of instructions per thread.
    Coarse,
    /// Presto programs, hundreds of thousands of instructions per thread.
    Medium,
}

/// The qualitative inter-thread sharing structure of an application.
///
/// Each variant reproduces a sharing style the paper describes, and all
/// of them share data *sequentially* (long same-thread access runs,
/// staggered across threads) — the property §4.2 identifies as the cause
/// of the tiny runtime coherence traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingPattern {
    /// Every thread draws from the same shared pool (e.g. Gauss, whose
    /// "threads all shared the same data"; Water/MP3D's uniform
    /// molecule/particle arrays). Produces very uniform pairwise sharing.
    UniformAllShare {
        /// Fraction of shared accesses that are writes.
        write_fraction: f64,
    },
    /// The shared pool is partitioned per thread; reads range over the
    /// whole pool but writes stay in the thread's own partition
    /// (Barnes-Hut: "processes read-share data during the long
    /// computation phase, and write once at the end of the phase").
    PartitionedReadShare {
        /// Fraction of a thread's shared accesses that are local-partition
        /// writes.
        write_fraction: f64,
    },
    /// Data migrates between threads in long write runs (FFT: "73% of all
    /// shared elements are migratory"). Threads sweep rotation-offset
    /// windows of the pool, each owning a region for a long stretch.
    Migratory {
        /// Fraction of accesses in a run that are writes.
        write_fraction: f64,
        /// Fraction of the thread's shared accesses drawn uniformly from
        /// the whole pool instead of its window (tunes how uniform the
        /// pairwise sharing looks; 1.0 degenerates to all-share).
        uniform_fraction: f64,
    },
    /// Each thread shares mostly with its index neighbors (spatial
    /// decompositions: Grav clustering, radiosity patches). Produces
    /// moderate pairwise-sharing deviation.
    NeighborExchange {
        /// Fraction of shared accesses that are writes.
        write_fraction: f64,
        /// How many neighbors on each side a thread overlaps with.
        reach: usize,
        /// Fraction of accesses drawn uniformly from the whole pool.
        uniform_fraction: f64,
    },
    /// Threads communicate pairwise with a few pseudo-random partners
    /// (Fullconn's random communication, Health's doctors/patients).
    /// Produces highly skewed pairwise sharing.
    RandomComm {
        /// Fraction of shared accesses that are writes.
        write_fraction: f64,
        /// Number of partner threads each thread communicates with.
        partners: usize,
        /// Fraction of accesses drawn uniformly from the whole pool.
        uniform_fraction: f64,
    },
}

impl SharingPattern {
    /// The write fraction of the pattern.
    pub fn write_fraction(&self) -> f64 {
        match *self {
            SharingPattern::UniformAllShare { write_fraction }
            | SharingPattern::PartitionedReadShare { write_fraction }
            | SharingPattern::Migratory { write_fraction, .. }
            | SharingPattern::NeighborExchange { write_fraction, .. }
            | SharingPattern::RandomComm { write_fraction, .. } => write_fraction,
        }
    }
}

/// Full specification of one synthetic application.
///
/// Numeric targets come from the paper's Table 2 ("simulated thread
/// length", "% shared refs", "references per shared address") and the
/// per-application prose; thread counts are not legible in the source
/// scan and are chosen to be consistent with the granularity description
/// (documented per app in [`crate::suite`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name, lowercase (e.g. `"locusroute"`).
    pub name: &'static str,
    /// Coarse or medium grain.
    pub granularity: Granularity,
    /// Number of threads.
    pub threads: usize,
    /// Thread length in *instructions* (mean + deviation), at scale 1.0.
    pub thread_length: TargetStat,
    /// Percentage (0–100) of data references that touch shared addresses.
    pub shared_percent: f64,
    /// Mean references per shared address (temporal locality).
    pub refs_per_shared_addr: f64,
    /// Data references per instruction.
    pub data_ratio: f64,
    /// Qualitative sharing structure.
    pub pattern: SharingPattern,
    /// Cache size in KB the paper simulates this app with (32 or 64).
    pub cache_kb: u64,
    /// Barrier-separated execution phases (≥ 1). The paper's coarse
    /// programs "use barriers to separate different phases of work";
    /// `phases - 1` global barriers are emitted per thread.
    pub phases: usize,
}

impl AppSpec {
    /// Expected total instructions at a given scale.
    pub fn expected_total_instructions(&self, scale: f64) -> f64 {
        self.thread_length.mean * scale * self.threads as f64
    }

    /// The cache size in bytes for this application (paper §3.2).
    pub fn cache_bytes(&self) -> u64 {
        self.cache_kb * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_stat_std_dev() {
        let s = TargetStat::new(200.0, 50.0);
        assert!((s.std_dev() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn write_fraction_accessor() {
        assert!(
            (SharingPattern::Migratory {
                write_fraction: 0.8,
                uniform_fraction: 0.2
            }
            .write_fraction()
                - 0.8)
                .abs()
                < 1e-12
        );
        assert!(
            (SharingPattern::NeighborExchange {
                write_fraction: 0.3,
                reach: 2,
                uniform_fraction: 0.5
            }
            .write_fraction()
                - 0.3)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn spec_helpers() {
        let spec = AppSpec {
            name: "x",
            granularity: Granularity::Medium,
            threads: 4,
            thread_length: TargetStat::new(1000.0, 10.0),
            shared_percent: 50.0,
            refs_per_shared_addr: 10.0,
            data_ratio: 0.3,
            pattern: SharingPattern::UniformAllShare {
                write_fraction: 0.2,
            },
            cache_kb: 64,
            phases: 1,
        };
        assert!((spec.expected_total_instructions(0.5) - 2000.0).abs() < 1e-9);
        assert_eq!(spec.cache_bytes(), 65536);
    }
}
