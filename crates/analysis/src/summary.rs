//! Table-2 style program characteristic summaries.

use crate::nway::{nway_stats, pairwise_stats};
use crate::sharing::SharingAnalysis;
use placesim_trace::stats::MeanDev;
use placesim_trace::{ProgramTrace, ThreadTrace};

/// One row of the paper's Table 2 ("Measured Characteristics"):
/// pairwise and N-way sharing, references per shared address, percentage
/// of shared references, and simulated thread length — each as a mean
/// with a percentage deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacteristicsRow {
    /// Application name.
    pub app: String,
    /// Number of threads.
    pub threads: usize,
    /// Pairwise shared references between thread pairs.
    pub pairwise_sharing: MeanDev,
    /// In-cluster shared references with the maximum threads/processor
    /// (clusters of ⌈t/2⌉ threads, i.e. two processors).
    pub nway_sharing: MeanDev,
    /// References per shared address, over threads.
    pub refs_per_shared_addr: MeanDev,
    /// Percentage of data references that touch shared addresses, over
    /// threads.
    pub shared_refs_percent: MeanDev,
    /// Thread length in instructions, over threads.
    pub thread_length: MeanDev,
}

impl CharacteristicsRow {
    /// Number of random balanced partitions sampled for the N-way column.
    pub const NWAY_SAMPLES: usize = 32;

    /// Measures every Table-2 characteristic of `prog`.
    ///
    /// `seed` controls the sampling of N-way clusters (deterministic per
    /// seed).
    pub fn measure(prog: &ProgramTrace, seed: u64) -> Self {
        let sharing = SharingAnalysis::measure(prog);
        Self::from_sharing(prog, &sharing, seed)
    }

    /// Same as [`CharacteristicsRow::measure`] but reuses a pre-computed
    /// sharing analysis.
    pub fn from_sharing(prog: &ProgramTrace, sharing: &SharingAnalysis, seed: u64) -> Self {
        Self::from_sharing_parts(
            prog.name(),
            prog.threads().iter().map(ThreadTrace::instr_len),
            sharing,
            seed,
        )
    }

    /// Builds the row from the raw parts a streaming reader can supply
    /// without materializing the trace: the application name, per-thread
    /// instruction counts (e.g. from the v4 footer totals), and a
    /// pre-computed sharing analysis. [`Self::from_sharing`] delegates
    /// here, so the two paths cannot diverge.
    pub fn from_sharing_parts(
        app: &str,
        instr_lengths: impl IntoIterator<Item = u64>,
        sharing: &SharingAnalysis,
        seed: u64,
    ) -> Self {
        let t = sharing.thread_count();
        let nway_cluster = t.div_ceil(2).max(1);
        CharacteristicsRow {
            app: app.to_owned(),
            threads: t,
            pairwise_sharing: pairwise_stats(sharing),
            nway_sharing: nway_stats(sharing, nway_cluster, Self::NWAY_SAMPLES, seed),
            refs_per_shared_addr: MeanDev::from_values(
                sharing
                    .per_thread()
                    .iter()
                    .map(|s| s.refs_per_shared_addr()),
            ),
            shared_refs_percent: MeanDev::from_values(
                sharing.per_thread().iter().map(|s| s.shared_percent()),
            ),
            thread_length: MeanDev::from_values(instr_lengths.into_iter().map(|n| n as f64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    fn prog() -> ProgramTrace {
        let mk = |instrs: usize, shared: usize, private: usize, base: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for i in 0..instrs {
                t.push(MemRef::instr(Address::new(4 * i as u64)));
            }
            for _ in 0..shared {
                t.push(MemRef::read(Address::new(0x10_0000)));
            }
            for i in 0..private {
                t.push(MemRef::write(Address::new(base + i as u64 * 8)));
            }
            t
        };
        ProgramTrace::new(
            "row",
            vec![
                mk(100, 4, 2, 0x20_0000),
                mk(200, 4, 2, 0x30_0000),
                mk(300, 4, 2, 0x40_0000),
            ],
        )
    }

    #[test]
    fn measures_all_columns() {
        let row = CharacteristicsRow::measure(&prog(), 1);
        assert_eq!(row.app, "row");
        assert_eq!(row.threads, 3);
        assert!((row.thread_length.mean - 200.0).abs() < 1e-9);
        assert!(row.thread_length.dev_percent() > 0.0);
        // Every thread: 4 shared refs of 6 data refs.
        assert!((row.shared_refs_percent.mean - 100.0 * 4.0 / 6.0).abs() < 1e-9);
        assert!(row.shared_refs_percent.std_dev < 1e-9);
        // One shared address with 4 refs per thread.
        assert!((row.refs_per_shared_addr.mean - 4.0).abs() < 1e-12);
        // Pairwise: 4 + 4 = 8 for each of the 3 pairs.
        assert!((row.pairwise_sharing.mean - 8.0).abs() < 1e-12);
        assert!(row.pairwise_sharing.std_dev < 1e-12);
        assert!(row.nway_sharing.mean > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CharacteristicsRow::measure(&prog(), 9);
        let b = CharacteristicsRow::measure(&prog(), 9);
        assert_eq!(a, b);
    }
}
