//! Cheap counting statistics over traces, plus mean/deviation helpers.
//!
//! The paper reports most program characteristics as a mean and a
//! *percentage deviation* (standard deviation as a percentage of the
//! mean); [`MeanDev`] captures that convention.

use crate::{ProgramTrace, ThreadTrace};

/// A sample mean together with its standard deviation, reported the way
/// the paper's Table 2 does: deviation as a percentage of the mean.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanDev {
    /// Arithmetic mean of the sample.
    pub mean: f64,
    /// Population standard deviation of the sample.
    pub std_dev: f64,
}

impl MeanDev {
    /// Computes mean and population standard deviation of `values`.
    ///
    /// Returns the zero statistic for an empty sample.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let values: Vec<f64> = values.into_iter().collect();
        if values.is_empty() {
            return MeanDev::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        MeanDev {
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Deviation as a percentage of the mean (the paper's "Dev(%)").
    ///
    /// Returns 0 when the mean is 0 to avoid dividing by zero.
    pub fn dev_percent(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }

    /// Absolute deviation: `std_dev * mean` is **not** what the paper
    /// means; it defines absolute deviation as the standard deviation
    /// itself (which "takes into account the size of the mean"). This is
    /// an alias making call sites read like the paper.
    pub fn abs_dev(&self) -> f64 {
        self.std_dev
    }
}

/// Per-thread length/recount statistics for a whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramStats {
    /// Number of threads.
    pub threads: usize,
    /// Thread length (instructions) statistics.
    pub thread_length: MeanDev,
    /// Data references per thread statistics.
    pub data_refs: MeanDev,
    /// Total references (instruction + data) across all threads.
    pub total_refs: u64,
    /// Total instructions across all threads.
    pub total_instrs: u64,
}

impl ProgramStats {
    /// Computes statistics over all threads of `prog`.
    pub fn measure(prog: &ProgramTrace) -> Self {
        ProgramStats {
            threads: prog.thread_count(),
            thread_length: MeanDev::from_values(
                prog.threads().iter().map(|t| t.instr_len() as f64),
            ),
            data_refs: MeanDev::from_values(prog.threads().iter().map(|t| t.data_len() as f64)),
            total_refs: prog.total_refs(),
            total_instrs: prog.total_instrs(),
        }
    }
}

/// Fraction of a thread's references that are data references.
pub fn data_ratio(thread: &ThreadTrace) -> f64 {
    if thread.is_empty() {
        0.0
    } else {
        thread.data_len() as f64 / thread.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, MemRef};

    #[test]
    fn mean_dev_basic() {
        let s = MeanDev::from_values([2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        // population std dev of {2,4,6} = sqrt(8/3)
        assert!((s.std_dev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.dev_percent() - 100.0 * (8.0f64 / 3.0).sqrt() / 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_dev_empty_and_zero_mean() {
        let s = MeanDev::from_values(std::iter::empty());
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.dev_percent(), 0.0);

        let z = MeanDev::from_values([0.0, 0.0]);
        assert_eq!(z.dev_percent(), 0.0);
    }

    #[test]
    fn program_stats() {
        let t0: ThreadTrace = [
            MemRef::instr(Address::new(0)),
            MemRef::instr(Address::new(4)),
            MemRef::read(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::instr(Address::new(8)),
            MemRef::write(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        let prog = ProgramTrace::new("p", vec![t0, t1]);
        let s = ProgramStats::measure(&prog);
        assert_eq!(s.threads, 2);
        assert_eq!(s.total_refs, 5);
        assert_eq!(s.total_instrs, 3);
        assert!((s.thread_length.mean - 1.5).abs() < 1e-12);
        assert!((s.data_refs.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn data_ratio_values() {
        let t: ThreadTrace = [
            MemRef::instr(Address::new(0)),
            MemRef::read(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        assert!((data_ratio(&t) - 0.5).abs() < 1e-12);
        assert_eq!(data_ratio(&ThreadTrace::new()), 0.0);
    }
}

#[cfg(test)]
mod abs_dev_tests {
    use super::*;

    #[test]
    fn abs_dev_is_the_standard_deviation() {
        // The paper's "absolute deviation" footnote: deviation that
        // "takes into account the size of the mean".
        let s = MeanDev::from_values([1.0, 3.0]);
        assert!((s.abs_dev() - 1.0).abs() < 1e-12);
        assert_eq!(s.abs_dev(), s.std_dev);
    }
}
