//! Validation of generated traces against their spec targets.
//!
//! Used by tests and by the Table 1/2 harness to confirm each synthetic
//! application actually exhibits the characteristics it was tuned for.

use crate::spec::AppSpec;
use placesim_trace::stats::MeanDev;
use placesim_trace::ProgramTrace;

/// How one measured quantity compares against its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    /// Target value from the spec.
    pub target: f64,
    /// Measured value from the generated trace.
    pub measured: f64,
    /// Allowed relative error (fraction, e.g. 0.15).
    pub tolerance: f64,
}

impl Check {
    /// Whether the measurement is within tolerance of the target.
    ///
    /// Uses relative error, falling back to absolute for near-zero
    /// targets.
    pub fn passes(&self) -> bool {
        if self.target.abs() < 1e-9 {
            self.measured.abs() <= self.tolerance
        } else {
            ((self.measured - self.target) / self.target).abs() <= self.tolerance
        }
    }
}

/// Validation report for one generated application.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Application name.
    pub app: String,
    /// Thread count matches the spec exactly.
    pub thread_count_ok: bool,
    /// Mean thread length vs. spec (tolerance 20%).
    pub thread_length_mean: Check,
    /// Percentage of shared data references vs. spec (tolerance 10%).
    pub shared_percent: Check,
    /// Data references per instruction vs. spec (tolerance 10%).
    pub data_ratio: Check,
}

impl ValidationReport {
    /// Measures `prog` against `spec`.
    pub fn measure(spec: &AppSpec, prog: &ProgramTrace, scale: f64) -> Self {
        let lengths = MeanDev::from_values(prog.threads().iter().map(|t| t.instr_len() as f64));

        let mut shared_refs = 0u64;
        let mut data_refs = 0u64;
        for thread in prog.threads() {
            for r in thread.iter() {
                if r.kind.is_data() {
                    data_refs += 1;
                    let a = r.addr.raw();
                    if (crate::gen_internals::SHARED_BASE..crate::gen_internals::PRIVATE_BASE)
                        .contains(&a)
                    {
                        shared_refs += 1;
                    }
                }
            }
        }
        let shared_pct = if data_refs == 0 {
            0.0
        } else {
            100.0 * shared_refs as f64 / data_refs as f64
        };
        let measured_ratio = if prog.total_instrs() == 0 {
            0.0
        } else {
            data_refs as f64 / prog.total_instrs() as f64
        };

        ValidationReport {
            app: spec.name.to_owned(),
            thread_count_ok: prog.thread_count() == spec.threads,
            thread_length_mean: Check {
                target: spec.thread_length.mean * scale,
                measured: lengths.mean,
                // The sample mean of t lognormal draws with coefficient
                // of variation cv itself has cv/√t relative noise; allow
                // three of those on top of the base tolerance.
                tolerance: 0.20
                    + 3.0 * (spec.thread_length.dev_percent / 100.0) / (spec.threads as f64).sqrt(),
            },
            shared_percent: Check {
                target: spec.shared_percent,
                measured: shared_pct,
                tolerance: 0.10,
            },
            data_ratio: Check {
                target: spec.data_ratio,
                measured: measured_ratio,
                tolerance: 0.10,
            },
        }
    }

    /// `true` if every check passes.
    pub fn all_ok(&self) -> bool {
        self.thread_count_ok
            && self.thread_length_mean.passes()
            && self.shared_percent.passes()
            && self.data_ratio.passes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenOptions};
    use crate::suite;

    #[test]
    fn check_relative_and_absolute() {
        assert!(Check {
            target: 100.0,
            measured: 108.0,
            tolerance: 0.10
        }
        .passes());
        assert!(!Check {
            target: 100.0,
            measured: 120.0,
            tolerance: 0.10
        }
        .passes());
        assert!(Check {
            target: 0.0,
            measured: 0.05,
            tolerance: 0.10
        }
        .passes());
    }

    #[test]
    fn every_app_validates_at_small_scale() {
        let opts = GenOptions {
            scale: 0.02,
            seed: 314,
        };
        for spec in suite::suite() {
            let prog = generate(&spec, &opts);
            let report = ValidationReport::measure(&spec, &prog, opts.scale);
            assert!(
                report.all_ok(),
                "{} failed validation: {report:#?}",
                spec.name
            );
        }
    }
}
