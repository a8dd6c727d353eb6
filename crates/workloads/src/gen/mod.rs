//! The trace generator: turns an [`AppSpec`] into a [`ProgramTrace`].

mod emit;
mod length;
mod patterns;
pub mod reference;
pub(crate) mod regions;

use crate::spec::AppSpec;
use placesim_trace::par::parallel_map;
use placesim_trace::{AddrCounts, ProgramTrace};

/// Generation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenOptions {
    /// Length scale factor: 1.0 reproduces the paper's simulated thread
    /// lengths (Table 2); smaller values shrink traces proportionally
    /// while preserving all distributional shapes. Mirrors the paper's
    /// own practice of scaling trace and data-set size together (§3.2).
    pub scale: f64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            scale: 1.0,
            seed: 0x1994,
        }
    }
}

/// Generates the synthetic trace of one application.
///
/// Deterministic: the same `spec` and `opts` always produce the same
/// trace. Threads are emitted in parallel (each thread's rng is seeded
/// independently, so the per-thread streams — and hence the program —
/// are identical at any worker count); [`reference::generate`] keeps
/// the original serial emitter for differential testing.
///
/// # Panics
///
/// Panics if `opts.scale` is not strictly positive or the spec has zero
/// threads.
pub fn generate(spec: &AppSpec, opts: &GenOptions) -> ProgramTrace {
    generate_with_access(spec, opts).0
}

/// Generates the synthetic trace *and* its access profile in one pass.
///
/// The second component holds, per thread, one [`AddrCounts`] entry per
/// run the emitter produced (unaggregated: an address recurs once per
/// run). The emitter already knows every run it emits, so the profile is
/// free — downstream sharing analysis (`SharingAnalysis::measure_access`
/// in `placesim-analysis`) can consume it without re-scanning the trace.
///
/// # Panics
///
/// Panics if `opts.scale` is not strictly positive or the spec has zero
/// threads.
pub fn generate_with_access(
    spec: &AppSpec,
    opts: &GenOptions,
) -> (ProgramTrace, Vec<Vec<AddrCounts>>) {
    assert!(opts.scale > 0.0, "scale must be positive");
    assert!(spec.threads > 0, "an application needs at least one thread");

    let lengths = length::sample_lengths(spec, opts);
    let plans = patterns::assign_addresses(spec, &lengths, opts);
    let layout = regions::Layout::new(
        lengths
            .iter()
            .map(|&n| emit::private_slot_count(spec, n))
            .collect(),
    );
    let schedule = emit::Schedule::build(spec, lengths.iter().copied().max().unwrap_or(0));
    let jobs: Vec<(usize, u64, patterns::SharedPlan)> = lengths
        .iter()
        .zip(plans)
        .enumerate()
        .map(|(tid, (&n_instr, plan))| (tid, n_instr, plan))
        .collect();
    let results = parallel_map(&jobs, |(tid, n_instr, plan)| {
        emit::emit_thread(spec, *tid, *n_instr, plan, &layout, opts, &schedule)
    });
    let (threads, access): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (ProgramTrace::new(spec.name, threads), access)
}

/// Generates the synthetic trace straight into a streaming (v4) trace
/// writer, one thread at a time, without ever holding the whole program
/// in memory.
///
/// Produces a byte stream whose decoded contents are bit-identical to
/// [`generate`] with the same `spec` and `opts`: every thread's rng is
/// seeded independently, so emitting threads serially (and dropping each
/// [`placesim_trace::ThreadTrace`] after appending it) changes nothing
/// about the reference streams. Peak memory is the generation skeleton
/// (lengths, plans, layout, schedule) plus a single thread's trace,
/// independent of thread count × thread length.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
///
/// # Panics
///
/// Panics if `opts.scale` is not strictly positive or the spec has zero
/// threads.
pub fn generate_streamed<W: std::io::Write>(
    spec: &AppSpec,
    opts: &GenOptions,
    w: W,
) -> Result<placesim_trace::stream::StreamSummary, placesim_trace::TraceError> {
    assert!(opts.scale > 0.0, "scale must be positive");
    assert!(spec.threads > 0, "an application needs at least one thread");

    let lengths = length::sample_lengths(spec, opts);
    let plans = patterns::assign_addresses(spec, &lengths, opts);
    let layout = regions::Layout::new(
        lengths
            .iter()
            .map(|&n| emit::private_slot_count(spec, n))
            .collect(),
    );
    let schedule = emit::Schedule::build(spec, lengths.iter().copied().max().unwrap_or(0));

    let mut writer = placesim_trace::stream::StreamWriter::new(w, spec.name, spec.threads)?;
    for (tid, (&n_instr, plan)) in lengths.iter().zip(&plans).enumerate() {
        let (thread, _access) =
            emit::emit_thread(spec, tid, n_instr, plan, &layout, opts, &schedule);
        writer.append_thread(placesim_trace::ThreadId::from_index(tid), thread.iter())?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn deterministic_per_seed() {
        let spec = suite::fft();
        let opts = GenOptions {
            scale: 0.01,
            seed: 42,
        };
        let a = generate(&spec, &opts);
        let b = generate(&spec, &opts);
        assert_eq!(a, b);
        let c = generate(
            &spec,
            &GenOptions {
                scale: 0.01,
                seed: 43,
            },
        );
        assert_ne!(a, c, "different seeds should vary the trace");
    }

    #[test]
    fn thread_count_matches_spec() {
        for spec in suite::suite() {
            let prog = generate(
                &spec,
                &GenOptions {
                    scale: 0.002,
                    seed: 1,
                },
            );
            assert_eq!(prog.thread_count(), spec.threads, "{}", spec.name);
            assert!(prog.total_refs() > 0);
        }
    }

    #[test]
    fn scale_shrinks_traces_proportionally() {
        let spec = suite::water();
        let small = generate(
            &spec,
            &GenOptions {
                scale: 0.005,
                seed: 9,
            },
        );
        let large = generate(
            &spec,
            &GenOptions {
                scale: 0.01,
                seed: 9,
            },
        );
        let ratio = large.total_instrs() as f64 / small.total_instrs() as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn streamed_generation_is_bit_identical() {
        let spec = suite::fft();
        let opts = GenOptions {
            scale: 0.01,
            seed: 42,
        };
        let mut bytes = Vec::new();
        let summary = generate_streamed(&spec, &opts, &mut bytes).unwrap();
        let expected = generate(&spec, &opts);
        assert_eq!(summary.total_refs, expected.total_refs());
        assert_eq!(summary.bytes_written as usize, bytes.len());
        let decoded = placesim_trace::stream::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, expected);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = generate(
            &suite::water(),
            &GenOptions {
                scale: 0.0,
                seed: 1,
            },
        );
    }
}
