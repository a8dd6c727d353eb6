//! The pre-overhaul generator, kept verbatim as a reference path.
//!
//! Like `placesim_machine::reference` for the simulation engine, this
//! module preserves the original single-threaded emitter so that the
//! optimised path in [`crate::gen::emit`] has a reference for the
//! differential tests, which require `generate` to stay bit-identical.
//! The shared planning stages (lengths, address plans, layout) are
//! reused — the overhaul changed only emission, and sharing the inputs
//! means the comparison cannot drift.

use crate::gen::patterns::{SharedPlan, WritePolicy};
use crate::gen::regions::{self, Layout};
use crate::gen::{emit, length, patterns, GenOptions};
use crate::spec::AppSpec;
use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// References per private address (temporal locality of private data).
const PRIVATE_RPA: f64 = emit::PRIVATE_RPA;
/// Write probability for private accesses.
const PRIVATE_WRITE_FRACTION: f64 = 0.35;

/// Generates the synthetic trace of one application through the
/// original, unoptimised emitter.
///
/// Bit-identical to [`crate::generate`] by construction; the
/// differential tests below and the pipeline benchmark both rely on
/// that.
///
/// # Panics
///
/// Panics if `opts.scale` is not strictly positive or the spec has zero
/// threads.
pub fn generate(spec: &AppSpec, opts: &GenOptions) -> ProgramTrace {
    assert!(opts.scale > 0.0, "scale must be positive");
    assert!(spec.threads > 0, "an application needs at least one thread");

    let lengths = length::sample_lengths(spec, opts);
    let plans = patterns::assign_addresses(spec, &lengths, opts);
    let layout = Layout::new(
        lengths
            .iter()
            .map(|&n| emit::private_slot_count(spec, n))
            .collect(),
    );
    let threads = lengths
        .iter()
        .zip(plans)
        .enumerate()
        .map(|(tid, (&n_instr, plan))| emit_thread(spec, tid, n_instr, &plan, &layout, opts))
        .collect();
    ProgramTrace::new(spec.name, threads)
}

/// The original per-thread emitter: one barrier-position division per
/// instruction, one region-mapping modulo per data reference.
fn emit_thread(
    spec: &AppSpec,
    tid: usize,
    n_instr: u64,
    plan: &SharedPlan,
    layout: &Layout,
    opts: &GenOptions,
) -> ThreadTrace {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ (0xEA17 + tid as u64 * 0x9E37_79B9));
    let n_data = (n_instr as f64 * spec.data_ratio).round() as u64;
    let shared_frac = spec.shared_percent / 100.0;

    let mut shared = RunCursor::new(spec.refs_per_shared_addr, plan.policy);
    let mut private = RunCursor::new(PRIVATE_RPA, WritePolicy::Bernoulli(PRIVATE_WRITE_FRACTION));

    let mut trace = ThreadTrace::with_capacity((n_instr + n_data) as usize + 8);
    let mut data_acc = 0.0f64;
    let mut shared_acc = 0.0f64;
    let mut shared_idx = 0usize;
    let mut private_slot = 0u64;

    let phases = spec.phases.max(1) as u64;
    let mut next_barrier = 1u64;

    for i in 0..n_instr {
        while next_barrier < phases && i == next_barrier * n_instr / phases {
            trace.push(MemRef::barrier(next_barrier - 1));
            next_barrier += 1;
        }
        trace.push(MemRef::instr(Address::new(regions::code_addr(i))));
        data_acc += spec.data_ratio;
        while data_acc >= 1.0 {
            data_acc -= 1.0;
            shared_acc += shared_frac;
            if shared_acc >= 1.0 {
                shared_acc -= 1.0;
                let (slot, write) = shared.next(&mut rng, || {
                    let s = plan.slots[shared_idx % plan.slots.len()];
                    shared_idx += 1;
                    s
                });
                let addr = Address::new(regions::shared_addr(slot));
                trace.push(if write {
                    MemRef::write(addr)
                } else {
                    MemRef::read(addr)
                });
            } else {
                let (slot, write) = private.next(&mut rng, || {
                    let s = private_slot;
                    private_slot += 1;
                    s
                });
                let addr = Address::new(layout.private_addr(tid, slot));
                trace.push(if write {
                    MemRef::write(addr)
                } else {
                    MemRef::read(addr)
                });
            }
        }
    }
    while next_barrier < phases {
        trace.push(MemRef::barrier(next_barrier - 1));
        next_barrier += 1;
    }
    trace
}

/// The original run cursor: recomputes nothing across a run, but leaves
/// the slot → address mapping (and its modulo) to the caller per ref.
struct RunCursor {
    refs_per_addr: f64,
    policy: WritePolicy,
    current: u64,
    remaining: u64,
    run_is_write: bool,
}

impl RunCursor {
    fn new(refs_per_addr: f64, policy: WritePolicy) -> Self {
        RunCursor {
            refs_per_addr: refs_per_addr.max(1.0),
            policy,
            current: 0,
            remaining: 0,
            run_is_write: false,
        }
    }

    fn next<F: FnMut() -> u64>(&mut self, rng: &mut SmallRng, mut next_slot: F) -> (u64, bool) {
        if self.remaining == 0 {
            self.current = next_slot();
            let jitter = rng.gen_range(0.5..1.5);
            self.remaining = (self.refs_per_addr * jitter).round().max(1.0) as u64;
            if let WritePolicy::RunLevel(p) = self.policy {
                self.run_is_write = rng.gen_bool(p.clamp(0.0, 1.0));
            }
        }
        self.remaining -= 1;
        let write = match self.policy {
            WritePolicy::Bernoulli(p) => rng.gen_bool(p.clamp(0.0, 1.0)),
            WritePolicy::OwnRange { lo, hi, prob } => {
                (lo..hi).contains(&self.current) && rng.gen_bool(prob.clamp(0.0, 1.0))
            }
            WritePolicy::RunLevel(_) => self.run_is_write,
        };
        (self.current, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    /// The optimised generator must be bit-identical to this reference
    /// for every application in the suite.
    #[test]
    fn optimised_generate_matches_reference_across_suite() {
        for spec in suite::suite() {
            let opts = GenOptions {
                scale: 0.004,
                seed: 1994,
            };
            assert_eq!(
                crate::generate(&spec, &opts),
                generate(&spec, &opts),
                "{} diverged from the reference emitter",
                spec.name
            );
        }
    }

    /// Seeds and scales vary every rng draw and barrier position; the
    /// paths must still agree ref-for-ref.
    #[test]
    fn optimised_generate_matches_reference_across_seeds() {
        for (spec, scale) in [
            (suite::gauss(), 0.002),
            (suite::mp3d(), 0.01),
            (suite::topopt(), 0.01),
            (suite::barnes_hut(), 0.01),
        ] {
            for seed in [0u64, 7, 42, 0xFFFF_FFFF_FFFF_FFFF] {
                let opts = GenOptions { scale, seed };
                assert_eq!(
                    crate::generate(&spec, &opts),
                    generate(&spec, &opts),
                    "{} seed {} diverged",
                    spec.name,
                    seed
                );
            }
        }
    }
}
