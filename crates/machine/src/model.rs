//! Analytic multithreaded-processor efficiency model.
//!
//! The paper's related work (§5) discusses the Markov-chain processor
//! efficiency models of Saavedra-Barrera et al. and Agarwal, built from
//! the number of contexts `N`, the mean run length between misses `R`,
//! the context-switch cost `C` and the memory latency `L`. This module
//! implements the memoryless (birth–death) variant, whose steady state
//! is the Erlang-loss distribution: with offered load `a = L / (R + C)`,
//!
//! ```text
//! π(k) ∝ aᵏ / k!          k = 0..N   (k contexts waiting on memory)
//! utilization = 1 − π(N)
//! efficiency  = utilization · R / (R + C)
//! ```
//!
//! For `N = 1` this collapses to the textbook `R / (R + C + L)`. The
//! tests validate the model against the event-driven simulator: it
//! tracks simulated busy fractions to within the error expected from its
//! memorylessness assumption, and reproduces the related-work
//! conclusions — few contexts cannot hide long latencies, and efficiency
//! saturates at `R / (R + C)`.

use crate::config::ArchConfig;
use crate::stats::SimStats;

/// Analytic efficiency model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyModel {
    /// Mean useful cycles between misses of one context (`R`).
    pub run_length: f64,
    /// Memory latency in cycles (`L`).
    pub latency: f64,
    /// Context-switch cost in cycles (`C`).
    pub switch_cost: f64,
}

impl EfficiencyModel {
    /// Builds the model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `run_length` or `latency` is not positive, or if
    /// `switch_cost` is negative.
    pub fn new(run_length: f64, latency: f64, switch_cost: f64) -> Self {
        assert!(run_length > 0.0, "run length must be positive");
        assert!(latency > 0.0, "latency must be positive");
        assert!(switch_cost >= 0.0, "switch cost cannot be negative");
        EfficiencyModel {
            run_length,
            latency,
            switch_cost,
        }
    }

    /// Estimates the model from a simulation run: `R` is the measured
    /// references per miss, `L` and `C` come from the configuration.
    ///
    /// Returns `None` if the run had no misses (infinite run length:
    /// efficiency is 1 regardless).
    pub fn from_stats(stats: &SimStats, config: &ArchConfig) -> Option<Self> {
        let misses = stats.total_misses().total();
        if misses == 0 {
            return None;
        }
        Some(EfficiencyModel::new(
            stats.total_refs() as f64 / misses as f64,
            config.memory_latency() as f64,
            config.context_switch() as f64,
        ))
    }

    /// Offered load `a = L / (R + C)`: how many contexts' worth of
    /// latency each working period generates.
    pub fn offered_load(&self) -> f64 {
        self.latency / (self.run_length + self.switch_cost)
    }

    /// Steady-state probability that all `contexts` contexts are waiting
    /// on memory (the processor idles) — the Erlang loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    pub fn all_waiting_probability(&self, contexts: usize) -> f64 {
        assert!(contexts > 0, "a processor needs at least one context");
        let a = self.offered_load();
        // Erlang B, computed with the standard stable recurrence:
        // B(0) = 1; B(k) = a·B(k−1) / (k + a·B(k−1)).
        let mut b = 1.0;
        for k in 1..=contexts {
            b = a * b / (k as f64 + a * b);
        }
        b
    }

    /// Processor *utilization* with `contexts` hardware contexts: the
    /// fraction of time the pipeline is doing anything (useful work or
    /// switching).
    pub fn utilization(&self, contexts: usize) -> f64 {
        1.0 - self.all_waiting_probability(contexts)
    }

    /// Processor *efficiency*: the fraction of time spent on useful
    /// instructions (excludes switch overhead).
    pub fn efficiency(&self, contexts: usize) -> f64 {
        self.utilization(contexts) * self.run_length / (self.run_length + self.switch_cost)
    }

    /// The efficiency ceiling as `contexts → ∞`: `R / (R + C)`.
    pub fn saturation_efficiency(&self) -> f64 {
        self.run_length / (self.run_length + self.switch_cost)
    }

    /// Contexts needed to reach `fraction` (0–1) of the saturation
    /// efficiency.
    pub fn contexts_for(&self, fraction: f64) -> usize {
        let target = fraction.clamp(0.0, 1.0) * self.saturation_efficiency();
        (1..=4096)
            .find(|&n| self.efficiency(n) >= target)
            .unwrap_or(4096)
    }
}

/// Measured busy fraction of a simulation run (useful cycles over
/// makespan), for comparing against [`EfficiencyModel::efficiency`].
pub fn simulated_efficiency(stats: &SimStats) -> f64 {
    let total: u64 = stats.per_proc().iter().map(|p| p.finish_time).sum();
    if total == 0 {
        return 0.0;
    }
    let busy: u64 = stats.per_proc().iter().map(|p| p.busy).sum();
    busy as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use placesim_placement::PlacementMap;
    use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};

    #[test]
    fn single_context_closed_form() {
        // N = 1 collapses to R / (R + C + L).
        let m = EfficiencyModel::new(20.0, 50.0, 6.0);
        let expect = 20.0 / (20.0 + 6.0 + 50.0);
        assert!((m.efficiency(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn efficiency_increases_and_saturates() {
        let m = EfficiencyModel::new(20.0, 50.0, 6.0);
        let mut last = 0.0;
        for n in 1..=32 {
            let e = m.efficiency(n);
            assert!(e >= last, "efficiency must be monotone in contexts");
            last = e;
        }
        assert!(last <= m.saturation_efficiency() + 1e-12);
        assert!(
            m.efficiency(32) > 0.95 * m.saturation_efficiency(),
            "32 contexts should be near saturation"
        );
    }

    #[test]
    fn few_contexts_cannot_hide_long_latencies() {
        // Saavedra-Barrera's conclusion: with very long latencies, a few
        // contexts leave the processor mostly idle.
        let m = EfficiencyModel::new(10.0, 1000.0, 6.0);
        assert!(m.efficiency(2) < 0.1);
        assert!(m.efficiency(128) > 0.8 * m.saturation_efficiency());
    }

    #[test]
    fn contexts_for_targets() {
        let m = EfficiencyModel::new(20.0, 50.0, 6.0);
        let n = m.contexts_for(0.9);
        assert!(m.efficiency(n) >= 0.9 * m.saturation_efficiency());
        assert!(n > 1);
        assert!(m.efficiency(n - 1) < 0.9 * m.saturation_efficiency());
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_panics() {
        let m = EfficiencyModel::new(20.0, 50.0, 6.0);
        let _ = m.all_waiting_probability(0);
    }

    /// A deterministic every-R-cycles-miss workload: the model (which
    /// assumes memoryless runs) must still land within a reasonable band
    /// of the simulated busy fraction.
    #[test]
    fn model_tracks_simulator() {
        let run = 20u64;
        let contexts = 4usize;
        let mk = |tid: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for blk in 0..100u64 {
                // One missing read (fresh line every time) ...
                t.push(MemRef::read(Address::new(
                    0x10_0000 * (tid + 1) + 0x1000 * blk,
                )));
                // ... then run-1 hits on the thread's own hot line.
                for _ in 0..(run - 1) {
                    t.push(MemRef::read(Address::new(0x40 * (tid + 1))));
                }
            }
            t
        };
        let prog = ProgramTrace::new("model", (0..contexts as u64).map(mk).collect());
        let map = PlacementMap::from_clusters(vec![(0..contexts).collect()]).unwrap();
        let config = ArchConfig::builder().cache_size(1 << 21).build().unwrap();
        let stats = simulate(&prog, &map, &config).unwrap();

        let model = EfficiencyModel::from_stats(&stats, &config).expect("misses occurred");
        let predicted = model.efficiency(contexts);
        let measured = simulated_efficiency(&stats);
        assert!(
            (predicted - measured).abs() < 0.15,
            "model {predicted:.3} vs simulated {measured:.3}"
        );
    }

    #[test]
    fn from_stats_none_without_misses() {
        let tr: ThreadTrace = (0..10).map(|_| MemRef::read(Address::new(0x40))).collect();
        let prog = ProgramTrace::new("hot", vec![tr]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let config = ArchConfig::paper_default();
        let stats = simulate(&prog, &map, &config).unwrap();
        // One compulsory miss exists, so Some; drain it to the no-miss
        // case by checking the empty program instead.
        assert!(EfficiencyModel::from_stats(&stats, &config).is_some());

        let empty = ProgramTrace::new("none", vec![ThreadTrace::new()]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let stats = simulate(&empty, &map, &config).unwrap();
        assert!(EfficiencyModel::from_stats(&stats, &config).is_none());
    }
}
