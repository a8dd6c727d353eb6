//! Engine instrumentation: the hook trait, its two implementations and
//! the counters report.
//!
//! The batched engine calls the [`Hooks`] at the handful of places where
//! something globally interesting happens — an event-queue pop, a hit
//! run ending, a context-switch drain, a directory write transaction, a
//! coherence message between two processors. A catch-up that commits
//! part of a victim's lookahead before a remote invalidation, downgrade
//! or update reports as one more pop and hit run, so `events`,
//! `queue_depth` and `hit_run_hits` count lookahead runs.
//!
//! The engine is generic over the hooks. [`crate::simulate`] runs it
//! with [`NoHooks`], whose every hook is an empty default body, so the
//! plain path is monomorphised with the instrumentation compiled away.
//! [`crate::simulate_probed`] runs it with an [`EngineObs`], the
//! runtime-configured recorder: each of its recordings is an `Option`,
//! and a hook does its work only for the recordings that are `Some`.

use placesim_analysis::SymMatrix;
use placesim_obs::json::JsonWriter;
use placesim_obs::timeline::NO_THREAD;
use placesim_obs::{AttrCollector, AttrKind, EventKind, EventTrace, Histogram, TimelineEvent};

/// The engine's observation points. Every hook defaults to a no-op.
pub(crate) trait Hooks {
    /// `true` when attribution is recorded. The engine skips the
    /// victim-owner lookups that only attribution needs otherwise.
    #[inline]
    fn wants_attribution(&self) -> bool {
        false
    }

    /// One coherence message between processors `a` and `b`: an
    /// invalidation or update sent, or an invalidation miss one caused
    /// the other (the paper's §4.2 traffic).
    #[inline]
    fn on_traffic(&mut self, _a: usize, _b: usize) {}

    /// An event was popped, or a victim's scanned hits are about to be
    /// committed early; `depth` counts the pending events, the popped
    /// one included.
    #[inline]
    fn on_pop(&mut self, _depth: usize) {}

    /// A hit run ended after `hits` consecutive cache hits (possibly
    /// zero, when the dispatched reference immediately missed), or a
    /// catch-up committed `hits` of a victim's scanned hits.
    #[inline]
    fn on_hit_run(&mut self, _hits: u64) {}

    /// A directory write transaction invalidated `fanout` remote caches.
    #[inline]
    fn on_invalidation_fanout(&mut self, _fanout: u64) {}

    /// A miss forced a context switch costing `stall_cycles` of drain.
    #[inline]
    fn on_switch(&mut self, _stall_cycles: u64) {}

    /// A hit run completed on processor `pi`: `thread` executed `hits`
    /// consecutive hits over cycles `[start, end)`. Zero-length slices
    /// (a dispatch that immediately missed) are not recorded.
    #[inline]
    fn on_run_slice(&mut self, _pi: usize, _thread: u32, _start: u64, _end: u64, _hits: u64) {}

    /// A miss-induced context switch started at `at` on processor `pi`,
    /// draining for `stall` cycles away from `thread`. Always paired
    /// with an [`Hooks::on_switch`] call at the same site.
    #[inline]
    fn on_switch_slice(&mut self, _pi: usize, _thread: u32, _at: u64, _stall: u64) {}

    /// `thread` on processor `pi` missed on `line` at `cycle`;
    /// `kind_idx` is the [`crate::MissKind`] discriminant.
    #[inline]
    fn on_miss(&mut self, _pi: usize, _thread: u32, _cycle: u64, _line: u64, _kind_idx: u64) {}

    /// The fill for `thread`'s miss on `line` completes at `ready_at`
    /// (a future cycle: fills are recorded at issue, so the trace is
    /// emission-ordered rather than timestamp-sorted).
    #[inline]
    fn on_fill(&mut self, _pi: usize, _thread: u32, _ready_at: u64, _line: u64) {}

    /// A directory write transaction by processor `sender` invalidated
    /// `line` in processor `victim`'s cache at `cycle`.
    #[inline]
    fn on_invalidation_pair(&mut self, _sender: usize, _victim: usize, _line: u64, _cycle: u64) {}

    /// A Dragon write by processor `sender` pushed an update for `line`
    /// to processor `victim`'s cache at `cycle`.
    #[inline]
    fn on_update_pair(&mut self, _sender: usize, _victim: usize, _line: u64, _cycle: u64) {}

    /// A write by `writer` invalidated `line` in a remote cache whose
    /// slot was last touched by `victim`.
    #[inline]
    fn on_attr_invalidation(&mut self, _line: u64, _writer: u32, _victim: u32) {}

    /// A Dragon write by `writer` updated `line` in a remote cache
    /// whose slot was last touched by `victim`.
    #[inline]
    fn on_attr_update(&mut self, _line: u64, _writer: u32, _victim: u32) {}

    /// `victim` missed on `line` because an earlier write by `writer`
    /// invalidated its copy (a coherence miss).
    #[inline]
    fn on_attr_coherence_miss(&mut self, _line: u64, _writer: u32, _victim: u32) {}

    /// A directory transaction (fill or upgrade) on `line` by `thread`
    /// on processor `pi` at `cycle`; `fanout` remote caches were
    /// invalidated, `is_write` for write transactions.
    #[inline]
    fn on_directory(
        &mut self,
        _pi: usize,
        _thread: u32,
        _cycle: u64,
        _line: u64,
        _fanout: u64,
        _is_write: bool,
    ) {
    }
}

/// The zero-sized sink of plain [`crate::simulate`] runs: records
/// nothing, and its hooks compile to nothing.
pub(crate) struct NoHooks;

impl Hooks for NoHooks {}

/// The runtime-configured recorder of a [`crate::simulate_probed`] run.
///
/// Each field is one recording, taken when the field is `Some` before
/// the run and read back from the same field after it. The default
/// recorder records nothing, and a run with it costs what a plain
/// [`crate::simulate`] run costs. No recording perturbs the simulation:
/// the statistics are bit-identical to [`crate::simulate`]'s.
///
/// ```
/// use placesim_machine::{simulate_probed, ArchConfig, EngineObs, EngineObsReport};
/// use placesim_placement::PlacementMap;
/// use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
///
/// let t: ThreadTrace = (0..64).map(|i| MemRef::read(Address::new(32 * (i % 8)))).collect();
/// let prog = ProgramTrace::new("one", vec![t]);
/// let map = PlacementMap::from_clusters(vec![vec![0]])?;
/// let mut obs = EngineObs {
///     counters: Some(EngineObsReport::default()),
///     ..EngineObs::default()
/// };
/// let stats = simulate_probed(&prog, &map, &ArchConfig::paper_default(), &mut obs)?;
/// // Reads never upgrade, so every hit is a hit-run hit.
/// assert_eq!(obs.counters.unwrap().hit_run_hits.sum(), stats.total_hits());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct EngineObs {
    /// The processor-to-processor coherence traffic matrix (the paper's
    /// §4.2 dynamic measurement): entry `(i, j)` counts invalidations
    /// and updates sent between `i` and `j` plus invalidation misses one
    /// of them caused the other. Must be `processors × processors`.
    pub traffic: Option<SymMatrix<u64>>,
    /// The engine counters: event-queue depths, hit-run lengths,
    /// context-switch stalls and directory invalidation fan-out.
    pub counters: Option<EngineObsReport>,
    /// The cycle-stamped event timeline (a ring buffer: the oldest
    /// events are overwritten once full, per-kind counts stay exact).
    /// Export it with [`EventTrace::to_chrome_json`] or mine it with
    /// [`EventTrace::sharing_runs`].
    pub timeline: Option<EventTrace>,
    /// Coherence attribution: every invalidation, Dragon update and
    /// coherence miss, aggregated online by (address, writer thread,
    /// victim thread).
    pub attribution: Option<AttrCollector>,
}

impl EngineObs {
    /// `true` when the recorder records nothing.
    pub(crate) fn is_idle(&self) -> bool {
        self.traffic.is_none()
            && self.counters.is_none()
            && self.timeline.is_none()
            && self.attribution.is_none()
    }

    #[inline]
    fn record(&mut self, ev: TimelineEvent) {
        if let Some(timeline) = &mut self.timeline {
            timeline.record(ev);
        }
    }

    #[inline]
    fn record_attr(&mut self, kind: AttrKind, line: u64, writer: u32, victim: u32) {
        if let Some(attr) = &mut self.attribution {
            attr.record(kind, line, writer, victim);
        }
    }

    /// Records a send on the sender's track and the matching receive on
    /// the victim's.
    #[inline]
    fn record_message(
        &mut self,
        kinds: (EventKind, EventKind),
        sender: usize,
        victim: usize,
        line: u64,
        cycle: u64,
    ) {
        for (kind, processor, peer) in [(kinds.0, sender, victim), (kinds.1, victim, sender)] {
            self.record(TimelineEvent {
                cycle,
                dur: 0,
                processor: processor as u32,
                thread: NO_THREAD,
                kind,
                line,
                detail: peer as u64,
            });
        }
    }
}

impl Hooks for EngineObs {
    #[inline]
    fn wants_attribution(&self) -> bool {
        self.attribution.is_some()
    }

    #[inline]
    fn on_traffic(&mut self, a: usize, b: usize) {
        if let Some(m) = &mut self.traffic {
            if a != b {
                m.add(a, b, 1);
            }
        }
    }

    #[inline]
    fn on_pop(&mut self, depth: usize) {
        if let Some(c) = &mut self.counters {
            c.events += 1;
            c.queue_depth.record(depth as u64);
        }
    }

    #[inline]
    fn on_hit_run(&mut self, hits: u64) {
        if let Some(c) = &mut self.counters {
            c.hit_run_hits.record(hits);
        }
    }

    #[inline]
    fn on_invalidation_fanout(&mut self, fanout: u64) {
        if let Some(c) = &mut self.counters {
            c.invalidation_fanout.record(fanout);
        }
    }

    #[inline]
    fn on_switch(&mut self, stall_cycles: u64) {
        if let Some(c) = &mut self.counters {
            c.context_switches += 1;
            c.switch_stall_cycles += stall_cycles;
        }
    }

    #[inline]
    fn on_run_slice(&mut self, pi: usize, thread: u32, start: u64, end: u64, hits: u64) {
        if end > start {
            self.record(TimelineEvent {
                cycle: start,
                dur: end - start,
                processor: pi as u32,
                thread,
                kind: EventKind::RunSlice,
                line: u64::MAX,
                detail: hits,
            });
        }
    }

    #[inline]
    fn on_switch_slice(&mut self, pi: usize, thread: u32, at: u64, stall: u64) {
        self.record(TimelineEvent {
            cycle: at,
            dur: stall,
            processor: pi as u32,
            thread,
            kind: EventKind::ContextSwitch,
            line: u64::MAX,
            detail: stall,
        });
    }

    #[inline]
    fn on_miss(&mut self, pi: usize, thread: u32, cycle: u64, line: u64, kind_idx: u64) {
        self.record(TimelineEvent {
            cycle,
            dur: 0,
            processor: pi as u32,
            thread,
            kind: EventKind::MissIssue,
            line,
            detail: kind_idx,
        });
    }

    #[inline]
    fn on_fill(&mut self, pi: usize, thread: u32, ready_at: u64, line: u64) {
        self.record(TimelineEvent {
            cycle: ready_at,
            dur: 0,
            processor: pi as u32,
            thread,
            kind: EventKind::MissFill,
            line,
            detail: 0,
        });
    }

    #[inline]
    fn on_invalidation_pair(&mut self, sender: usize, victim: usize, line: u64, cycle: u64) {
        let kinds = (EventKind::InvalidationSend, EventKind::InvalidationReceive);
        self.record_message(kinds, sender, victim, line, cycle);
    }

    #[inline]
    fn on_update_pair(&mut self, sender: usize, victim: usize, line: u64, cycle: u64) {
        let kinds = (EventKind::UpdateSend, EventKind::UpdateReceive);
        self.record_message(kinds, sender, victim, line, cycle);
    }

    #[inline]
    fn on_attr_invalidation(&mut self, line: u64, writer: u32, victim: u32) {
        self.record_attr(AttrKind::Invalidation, line, writer, victim);
    }

    #[inline]
    fn on_attr_update(&mut self, line: u64, writer: u32, victim: u32) {
        self.record_attr(AttrKind::Update, line, writer, victim);
    }

    #[inline]
    fn on_attr_coherence_miss(&mut self, line: u64, writer: u32, victim: u32) {
        self.record_attr(AttrKind::CoherenceMiss, line, writer, victim);
    }

    #[inline]
    fn on_directory(
        &mut self,
        pi: usize,
        thread: u32,
        cycle: u64,
        line: u64,
        fanout: u64,
        is_write: bool,
    ) {
        self.record(TimelineEvent {
            cycle,
            dur: 0,
            processor: pi as u32,
            thread,
            kind: EventKind::DirectoryTransition,
            line,
            detail: (fanout << 1) | u64::from(is_write),
        });
    }
}

/// The engine counters of an instrumented simulation run
/// ([`EngineObs::counters`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineObsReport {
    /// Lookahead runs: event-queue pops plus the partial commits of a
    /// victim's scanned hits that a remote invalidation, downgrade or
    /// update forces first (batched dispatches, not references).
    pub events: u64,
    /// Pending-event count at each pop or partial commit (including the
    /// processor that runs).
    pub queue_depth: Histogram,
    /// Consecutive cache hits per lookahead run, partial commits
    /// included (the batching win: mean ≫ 1 means the slot queue is
    /// touched far less than once per reference).
    pub hit_run_hits: Histogram,
    /// Remote caches invalidated per directory write transaction.
    pub invalidation_fanout: Histogram,
    /// Miss-induced context switches.
    pub context_switches: u64,
    /// Total pipeline-drain cycles paid for those switches.
    pub switch_stall_cycles: u64,
}

impl EngineObsReport {
    /// Writes the report as a JSON object value onto `w`. The leading
    /// `"enabled": true` is kept for `placesim-metrics-v1` readers.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_bool("enabled", true);
        w.field_u64("events", self.events);
        w.field_u64("context_switches", self.context_switches);
        w.field_u64("switch_stall_cycles", self.switch_stall_cycles);
        w.key("queue_depth");
        self.queue_depth.write_json(w);
        w.key("hit_run_hits");
        self.hit_run_hits.write_json(w);
        w.key("invalidation_fanout");
        self.invalidation_fanout.write_json(w);
        w.end_object();
    }

    /// The report as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_obs::json;

    #[test]
    fn idle_recorder_records_nothing() {
        let mut obs = EngineObs::default();
        assert!(obs.is_idle());
        obs.on_pop(1);
        obs.on_hit_run(5);
        obs.on_invalidation_fanout(2);
        obs.on_switch(6);
        obs.on_traffic(0, 1);
        obs.on_miss(0, 0, 3, 7, 0);
        assert!(obs.is_idle());
    }

    #[test]
    fn enabled_collector_records() {
        let mut obs = EngineObs {
            counters: Some(EngineObsReport::default()),
            ..EngineObs::default()
        };
        obs.on_pop(2);
        obs.on_pop(1);
        obs.on_hit_run(0);
        obs.on_hit_run(12);
        obs.on_invalidation_fanout(2);
        obs.on_switch(6);
        obs.on_switch(6);
        let report = obs.counters.unwrap();
        assert_eq!(report.events, 2);
        assert_eq!(report.queue_depth.max(), Some(2));
        assert_eq!(report.queue_depth.min(), Some(1));
        assert_eq!(report.hit_run_hits.count(), 2);
        assert_eq!(report.hit_run_hits.sum(), 12);
        assert_eq!(report.invalidation_fanout.sum(), 2);
        assert_eq!(report.context_switches, 2);
        assert_eq!(report.switch_stall_cycles, 12);
    }

    #[test]
    fn traffic_skips_the_diagonal() {
        let mut obs = EngineObs {
            traffic: Some(SymMatrix::new(3, 0)),
            ..EngineObs::default()
        };
        obs.on_traffic(0, 2);
        obs.on_traffic(2, 0);
        obs.on_traffic(1, 1);
        let m = obs.traffic.unwrap();
        assert_eq!(m.get(0, 2), 2);
        assert_eq!(m.iter_pairs().map(|(_, _, v)| v).sum::<u64>(), 2);
    }

    #[test]
    fn report_json_shape() {
        let report = EngineObsReport::default();
        let s = report.to_json();
        assert!(json::balanced(&s));
        json::require_keys(
            &s,
            &[
                "enabled",
                "events",
                "context_switches",
                "switch_stall_cycles",
                "queue_depth",
                "hit_run_hits",
                "invalidation_fanout",
            ],
        )
        .unwrap();
        assert!(s.contains("\"enabled\": true"));
    }
}
