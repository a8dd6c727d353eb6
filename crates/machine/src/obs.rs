//! Engine instrumentation: hook collector and its report.
//!
//! The batched engine calls the [`EngineObs`] hooks at the handful of
//! places where something globally interesting happens — an event-queue
//! pop, a hit run ending, a context-switch drain, a directory write
//! transaction. A catch-up that commits part of a victim's lookahead
//! before a remote invalidation, downgrade or update reports as one more
//! pop and hit run, so `events`, `queue_depth` and `hit_run_hits` count
//! lookahead runs. Without the `obs` cargo feature every hook body is
//! empty and inlined away, so default builds pay nothing; with it,
//! [`crate::simulate_observed`] returns an [`EngineObsReport`] with the
//! recorded distributions.

use placesim_obs::json::JsonWriter;
#[cfg(feature = "obs")]
use placesim_obs::timeline::NO_THREAD;
use placesim_obs::AttributionConfig;
use placesim_obs::EventTrace;
use placesim_obs::Histogram;
#[cfg(feature = "obs")]
use placesim_obs::{AttrCollector, AttrKind};
#[cfg(feature = "obs")]
use placesim_obs::{EventKind, TimelineEvent};

/// Absent-event marker in the engine's slot queue (mirrors the engine's
/// private `NO_EVENT`). Only the `obs`-gated hook bodies and the tests
/// read it.
#[cfg_attr(not(any(test, feature = "obs")), allow(dead_code))]
const NO_EVENT: u64 = u64::MAX;

#[cfg(feature = "obs")]
#[derive(Debug, Default)]
struct ObsInner {
    events: u64,
    queue_depth: Histogram,
    hit_run_hits: Histogram,
    invalidation_fanout: Histogram,
    context_switches: u64,
    switch_stall_cycles: u64,
    /// Cycle-stamped event ring, present only for traced runs.
    timeline: Option<EventTrace>,
    /// Coherence-attribution collector, present only for attributed
    /// runs.
    attr: Option<AttrCollector>,
}

/// The engine's hook collector. A zero-cost stub unless the crate is
/// built with the `obs` feature *and* the run was started through
/// [`crate::simulate_observed`].
#[derive(Debug, Default)]
pub(crate) struct EngineObs {
    #[cfg(feature = "obs")]
    inner: Option<ObsInner>,
}

impl EngineObs {
    /// A collector that records nothing (plain `simulate` runs).
    pub(crate) fn disabled() -> Self {
        Self::default()
    }

    /// A recording collector. Falls back to a no-op stub when the `obs`
    /// feature is off.
    pub(crate) fn enabled() -> Self {
        #[cfg(feature = "obs")]
        {
            EngineObs {
                inner: Some(ObsInner::default()),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            Self::default()
        }
    }

    /// A recording collector that additionally keeps a cycle-stamped
    /// event timeline retaining up to `capacity` events. Falls back to
    /// a no-op stub when the `obs` feature is off.
    pub(crate) fn traced(capacity: usize) -> Self {
        let _ = capacity;
        #[cfg(feature = "obs")]
        {
            EngineObs {
                inner: Some(ObsInner {
                    timeline: Some(EventTrace::new(capacity)),
                    ..ObsInner::default()
                }),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            Self::default()
        }
    }

    /// A collector that attributes coherence events (invalidations,
    /// updates, coherence misses) to (address, writer, victim) online.
    /// Falls back to a no-op stub when the `obs` feature is off.
    pub(crate) fn attributed(cfg: AttributionConfig) -> Self {
        let _ = cfg;
        #[cfg(feature = "obs")]
        {
            EngineObs {
                inner: Some(ObsInner {
                    attr: Some(AttrCollector::new(cfg)),
                    ..ObsInner::default()
                }),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            Self::default()
        }
    }

    /// `true` when this collector is recording attribution. The engines
    /// use this to skip the victim-owner lookups that only attribution
    /// needs; with the `obs` feature off it is a constant `false` and
    /// the guarded code compiles away.
    #[inline]
    pub(crate) fn wants_attribution(&self) -> bool {
        #[cfg(feature = "obs")]
        {
            self.inner
                .as_ref()
                .is_some_and(|inner| inner.attr.is_some())
        }
        #[cfg(not(feature = "obs"))]
        {
            false
        }
    }

    /// An event was popped, or a victim's scanned hits are about to be
    /// committed early; `events` is the slot queue with the running
    /// processor's slot still set, so the recorded depth includes it.
    #[inline]
    pub(crate) fn on_pop(&mut self, events: &[u64]) {
        let _ = events;
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.events += 1;
            let depth = events.iter().filter(|&&e| e != NO_EVENT).count();
            inner.queue_depth.record(depth as u64);
        }
    }

    /// A hit run ended after `hits` consecutive cache hits (possibly
    /// zero, when the dispatched reference immediately missed), or a
    /// catch-up committed `hits` of a victim's scanned hits.
    #[inline]
    pub(crate) fn on_hit_run(&mut self, hits: u64) {
        let _ = hits;
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.hit_run_hits.record(hits);
        }
    }

    /// A directory write transaction invalidated `fanout` remote caches.
    #[inline]
    pub(crate) fn on_invalidation_fanout(&mut self, fanout: u64) {
        let _ = fanout;
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.invalidation_fanout.record(fanout);
        }
    }

    /// A miss forced a context switch costing `stall_cycles` of drain.
    #[inline]
    pub(crate) fn on_switch(&mut self, stall_cycles: u64) {
        let _ = stall_cycles;
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.context_switches += 1;
            inner.switch_stall_cycles += stall_cycles;
        }
    }

    /// Records a timeline event, if this collector keeps a timeline.
    #[cfg(feature = "obs")]
    #[inline]
    fn record(&mut self, ev: TimelineEvent) {
        if let Some(timeline) = self.inner.as_mut().and_then(|i| i.timeline.as_mut()) {
            timeline.record(ev);
        }
    }

    /// A hit run completed on processor `pi`: `thread` executed `hits`
    /// consecutive hits over cycles `[start, end)`. Zero-length slices
    /// (a dispatch that immediately missed) are not recorded.
    #[inline]
    pub(crate) fn on_run_slice(&mut self, pi: usize, thread: u32, start: u64, end: u64, hits: u64) {
        let _ = (pi, thread, start, end, hits);
        #[cfg(feature = "obs")]
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

    /// A miss-induced context switch started at `at` on processor `pi`,
    /// draining for `stall` cycles away from `thread`. Always paired
    /// with an [`EngineObs::on_switch`] call at the same site.
    #[inline]
    pub(crate) fn on_switch_slice(&mut self, pi: usize, thread: u32, at: u64, stall: u64) {
        let _ = (pi, thread, at, stall);
        #[cfg(feature = "obs")]
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

    /// `thread` on processor `pi` missed on `line` at `cycle`;
    /// `kind_idx` is the [`crate::MissKind`] discriminant.
    #[inline]
    pub(crate) fn on_miss(&mut self, pi: usize, thread: u32, cycle: u64, line: u64, kind_idx: u64) {
        let _ = (pi, thread, cycle, line, kind_idx);
        #[cfg(feature = "obs")]
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

    /// The fill for `thread`'s miss on `line` completes at `ready_at`
    /// (a future cycle: fills are recorded at issue, so the trace is
    /// emission-ordered rather than timestamp-sorted).
    #[inline]
    pub(crate) fn on_fill(&mut self, pi: usize, thread: u32, ready_at: u64, line: u64) {
        let _ = (pi, thread, ready_at, line);
        #[cfg(feature = "obs")]
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

    /// A directory write transaction by processor `sender` invalidated
    /// `line` in processor `victim`'s cache at `cycle`. Emits the send
    /// on the sender's track and the receive on the victim's.
    #[inline]
    pub(crate) fn on_invalidation_pair(
        &mut self,
        sender: usize,
        victim: usize,
        line: u64,
        cycle: u64,
    ) {
        let _ = (sender, victim, line, cycle);
        #[cfg(feature = "obs")]
        {
            self.record(TimelineEvent {
                cycle,
                dur: 0,
                processor: sender as u32,
                thread: NO_THREAD,
                kind: EventKind::InvalidationSend,
                line,
                detail: victim as u64,
            });
            self.record(TimelineEvent {
                cycle,
                dur: 0,
                processor: victim as u32,
                thread: NO_THREAD,
                kind: EventKind::InvalidationReceive,
                line,
                detail: sender as u64,
            });
        }
    }

    /// A Dragon write by processor `sender` pushed an update for `line`
    /// to processor `victim`'s cache at `cycle`. Emits the send on the
    /// sender's track and the receive on the victim's (the update
    /// analogue of [`EngineObs::on_invalidation_pair`]).
    #[inline]
    pub(crate) fn on_update_pair(&mut self, sender: usize, victim: usize, line: u64, cycle: u64) {
        let _ = (sender, victim, line, cycle);
        #[cfg(feature = "obs")]
        {
            self.record(TimelineEvent {
                cycle,
                dur: 0,
                processor: sender as u32,
                thread: NO_THREAD,
                kind: EventKind::UpdateSend,
                line,
                detail: victim as u64,
            });
            self.record(TimelineEvent {
                cycle,
                dur: 0,
                processor: victim as u32,
                thread: NO_THREAD,
                kind: EventKind::UpdateReceive,
                line,
                detail: sender as u64,
            });
        }
    }

    /// Routes one attributed coherence event to the attribution
    /// collector, if this run keeps one.
    #[cfg(feature = "obs")]
    #[inline]
    fn record_attr(&mut self, kind: AttrKind, line: u64, writer: u32, victim: u32) {
        if let Some(attr) = self.inner.as_mut().and_then(|i| i.attr.as_mut()) {
            attr.record(kind, line, writer, victim);
        }
    }

    /// A write by `writer` invalidated `line` in a remote cache whose
    /// slot was last touched by `victim`.
    #[inline]
    pub(crate) fn on_attr_invalidation(&mut self, line: u64, writer: u32, victim: u32) {
        let _ = (line, writer, victim);
        #[cfg(feature = "obs")]
        self.record_attr(AttrKind::Invalidation, line, writer, victim);
    }

    /// A Dragon write by `writer` updated `line` in a remote cache
    /// whose slot was last touched by `victim`.
    #[inline]
    pub(crate) fn on_attr_update(&mut self, line: u64, writer: u32, victim: u32) {
        let _ = (line, writer, victim);
        #[cfg(feature = "obs")]
        self.record_attr(AttrKind::Update, line, writer, victim);
    }

    /// `victim` missed on `line` because an earlier write by `writer`
    /// invalidated its copy (a coherence miss).
    #[inline]
    pub(crate) fn on_attr_coherence_miss(&mut self, line: u64, writer: u32, victim: u32) {
        let _ = (line, writer, victim);
        #[cfg(feature = "obs")]
        self.record_attr(AttrKind::CoherenceMiss, line, writer, victim);
    }

    /// A directory transaction (fill or upgrade) on `line` by `thread`
    /// on processor `pi` at `cycle`; `fanout` remote caches were
    /// invalidated, `is_write` for write transactions.
    #[inline]
    pub(crate) fn on_directory(
        &mut self,
        pi: usize,
        thread: u32,
        cycle: u64,
        line: u64,
        fanout: u64,
        is_write: bool,
    ) {
        let _ = (pi, thread, cycle, line, fanout, is_write);
        #[cfg(feature = "obs")]
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

    /// Finalizes the collector into its report.
    pub(crate) fn report(self) -> EngineObsReport {
        self.finish().0
    }

    /// Finalizes the collector into its report plus the event timeline,
    /// if this run kept one.
    pub(crate) fn finish(self) -> (EngineObsReport, Option<EventTrace>) {
        let (report, timeline, _) = self.finish_all();
        (report, timeline)
    }

    /// Finalizes the collector into its report, the event timeline and
    /// the attribution collector, whichever of those this run kept.
    #[cfg_attr(not(feature = "obs"), allow(clippy::unused_self))]
    pub(crate) fn finish_all(
        self,
    ) -> (
        EngineObsReport,
        Option<EventTrace>,
        Option<placesim_obs::AttrCollector>,
    ) {
        #[cfg(feature = "obs")]
        if let Some(inner) = self.inner {
            return (
                EngineObsReport {
                    enabled: true,
                    events: inner.events,
                    queue_depth: inner.queue_depth,
                    hit_run_hits: inner.hit_run_hits,
                    invalidation_fanout: inner.invalidation_fanout,
                    context_switches: inner.context_switches,
                    switch_stall_cycles: inner.switch_stall_cycles,
                },
                inner.timeline,
                inner.attr,
            );
        }
        (EngineObsReport::default(), None, None)
    }
}

/// Distributions recorded by an instrumented simulation run.
///
/// Always available as a type; `enabled` is `false` (and every
/// histogram empty) when the crate was built without the `obs` feature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineObsReport {
    /// Whether the run actually recorded (feature `obs` on).
    pub enabled: bool,
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
    /// Writes the report as a JSON object value onto `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_bool("enabled", self.enabled);
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
    fn disabled_collector_reports_disabled() {
        let mut obs = EngineObs::disabled();
        obs.on_pop(&[1, NO_EVENT]);
        obs.on_hit_run(5);
        obs.on_invalidation_fanout(2);
        obs.on_switch(6);
        let report = obs.report();
        assert!(!report.enabled);
        assert_eq!(report, EngineObsReport::default());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn enabled_collector_records() {
        let mut obs = EngineObs::enabled();
        obs.on_pop(&[3, NO_EVENT, 7]);
        obs.on_pop(&[3, NO_EVENT, NO_EVENT]);
        obs.on_hit_run(0);
        obs.on_hit_run(12);
        obs.on_invalidation_fanout(2);
        obs.on_switch(6);
        obs.on_switch(6);
        let report = obs.report();
        assert!(report.enabled);
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
        assert!(s.contains("\"enabled\": false"));
    }
}
