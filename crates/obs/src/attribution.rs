//! Online coherence-traffic attribution.
//!
//! An [`AttrCollector`] ingests a stream of coherence events — each one
//! an (address, writer-thread, victim-thread) triple tagged with an
//! [`AttrKind`] — and aggregates three views online:
//!
//! * **Per-address hot list**: exact per-address counts while the
//!   number of distinct addresses stays below
//!   [`AttributionConfig::exact_limit`]; past that the table converts
//!   itself into a Misra–Gries top-K summary of
//!   [`AttributionConfig::sketch_k`] counters, so memory stays bounded
//!   on arbitrarily long streams. The classic Misra–Gries guarantee
//!   holds: for every address `a`, `true(a) - tracked(a) <=`
//!   [`AttrCollector::error_bound`], and any address whose true count
//!   exceeds the bound is guaranteed to be tracked.
//! * **Thread-pair traffic matrix**: exact (writer, victim) pair counts
//!   regardless of mode — the pair space is bounded by the thread count
//!   squared, so no sketching is needed.
//! * **Per-address sharing-run histograms**: for each tracked address,
//!   a [`Histogram`] of *run lengths* — maximal stretches of
//!   consecutive coherence events on that address attributed to the
//!   same writer thread. Long runs mean sharing is sequential (the
//!   paper's §5 observation) and migration would pay off.
//!
//! The collector is order-sensitive only through the run histograms and
//! the sketch's eviction choices; per-kind totals and the pair matrix
//! are exact and order-independent. Feeding the same event sequence in
//! the same order always produces a bit-identical report.
//!
//! Serialization is the `placesim-attribution-v1` schema, written with
//! the crate's [`JsonWriter`][crate::json::JsonWriter] and re-validated
//! by the strict parser ([`validate`], [`parse`]).

use crate::json::{self, JsonValue, JsonWriter};
use crate::timeline::NO_THREAD;
use crate::Histogram;
use std::collections::HashMap;

/// Schema tag carried by every attribution report.
pub const ATTRIBUTION_SCHEMA: &str = "placesim-attribution-v1";

/// Number of attribution event kinds.
pub const ATTR_KINDS: usize = 3;

/// The coherence events the engine attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// A write transaction invalidated a remote copy. Writer = the
    /// writing thread, victim = last thread to touch the invalidated
    /// slot.
    Invalidation,
    /// A Dragon write pushed an update to a remote sharer. Writer = the
    /// writing thread, victim = last thread to touch the updated slot.
    Update,
    /// A miss re-fetching a line a remote write previously invalidated.
    /// Writer = the thread whose write caused the invalidation, victim
    /// = the missing thread.
    CoherenceMiss,
}

impl AttrKind {
    /// All kinds in index order.
    pub const ALL: [AttrKind; ATTR_KINDS] = [
        AttrKind::Invalidation,
        AttrKind::Update,
        AttrKind::CoherenceMiss,
    ];

    /// Dense index of this kind.
    pub fn index(self) -> usize {
        match self {
            AttrKind::Invalidation => 0,
            AttrKind::Update => 1,
            AttrKind::CoherenceMiss => 2,
        }
    }
}

/// Sizing knobs for an [`AttrCollector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionConfig {
    /// Distinct-address threshold below which the per-address table is
    /// exact. Crossing it converts the table into a Misra–Gries sketch.
    pub exact_limit: usize,
    /// Number of Misra–Gries counters kept after conversion.
    pub sketch_k: usize,
}

impl AttributionConfig {
    /// Builds a config, clamping both knobs to at least 1 (a zero-sized
    /// sketch could never hold a heavy hitter, and a zero exact limit
    /// would convert before the first event).
    pub fn new(exact_limit: usize, sketch_k: usize) -> Self {
        AttributionConfig {
            exact_limit: exact_limit.max(1),
            sketch_k: sketch_k.max(1),
        }
    }
}

impl Default for AttributionConfig {
    fn default() -> Self {
        AttributionConfig {
            exact_limit: 1 << 16,
            sketch_k: 1024,
        }
    }
}

/// Per-address aggregate tracked by the collector.
#[derive(Debug, Clone, PartialEq)]
struct AddrEntry {
    /// Misra–Gries counter (exact while the table is exact).
    count: u64,
    /// Per-kind event counts (approximate in sketch mode: they stop
    /// accumulating for an address while it is evicted).
    kinds: [u64; ATTR_KINDS],
    /// Writer thread of the currently open run, or [`NO_THREAD`].
    run_thread: u32,
    /// Length (in events) of the currently open run.
    run_len: u64,
    /// Completed run lengths.
    runs: Histogram,
}

impl AddrEntry {
    fn new() -> Self {
        AddrEntry {
            count: 0,
            kinds: [0; ATTR_KINDS],
            run_thread: NO_THREAD,
            run_len: 0,
            runs: Histogram::new(),
        }
    }

    /// Records one event on this address by `writer`.
    fn record(&mut self, kind: AttrKind, writer: u32) {
        self.count += 1;
        self.kinds[kind.index()] += 1;
        if self.run_thread == writer {
            self.run_len += 1;
        } else {
            self.flush_run();
            self.run_thread = writer;
            self.run_len = 1;
        }
    }

    /// Closes the open run (if any) into the histogram.
    fn flush_run(&mut self) {
        if self.run_len > 0 {
            self.runs.record(self.run_len);
            self.run_len = 0;
        }
        self.run_thread = NO_THREAD;
    }

    fn events(&self) -> u64 {
        self.kinds.iter().sum()
    }
}

/// Online aggregator of attributed coherence events; see the module
/// docs for the three views it maintains and their exactness.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrCollector {
    cfg: AttributionConfig,
    totals: [u64; ATTR_KINDS],
    /// Events whose writer thread was unknown (counted in totals but
    /// absent from the pair matrix).
    unattributed: u64,
    pairs: HashMap<(u32, u32), u64>,
    addrs: HashMap<u64, AddrEntry>,
    /// `false` = exact per-address table, `true` = Misra–Gries sketch.
    sketch: bool,
    /// Total error mass: count subtracted by Misra–Gries decrements
    /// plus the largest count dropped at exact→sketch conversion.
    error_bound: u64,
}

impl Default for AttrCollector {
    fn default() -> Self {
        Self::new(AttributionConfig::default())
    }
}

impl AttrCollector {
    /// Creates an empty collector with the given sizing.
    pub fn new(cfg: AttributionConfig) -> Self {
        AttrCollector {
            cfg: AttributionConfig {
                exact_limit: cfg.exact_limit.max(1),
                sketch_k: cfg.sketch_k.max(1),
            },
            totals: [0; ATTR_KINDS],
            unattributed: 0,
            pairs: HashMap::new(),
            addrs: HashMap::new(),
            sketch: false,
            error_bound: 0,
        }
    }

    /// Records one attributed coherence event. `writer` may be
    /// [`NO_THREAD`] when the responsible writer is unknown; the event
    /// still counts toward totals and the per-address table but not the
    /// pair matrix.
    pub fn record(&mut self, kind: AttrKind, line: u64, writer: u32, victim: u32) {
        self.totals[kind.index()] += 1;
        if writer == NO_THREAD || victim == NO_THREAD {
            self.unattributed += 1;
        } else {
            let key = (writer.min(victim), writer.max(victim));
            *self.pairs.entry(key).or_insert(0) += 1;
        }
        self.record_addr(kind, line, writer);
    }

    fn record_addr(&mut self, kind: AttrKind, line: u64, writer: u32) {
        if let Some(e) = self.addrs.get_mut(&line) {
            e.record(kind, writer);
            return;
        }
        if !self.sketch {
            let e = self.addrs.entry(line).or_insert_with(AddrEntry::new);
            e.record(kind, writer);
            if self.addrs.len() > self.cfg.exact_limit {
                self.convert_to_sketch();
            }
        } else if self.addrs.len() < self.cfg.sketch_k {
            let e = self.addrs.entry(line).or_insert_with(AddrEntry::new);
            e.record(kind, writer);
        } else {
            // Classic Misra–Gries: decrement every counter, drop the
            // zeros, and do not admit the new address.
            self.error_bound += 1;
            self.addrs.retain(|_, e| {
                e.count -= 1;
                e.count > 0
            });
        }
    }

    /// Exact→sketch conversion: keep the `sketch_k` largest counters
    /// (ties broken by address so the result is deterministic) and fold
    /// the largest dropped count into the error bound.
    fn convert_to_sketch(&mut self) {
        self.sketch = true;
        if self.addrs.len() <= self.cfg.sketch_k {
            return;
        }
        let mut order: Vec<(u64, u64)> = self
            .addrs
            .iter()
            .map(|(&line, e)| (line, e.count))
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut dropped_max = 0u64;
        for &(line, count) in &order[self.cfg.sketch_k..] {
            dropped_max = dropped_max.max(count);
            self.addrs.remove(&line);
        }
        self.error_bound += dropped_max;
    }

    /// Total events recorded for `kind`. Always exact.
    pub fn total(&self, kind: AttrKind) -> u64 {
        self.totals[kind.index()]
    }

    /// Total events recorded across all kinds. Always exact.
    pub fn total_events(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Events recorded without a known writer or victim thread.
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// `true` once the per-address table has converted to sketch mode.
    pub fn is_sketch(&self) -> bool {
        self.sketch
    }

    /// Addresses currently tracked (exact distinct count while in exact
    /// mode; at most `sketch_k` afterwards).
    pub fn tracked_addresses(&self) -> usize {
        self.addrs.len()
    }

    /// Worst-case undercount of any tracked address's `events` value
    /// (and upper bound on the true count of any untracked address).
    /// Zero in exact mode.
    pub fn error_bound(&self) -> u64 {
        self.error_bound
    }

    /// The sizing this collector was built with.
    pub fn config(&self) -> AttributionConfig {
        self.cfg
    }

    /// Exact (writer, victim) pair counts, keyed by the unordered pair
    /// `(min, max)`, sorted by descending count then ascending pair.
    pub fn pair_counts(&self) -> Vec<(u32, u32, u64)> {
        let mut v: Vec<(u32, u32, u64)> =
            self.pairs.iter().map(|(&(a, b), &c)| (a, b, c)).collect();
        v.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
        v
    }

    /// The top tracked addresses by event count (descending, ties by
    /// ascending address), at most `n` of them, with per-kind splits.
    /// Returned tuples are `(line, entry_events, [inv, upd, miss])`.
    pub fn top_addresses(&self, n: usize) -> Vec<(u64, u64, [u64; ATTR_KINDS])> {
        let mut v: Vec<(u64, u64, [u64; ATTR_KINDS])> = self
            .addrs
            .iter()
            .map(|(&line, e)| (line, e.events(), e.kinds))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Folds another collector into this one (sweep-level aggregation).
    ///
    /// Totals and the pair matrix add exactly. Per-address entries add
    /// counts and merge run histograms; open runs on both sides are
    /// flushed first, since cross-stream runs cannot be stitched once
    /// ordering is lost. If the combined table exceeds the sizing
    /// limits it re-sketches: entries beyond `sketch_k` are dropped and
    /// the (k+1)-th largest combined count joins the error bound, which
    /// also absorbs both inputs' bounds — the Misra–Gries merge rule.
    pub fn merge(&mut self, mut other: AttrCollector) {
        for (t, o) in self.totals.iter_mut().zip(other.totals.iter()) {
            *t += o;
        }
        self.unattributed += other.unattributed;
        for (k, c) in other.pairs {
            *self.pairs.entry(k).or_insert(0) += c;
        }
        self.error_bound += other.error_bound;
        for e in self.addrs.values_mut() {
            e.flush_run();
        }
        for (line, mut oe) in other.addrs.drain() {
            oe.flush_run();
            let e = self.addrs.entry(line).or_insert_with(AddrEntry::new);
            e.count += oe.count;
            for (k, o) in e.kinds.iter_mut().zip(oe.kinds.iter()) {
                *k += o;
            }
            e.runs.merge(&oe.runs);
        }
        self.sketch = self.sketch || other.sketch;
        let limit = if self.sketch {
            self.cfg.sketch_k
        } else {
            self.cfg.exact_limit
        };
        if self.addrs.len() > limit {
            self.convert_to_sketch();
        }
    }

    /// Serializes the collector as a `placesim-attribution-v1` report.
    /// `protocol` and `threads` describe the run; `top_n` caps the hot
    /// address list (totals and pairs are always complete).
    pub fn report_json(&self, protocol: &str, threads: usize, top_n: usize) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", ATTRIBUTION_SCHEMA);
        w.field_bool("enabled", true);
        w.field_str("protocol", protocol);
        w.field_u64("threads", threads as u64);
        w.field_str("mode", if self.sketch { "sketch" } else { "exact" });
        w.field_u64("exact_limit", self.cfg.exact_limit as u64);
        w.field_u64("sketch_k", self.cfg.sketch_k as u64);
        w.field_u64("tracked_addresses", self.addrs.len() as u64);
        w.field_u64("error_bound", self.error_bound);
        w.key("totals");
        w.begin_object();
        w.field_u64("invalidations", self.total(AttrKind::Invalidation));
        w.field_u64("updates", self.total(AttrKind::Update));
        w.field_u64("coherence_misses", self.total(AttrKind::CoherenceMiss));
        w.field_u64("events", self.total_events());
        w.field_u64("unattributed", self.unattributed);
        w.end_object();
        w.key("top");
        w.begin_array();
        let mut order: Vec<(&u64, &AddrEntry)> = self.addrs.iter().collect();
        order.sort_by(|a, b| b.1.events().cmp(&a.1.events()).then(a.0.cmp(b.0)));
        for (&line, e) in order.into_iter().take(top_n) {
            // Present the histogram with the open run closed, without
            // mutating the collector.
            let mut runs = e.runs.clone();
            if e.run_len > 0 {
                runs.record(e.run_len);
            }
            w.begin_object();
            w.field_u64("line", line);
            w.field_u64("events", e.events());
            w.field_u64("count", e.count);
            w.field_u64("invalidations", e.kinds[AttrKind::Invalidation.index()]);
            w.field_u64("updates", e.kinds[AttrKind::Update.index()]);
            w.field_u64("coherence_misses", e.kinds[AttrKind::CoherenceMiss.index()]);
            w.key("runs");
            runs.write_json(&mut w);
            w.end_object();
        }
        w.end_array();
        w.key("pairs");
        w.begin_array();
        for (a, b, c) in self.pair_counts() {
            w.begin_array();
            w.value_u64(u64::from(a));
            w.value_u64(u64::from(b));
            w.value_u64(c);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// One parsed hot-address row from a report's `top` array.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedAddr {
    /// Cache line address.
    pub line: u64,
    /// Attributed events on the line (sum of the per-kind splits).
    pub events: u64,
    /// Invalidations received by remote copies of this line.
    pub invalidations: u64,
    /// Dragon updates pushed to remote copies of this line.
    pub updates: u64,
    /// Coherence misses re-fetching this line.
    pub coherence_misses: u64,
    /// Completed sharing runs on the line.
    pub run_count: u64,
    /// Mean run length in events (0 when no runs).
    pub run_mean: f64,
    /// Longest run in events.
    pub run_max: u64,
}

/// A parsed `placesim-attribution-v1` document (rendering view; run
/// histograms are summarized, not reconstructed).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedAttribution {
    /// Whether the producing build had attribution compiled in.
    pub enabled: bool,
    /// Coherence protocol of the run.
    pub protocol: String,
    /// Thread count of the run.
    pub threads: u64,
    /// `"exact"` or `"sketch"`.
    pub mode: String,
    /// Addresses tracked when the report was written.
    pub tracked_addresses: u64,
    /// Misra–Gries error bound (0 in exact mode).
    pub error_bound: u64,
    /// Machine-wide invalidation total.
    pub invalidations: u64,
    /// Machine-wide Dragon update total.
    pub updates: u64,
    /// Machine-wide coherence-miss total.
    pub coherence_misses: u64,
    /// Events lacking a known (writer, victim) pair.
    pub unattributed: u64,
    /// Hot addresses, hottest first.
    pub top: Vec<ParsedAddr>,
    /// Thread-pair counts `(a, b, count)` with `a <= b`, hottest first.
    pub pairs: Vec<(u32, u32, u64)>,
}

impl ParsedAttribution {
    /// Sum of the per-kind totals.
    pub fn events(&self) -> u64 {
        self.invalidations + self.updates + self.coherence_misses
    }
}

fn req_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn req_str(obj: &JsonValue, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// Strictly validates an attribution document: well-formed JSON (via
/// the crate's hardened parser), correct schema tag, internally
/// consistent totals. Returns the parsed view on success.
pub fn parse(s: &str) -> Result<ParsedAttribution, String> {
    let doc = json::parse(s)?;
    let schema = req_str(&doc, "schema")?;
    if schema != ATTRIBUTION_SCHEMA {
        return Err(format!(
            "schema mismatch: expected `{ATTRIBUTION_SCHEMA}`, found `{schema}`"
        ));
    }
    let enabled = doc
        .get("enabled")
        .and_then(JsonValue::as_bool)
        .ok_or("missing or non-boolean field `enabled`")?;
    let protocol = req_str(&doc, "protocol")?;
    let threads = req_u64(&doc, "threads")?;
    let mode = req_str(&doc, "mode")?;
    if mode != "exact" && mode != "sketch" {
        return Err(format!("invalid mode `{mode}`"));
    }
    let tracked_addresses = req_u64(&doc, "tracked_addresses")?;
    let error_bound = req_u64(&doc, "error_bound")?;
    if mode == "exact" && error_bound != 0 {
        return Err("exact mode must have error_bound 0".into());
    }
    let totals = doc.get("totals").ok_or("missing `totals` object")?;
    let invalidations = req_u64(totals, "invalidations")?;
    let updates = req_u64(totals, "updates")?;
    let coherence_misses = req_u64(totals, "coherence_misses")?;
    let events = req_u64(totals, "events")?;
    let unattributed = req_u64(totals, "unattributed")?;
    if events != invalidations + updates + coherence_misses {
        return Err("totals.events does not equal the per-kind sum".into());
    }
    if unattributed > events {
        return Err("totals.unattributed exceeds totals.events".into());
    }

    let top_raw = doc
        .get("top")
        .and_then(JsonValue::as_array)
        .ok_or("missing or non-array field `top`")?;
    let mut top = Vec::with_capacity(top_raw.len());
    let mut prev_events = u64::MAX;
    for row in top_raw {
        let line = req_u64(row, "line")?;
        let ev = req_u64(row, "events")?;
        let inv = req_u64(row, "invalidations")?;
        let upd = req_u64(row, "updates")?;
        let miss = req_u64(row, "coherence_misses")?;
        if ev != inv + upd + miss {
            return Err(format!(
                "top[{line:#x}].events does not equal its per-kind sum"
            ));
        }
        if ev > prev_events {
            return Err("top array is not sorted by descending events".into());
        }
        prev_events = ev;
        let runs = row.get("runs").ok_or("missing `runs` object in top row")?;
        let run_count = req_u64(runs, "count")?;
        let run_max = req_u64(runs, "max")?;
        let run_mean = runs
            .get("mean")
            .and_then(JsonValue::as_f64)
            .ok_or("missing or non-numeric `runs.mean`")?;
        top.push(ParsedAddr {
            line,
            events: ev,
            invalidations: inv,
            updates: upd,
            coherence_misses: miss,
            run_count,
            run_mean,
            run_max,
        });
    }

    let pairs_raw = doc
        .get("pairs")
        .and_then(JsonValue::as_array)
        .ok_or("missing or non-array field `pairs`")?;
    let mut pairs = Vec::with_capacity(pairs_raw.len());
    let mut pair_sum: u64 = 0;
    let mut seen: HashMap<(u32, u32), ()> = HashMap::new();
    for row in pairs_raw {
        let cells = row
            .as_array()
            .ok_or("pairs rows must be [a, b, count] arrays")?;
        if cells.len() != 3 {
            return Err("pairs rows must have exactly three elements".into());
        }
        let a = cells[0]
            .as_u64()
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or("pair thread id out of range")? as u32;
        let b = cells[1]
            .as_u64()
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or("pair thread id out of range")? as u32;
        let c = cells[2].as_u64().ok_or("pair count must be an integer")?;
        if a > b {
            return Err("pairs must be ordered (a <= b)".into());
        }
        if seen.insert((a, b), ()).is_some() {
            return Err("duplicate thread pair".into());
        }
        pair_sum = pair_sum.checked_add(c).ok_or("pair counts overflow u64")?;
        pairs.push((a, b, c));
    }
    if pair_sum + unattributed != events {
        return Err("pair counts plus unattributed do not reconcile with totals.events".into());
    }

    Ok(ParsedAttribution {
        enabled,
        protocol,
        threads,
        mode,
        tracked_addresses,
        error_bound,
        invalidations,
        updates,
        coherence_misses,
        unattributed,
        top,
        pairs,
    })
}

/// [`parse`] discarding the parsed view: `Ok(())` iff the document is a
/// valid `placesim-attribution-v1` report.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AttributionConfig {
        AttributionConfig {
            exact_limit: 4,
            sketch_k: 2,
        }
    }

    #[test]
    fn exact_mode_counts_are_exact() {
        let mut c = AttrCollector::default();
        c.record(AttrKind::Invalidation, 0x40, 0, 1);
        c.record(AttrKind::Invalidation, 0x40, 0, 2);
        c.record(AttrKind::CoherenceMiss, 0x40, 0, 2);
        c.record(AttrKind::Update, 0x80, 3, 1);
        assert!(!c.is_sketch());
        assert_eq!(c.error_bound(), 0);
        assert_eq!(c.total(AttrKind::Invalidation), 2);
        assert_eq!(c.total(AttrKind::Update), 1);
        assert_eq!(c.total(AttrKind::CoherenceMiss), 1);
        assert_eq!(c.total_events(), 4);
        assert_eq!(c.tracked_addresses(), 2);
        let top = c.top_addresses(10);
        assert_eq!(top[0], (0x40, 3, [2, 0, 1]));
        assert_eq!(top[1], (0x80, 1, [0, 1, 0]));
        let pairs = c.pair_counts();
        assert_eq!(pairs, vec![(0, 2, 2), (0, 1, 1), (1, 3, 1)]);
    }

    #[test]
    fn runs_split_on_writer_change() {
        let mut c = AttrCollector::default();
        for w in [0, 0, 0, 1, 1, 0] {
            c.record(AttrKind::Invalidation, 0x40, w, 7);
        }
        let s = c.report_json("wi", 8, 10);
        let parsed = parse(&s).unwrap();
        // Runs: [3 (T0), 2 (T1), 1 (T0, open — closed in the report)].
        assert_eq!(parsed.top[0].run_count, 3);
        assert_eq!(parsed.top[0].run_max, 3);
        assert!((parsed.top[0].run_mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_keeps_heavy_hitters() {
        let mut c = AttrCollector::new(small());
        // Lines 1 and 2 are heavy; 3..=6 are singletons that push the
        // table past exact_limit = 4.
        for _ in 0..10 {
            c.record(AttrKind::Invalidation, 1, 0, 1);
            c.record(AttrKind::Invalidation, 2, 0, 1);
        }
        for line in 3..=6 {
            c.record(AttrKind::Invalidation, line, 0, 1);
        }
        assert!(c.is_sketch());
        assert!(c.tracked_addresses() <= small().sketch_k);
        let top: Vec<u64> = c.top_addresses(2).iter().map(|t| t.0).collect();
        assert_eq!(top, vec![1, 2]);
        // Dropped entries were singletons → bound 1 (plus any
        // decrements from the remaining inserts).
        assert!(c.error_bound() >= 1);
        // Misra–Gries guarantee: tracked count within bound of truth.
        let tracked = c.top_addresses(1)[0].1;
        assert!(tracked + c.error_bound() >= 10);
        // Totals stay exact regardless of mode.
        assert_eq!(c.total(AttrKind::Invalidation), 24);
    }

    #[test]
    fn sketch_decrement_never_admits_light_tail() {
        let cfg = AttributionConfig {
            exact_limit: 1,
            sketch_k: 2,
        };
        let mut c = AttrCollector::new(cfg);
        for _ in 0..100 {
            c.record(AttrKind::Invalidation, 1, 0, 1);
        }
        // A long tail of distinct singletons must not displace line 1.
        for line in 100..200 {
            c.record(AttrKind::Invalidation, line, 0, 1);
        }
        assert!(c.is_sketch());
        let top = c.top_addresses(1);
        assert_eq!(top[0].0, 1);
        assert!(c.error_bound() <= 101);
    }

    #[test]
    fn merge_is_exact_when_both_sides_are() {
        let mut a = AttrCollector::default();
        let mut b = AttrCollector::default();
        a.record(AttrKind::Invalidation, 1, 0, 1);
        a.record(AttrKind::Update, 2, 2, 3);
        b.record(AttrKind::Invalidation, 1, 1, 0);
        b.record(AttrKind::CoherenceMiss, 3, 0, 2);
        a.merge(b);
        assert_eq!(a.total_events(), 4);
        assert_eq!(a.tracked_addresses(), 3);
        assert_eq!(a.error_bound(), 0);
        let pairs = a.pair_counts();
        assert_eq!(pairs[0], (0, 1, 2));
        let s = a.report_json("wi", 4, 10);
        parse(&s).unwrap();
    }

    #[test]
    fn merge_resketches_past_capacity() {
        let cfg = AttributionConfig {
            exact_limit: 100,
            sketch_k: 2,
        };
        let mut a = AttrCollector::new(cfg);
        let mut b = AttrCollector::new(cfg);
        for _ in 0..5 {
            a.record(AttrKind::Invalidation, 1, 0, 1);
            b.record(AttrKind::Invalidation, 2, 0, 1);
        }
        a.record(AttrKind::Invalidation, 3, 0, 1);
        // Force sketch mode on one side so the merged table re-sketches.
        a.convert_to_sketch();
        b.convert_to_sketch();
        a.merge(b);
        assert!(a.is_sketch());
        assert!(a.tracked_addresses() <= 2);
        let top: Vec<u64> = a.top_addresses(2).iter().map(|t| t.0).collect();
        assert_eq!(top, vec![1, 2]);
        assert_eq!(a.total_events(), 11);
    }

    #[test]
    fn report_roundtrips_through_strict_parser() {
        let mut c = AttrCollector::default();
        c.record(AttrKind::Invalidation, 0x1c0, 0, 5);
        c.record(AttrKind::CoherenceMiss, 0x1c0, 0, 5);
        let s = c.report_json("mesi", 6, 10);
        assert!(json::balanced(&s));
        let p = parse(&s).unwrap();
        assert!(p.enabled);
        assert_eq!(p.protocol, "mesi");
        assert_eq!(p.threads, 6);
        assert_eq!(p.mode, "exact");
        assert_eq!(p.events(), 2);
        assert_eq!(p.top.len(), 1);
        assert_eq!(p.pairs, vec![(0, 5, 2)]);
    }

    /// Older builds could compile attribution out and wrote empty
    /// `enabled: false` reports; such files stay valid input.
    #[test]
    fn disabled_report_is_valid_and_flagged() {
        let s = AttrCollector::default()
            .report_json("dragon", 3, 0)
            .replace("\"enabled\": true", "\"enabled\": false");
        let p = parse(&s).unwrap();
        assert!(!p.enabled);
        assert_eq!(p.events(), 0);
        assert!(p.top.is_empty());
    }

    #[test]
    fn parse_rejects_hostile_documents() {
        // Wrong schema.
        let mut c = AttrCollector::default();
        let good = c.report_json("wi", 2, 10);
        let bad = good.replace(ATTRIBUTION_SCHEMA, "placesim-attribution-v0");
        assert!(parse(&bad).is_err());
        // Inconsistent totals.
        c.record(AttrKind::Invalidation, 1, 0, 1);
        let good = c.report_json("wi", 2, 10);
        let bad = good.replace("\"events\": 1", "\"events\": 2");
        assert!(parse(&bad).is_err());
        // Unsorted pairs / duplicate pairs / trailing garbage.
        assert!(parse(&format!("{good} ")).is_ok());
        assert!(parse(&format!("{good}x")).is_err());
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
    }
}
