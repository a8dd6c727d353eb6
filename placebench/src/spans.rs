//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the recorder was created), the span that caused it and the
//! recording thread. Spans are kept in memory and written out as JSON
//! lines when the run ends. With recording off, [`Recorder::time`] only
//! calls the closure, so the untraced run pays one branch per call.

use crate::metrics::median;
use placesim_obs::json::JsonWriter;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder, assigned at span start.
    pub id: u64,
    /// Layer-qualified name, e.g. `machine.simulate`.
    pub name: &'static str,
    /// The span this call ran inside, if any.
    pub parent: Option<u64>,
    /// Small per-process thread number (0 = first thread that recorded).
    pub thread: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_NO: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_no() -> u64 {
    THREAD_NO.with(|c| match c.get() {
        Some(n) => n,
        None => {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(n));
            n
        }
    })
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (`None` when recording is off) so it can parent
    /// nested calls.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span {
            id,
            name,
            parent,
            thread: thread_no(),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .push(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map(|c| {
                    let clipped = c
                        .into_iter()
                        .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect();
                    union_ns(clipped)
                })
                .unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Every span whose ancestry includes `root` (not `root` itself).
pub fn descendants(spans: &[Span], root: u64) -> Vec<Span> {
    let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .filter(|s| {
            let mut cur = s.parent;
            while let Some(p) = cur {
                if p == root {
                    return true;
                }
                cur = parent.get(&p).copied().flatten();
            }
            false
        })
        .cloned()
        .collect()
}

/// Self time per span name, summed over `spans`, in seconds.
fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id] as f64 / 1e9;
    }
    out
}

/// Median self time in seconds per span name over the span trees under
/// `roots`, and the median share of a root's duration that the root itself
/// spends outside its children (time no layer span covers).
pub fn median_self_secs(spans: &[Span], roots: &[u64]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut uncovered = Vec::new();
    for root in spans.iter().filter(|s| roots.contains(&s.id)) {
        let mut tree = descendants(spans, root.id);
        tree.push(root.clone());
        let selfs = self_secs_by_name(&tree);
        uncovered.push(selfs[root.name] / (root.dur_ns() as f64 / 1e9));
        for (name, secs) in selfs {
            by_name.entry(name).or_default().push(secs);
        }
    }
    let medians = by_name.into_iter().map(|(n, v)| (n, median(&v))).collect();
    (medians, median(&uncovered))
}

/// Writes spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("id", s.id);
        w.field_str("name", s.name);
        w.key("parent");
        match s.parent {
            Some(p) => w.value_u64(p),
            None => w.value_null(),
        }
        w.field_u64("thread", s.thread);
        w.field_u64("start_ns", s.start_ns);
        w.field_u64("end_ns", s.end_ns);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, parent: Option<u64>, s: u64, e: u64) -> Span {
        Span {
            id,
            name,
            parent,
            thread: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, "root", None, 0, 100),
            span(2, "a", Some(1), 10, 40),
            span(3, "b", Some(1), 30, 60),
            span(4, "c", Some(2), 10, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
        assert_eq!(descendants(&spans, 1).len(), 3);
        assert_eq!(descendants(&spans, 2).len(), 1);
        let (medians, uncovered) = median_self_secs(&spans, &[1]);
        assert_eq!(medians["b"], 30e-9);
        assert_eq!(uncovered, 0.5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.time("x", None, |id| id), None);
        assert!(r.spans().is_empty());
        let r = Recorder::new(true);
        let id = r.time("x", None, |id| r.time("y", id, |_| id));
        assert!(id.is_some());
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.name == "y").unwrap().parent, id);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
