//! Observability primitives for the placesim workspace.
//!
//! This crate deliberately has **no dependencies** and allocates only
//! when recording strings or serializing. It provides:
//!
//! * [`Counter`] — a named monotonic counter.
//! * [`Histogram`] — a fixed-footprint log2-bucketed histogram of
//!   `u64` samples (count / sum / min / max / 65 power-of-two buckets).
//! * [`SpanTimer`] / [`Span`] — wall-clock phase timers.
//! * [`json`] — a small hand-rolled JSON writer plus validation
//!   helpers. The workspace's vendored `serde` is a no-op stand-in, so
//!   every JSON artifact in the repo is built and checked through this
//!   module.
//! * [`sink`] — JSONL append sinks, an atomic write-then-rename
//!   file helper used for manifests and metrics outputs, and the
//!   [`outln!`] / [`out!`] stdout writers of the binaries.
//! * [`proto`] — the `placesim-service-v1` wire protocol: bounded
//!   framing, a hardened request parser, and the placement service's
//!   metrics block.
//!
//! The crate itself is always compiled; *zero-overhead* instrumentation
//! is the consumers' job: `placesim-machine` monomorphises its engine
//! over a no-op hook sink for uninstrumented runs, so the hooks compile
//! to nothing there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod json;
pub mod proto;
pub mod sink;
pub mod timeline;

pub use attribution::{AttrCollector, AttrKind, AttributionConfig};
pub use proto::{JobOp, JobSpec, ProtoError, Request, ServiceMetrics, SERVICE_SCHEMA};
pub use timeline::{EventKind, EventTrace, SharingRun, TimelineEvent};

use std::time::Instant;

/// `println!` for a binary's output, through [`sink::write_stdout`]:
/// when stdout is a pipe whose reader has gone, the process ends quietly
/// with status 0 instead of panicking.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::sink::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::sink::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` with [`outln!`]'s handling of a closed stdout.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::sink::write_stdout(format_args!($($arg)*))
    };
}

/// A named monotonic counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Number of buckets in a [`Histogram`]: one for the value `0` plus one
/// per possible bit length of a non-zero `u64` (1..=64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples with O(1) recording and a
/// fixed memory footprint.
///
/// Bucket `0` counts samples equal to zero; bucket `i` (for `i >= 1`)
/// counts samples whose bit length is `i`, i.e. values in
/// `[2^(i-1), 2^i)`. Exact count, sum, min and max are tracked
/// alongside, so means are exact even though the distribution is
/// approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample. The running sum saturates at `u64::MAX`
    /// rather than wrapping.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts; see the type docs for the bucket → value
    /// range mapping.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Bucket-interpolated percentile estimate, `p` in `[0, 100]`.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// rank `p/100 × count`, then interpolates linearly across that
    /// bucket's value range (`[2^(i-1), 2^i)` for bucket `i ≥ 1`, exactly
    /// `0` for bucket 0). The estimate is clamped to the exact recorded
    /// `[min, max]`, so single-valued distributions and the extremes
    /// (`p = 0`, `p = 100`) come back exact.
    ///
    /// Returns `None` for an empty histogram or `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let target = p / 100.0 * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if (cum as f64) < target {
                continue;
            }
            // Value range covered by bucket i.
            let (lo, hi) = if i == 0 {
                (0.0, 0.0)
            } else {
                let lo = (1u64 << (i - 1)) as f64;
                // Bucket 64 tops out at u64::MAX.
                let hi = if i >= 64 {
                    u64::MAX as f64
                } else {
                    ((1u64 << i) - 1) as f64
                };
                (lo, hi)
            };
            let frac = if c == 0 {
                0.0
            } else {
                ((target - before as f64) / c as f64).clamp(0.0, 1.0)
            };
            let est = lo + frac * (hi - lo);
            return Some(est.clamp(self.min as f64, self.max as f64));
        }
        Some(self.max as f64)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Writes the histogram as a JSON object value onto `w`. Buckets are
    /// emitted sparsely as `[[bucket_index, count], ...]`.
    pub fn write_json(&self, w: &mut json::JsonWriter) {
        w.begin_object();
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.field_u64("min", self.min().unwrap_or(0));
        w.field_u64("max", self.max().unwrap_or(0));
        w.field_f64("mean", self.mean().unwrap_or(0.0));
        w.field_f64("p50", self.percentile(50.0).unwrap_or(0.0));
        w.field_f64("p95", self.percentile(95.0).unwrap_or(0.0));
        w.field_f64("p99", self.percentile(99.0).unwrap_or(0.0));
        w.key("buckets");
        w.begin_array();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                w.begin_array();
                w.value_u64(i as u64);
                w.value_u64(c);
                w.end_array();
            }
        }
        w.end_array();
        w.end_object();
    }
}

/// Per-class fault counters for supervised runs: how many worker
/// panics, simulation errors, watchdog timeouts and I/O errors a sweep
/// absorbed, and how many retries it spent doing so. Serializable so
/// sweep receipts can carry their fault history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Worker closures that panicked (caught and isolated).
    pub panics: u64,
    /// Jobs that returned a typed error (not retried: deterministic).
    pub errors: u64,
    /// Attempts abandoned by the wall-clock watchdog.
    pub timeouts: u64,
    /// I/O failures absorbed while committing durable state.
    pub io_errors: u64,
    /// Retry attempts dispatched after an absorbed fault.
    pub retries: u64,
    /// Attempt threads abandoned (detached, never joined) after their
    /// watchdog fired. Every abandoned thread is also a timeout, but it
    /// is accounted separately because an abandoned thread may still be
    /// burning a core long after the supervisor moved on — operators
    /// watching a sweep or service need to see that leak, not infer it.
    pub abandoned: u64,
}

impl FaultCounters {
    /// All counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total faults absorbed (excluding the retries spent on them).
    pub fn total(&self) -> u64 {
        self.panics + self.errors + self.timeouts + self.io_errors
    }

    /// Folds another set of counters into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.panics += other.panics;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.io_errors += other.io_errors;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
    }

    /// Writes the counters as a JSON object value onto `w`.
    pub fn write_json(&self, w: &mut json::JsonWriter) {
        w.begin_object();
        w.field_u64("panics", self.panics);
        w.field_u64("errors", self.errors);
        w.field_u64("timeouts", self.timeouts);
        w.field_u64("io_errors", self.io_errors);
        w.field_u64("retries", self.retries);
        w.field_u64("abandoned", self.abandoned);
        w.end_object();
    }
}

/// A completed timed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Label given at [`SpanTimer::start`].
    pub name: String,
    /// Wall-clock duration in seconds.
    pub secs: f64,
}

/// A running wall-clock timer; call [`SpanTimer::stop`] to obtain the
/// finished [`Span`].
#[derive(Debug)]
pub struct SpanTimer {
    name: String,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing a named span.
    pub fn start(name: impl Into<String>) -> Self {
        SpanTimer {
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Elapsed seconds without stopping.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops the timer and returns the completed span.
    pub fn stop(self) -> Span {
        Span {
            secs: self.start.elapsed().as_secs_f64(),
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 2); // 4, 7
        assert_eq!(b[4], 1); // 8
        assert_eq!(b[64], 1); // u64::MAX
        assert_eq!(b.iter().sum::<u64>(), 8);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.mean(), Some(15.0));
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(100);
        let empty = Histogram::new();
        a.merge(&empty);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.sum(), 101);
    }

    #[test]
    fn percentile_on_exact_distributions() {
        // 1..=100 uniformly: p50 must land in the right bucket and
        // within the log2 bucket's resolution of the exact median.
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((32.0..=64.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99.0).unwrap();
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
        // Extremes are exact thanks to the min/max clamp.
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        // Monotone in p.
        let mut last = 0.0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "percentile not monotone at p={p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn percentile_single_value_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..7 {
            h.record(42);
        }
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(42.0), "p={p}");
        }
    }

    #[test]
    fn percentile_all_zeros() {
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(0);
        }
        assert_eq!(h.percentile(50.0), Some(0.0));
        assert_eq!(h.percentile(99.0), Some(0.0));
    }

    #[test]
    fn percentile_rejects_bad_inputs() {
        let empty = Histogram::new();
        assert_eq!(empty.percentile(50.0), None);
        let mut h = Histogram::new();
        h.record(1);
        assert_eq!(h.percentile(-1.0), None);
        assert_eq!(h.percentile(101.0), None);
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn percentile_two_cluster_split() {
        // 90 small samples (value 2) and 10 large ones (value 1024):
        // p50 sits with the small cluster, p99 with the large one.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(1024);
        }
        assert!(h.percentile(50.0).unwrap() <= 3.0);
        assert!(h.percentile(99.0).unwrap() >= 512.0);
    }

    #[test]
    fn histogram_json_is_valid() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(9);
        let mut w = json::JsonWriter::new();
        h.write_json(&mut w);
        let s = w.finish();
        assert!(json::balanced(&s), "unbalanced: {s}");
        assert!(s.contains("\"count\": 2"));
        assert!(s.contains("\"buckets\""));
    }

    #[test]
    fn fault_counters_merge_and_total() {
        let mut a = FaultCounters::new();
        a.panics = 2;
        a.retries = 3;
        let b = FaultCounters {
            errors: 1,
            timeouts: 4,
            io_errors: 5,
            abandoned: 4,
            ..FaultCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 2 + 1 + 4 + 5);
        assert_eq!(a.retries, 3);
        assert_eq!(a.abandoned, 4, "abandoned threads are merged, not lost");

        let mut w = json::JsonWriter::new();
        a.write_json(&mut w);
        let s = w.finish();
        assert!(json::balanced(&s));
        assert!(s.contains("\"timeouts\": 4"));
        assert!(s.contains("\"abandoned\": 4"));
    }

    #[test]
    fn span_timer_measures_time() {
        let t = SpanTimer::start("phase");
        assert!(t.elapsed_secs() >= 0.0);
        let span = t.stop();
        assert_eq!(span.name, "phase");
        assert!(span.secs >= 0.0);
    }
}
