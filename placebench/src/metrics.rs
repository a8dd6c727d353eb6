//! Metric names, units, output-check accounting and order statistics.

use placesim_obs::json::JsonWriter;
use std::collections::BTreeMap;

/// The three workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "stream-profile", "service-mixed"];

/// Consecutive passes per tail window of the batch workloads: their
/// `job_p99_ms` is the median over windows of each window's slowest pass.
/// A run holds 15 to 200 passes, too few for a deep percentile to rest on
/// more than a handful of them.
pub const PASS_TAIL_WINDOW: usize = 3;

#[cfg(test)]
/// The name grammar `BENCHMARK.json` imposes: a letter or digit first,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metric values of one run. Units live in `BENCHMARK.json`;
/// `run.py` attaches them and refuses a name that file does not list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Writes `{"name": value, ...}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (&name, &value) in &self.0 {
            w.field_f64(name, value);
        }
        w.end_object();
    }
}

/// Output-check accounting: operations attempted, operations failed,
/// and the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (cells, jobs, placements, checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Median over consecutive complete `window`-sized chunks of `values` of
/// `stat` of each chunk; `stat` of all values when no chunk is complete.
/// A tail statistic taken this way moves with the typical window, not
/// with the single slowest sample of the run.
pub fn windowed(values: &[f64], window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_window: Vec<f64> = values.chunks_exact(window).map(&stat).collect();
    if per_window.is_empty() {
        stat(values)
    } else {
        median(&per_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_obs::json::{self, JsonValue};
    use std::collections::BTreeSet;

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
    }

    fn field<'a>(m: &'a JsonValue, key: &str) -> &'a str {
        m.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("entry lacks {key}"))
    }

    #[test]
    fn benchmark_json_follows_the_grammar() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json is strict JSON");

        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let mut seen = BTreeSet::new();
        for w in entries(&doc, "workloads") {
            let name = field(w, "name");
            assert!(valid_name(name) && seen.insert(name), "bad workload {name}");
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let mut seen = BTreeSet::new();
        for key in ["end_to_end", "per_layer"] {
            for m in entries(&doc, key) {
                let name = field(m, "name");
                assert!(valid_name(name), "bad metric name {name}");
                assert!(valid_unit(field(m, "unit")), "bad unit for {name}");
                assert!(
                    matches!(field(m, "better"), "lower" | "higher"),
                    "bad direction for {name}"
                );
                assert!(seen.insert(name), "duplicate metric {name}");
            }
        }
        let e2e = entries(&doc, "end_to_end");
        for m in e2e {
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = e2e.iter().find(|m| field(m, "name") == "setup_s");
        assert!(setup.is_some_and(|m| field(m, "unit") == "s" && field(m, "better") == "lower"));
    }

    #[test]
    fn grammar_rejects_bad_names() {
        assert!(valid_name("core.journal.commit_ms.p50"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ns/ref"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 50.0), 3.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
        assert_eq!(min(&[4.0, 7.0, 3.0]), 3.0);
    }

    #[test]
    fn windowed_statistic_ignores_one_outlier() {
        let mut v = vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 9.0];
        assert_eq!(windowed(&v, 3, max), 3.0);
        v[0] = 100.0;
        assert_eq!(windowed(&v, 3, max), 3.0);
        assert_eq!(windowed(&[4.0, 5.0], 3, max), 5.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.check(Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failed_frac(), 0.5);
    }
}
