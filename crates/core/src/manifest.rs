//! Run manifests: machine-readable records of what a run executed.
//!
//! Every experiment entry point (the CLI's `simulate --metrics`, a
//! supervised sweep via [`crate::SupervisedSweep::manifest`]) can emit a
//! manifest: a single JSON document recording the architecture
//! configuration, generation parameters, wall time, per-combination
//! results and — when the run recorded them — the engine counters
//! (`EngineObsReport`). The
//! schema is versioned via the [`METRICS_SCHEMA`] tag so downstream
//! tooling can reject documents it does not understand.
//!
//! # Example
//!
//! ```
//! use placesim::manifest::{RunManifest, METRICS_SCHEMA};
//! use placesim_machine::ArchConfig;
//!
//! let mut m = RunManifest::new("example", "water", &ArchConfig::paper_default());
//! m.scale = Some(0.01);
//! let json = m.to_json();
//! assert!(json.contains(METRICS_SCHEMA));
//! RunManifest::validate(&json).unwrap();
//! ```

use placesim_machine::{ArchConfig, EngineObsReport, MissBreakdown, Protocol, SimStats};
use placesim_obs::json::{self, JsonValue, JsonWriter};
use placesim_obs::sink;
use std::path::Path;

/// Schema tag stamped into every manifest; bump when the layout changes.
pub const METRICS_SCHEMA: &str = "placesim-metrics-v1";

/// Summary of one placement + simulation combination inside a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Paper name of the placement algorithm (or a tool-defined label).
    pub algorithm: String,
    /// Processor count simulated.
    pub processors: usize,
    /// Execution time in cycles (max finish over processors).
    pub execution_time: u64,
    /// Total references executed.
    pub total_refs: u64,
    /// Total cache misses.
    pub total_misses: u64,
    /// Data-reference miss rate in [0, 1].
    pub miss_rate: f64,
    /// Total coherence traffic (invalidations + invalidation misses +
    /// updates; each transaction counted once).
    pub coherence_traffic: u64,
    /// Write-update messages sent (Dragon; structurally zero under the
    /// write-invalidate protocols and in pre-protocol manifests).
    pub update_traffic: u64,
    /// The paper's four-way miss taxonomy (all zero for entries from
    /// tools that do not simulate, or from pre-taxonomy manifests).
    pub misses: MissBreakdown,
}

impl ManifestEntry {
    /// Builds an entry from a simulation's statistics.
    pub fn from_stats(algorithm: &str, processors: usize, stats: &SimStats) -> Self {
        ManifestEntry {
            algorithm: algorithm.to_owned(),
            processors,
            execution_time: stats.execution_time(),
            total_refs: stats.total_refs(),
            total_misses: stats.total_misses().total(),
            miss_rate: stats.miss_rate(),
            coherence_traffic: stats.coherence_traffic(),
            update_traffic: stats.total_updates(),
            misses: stats.total_misses(),
        }
    }

    /// Writes the entry's fields, in their one canonical order, into the
    /// JSON object open on `w`. Manifests, sweep-journal cells and the
    /// service's simulate and sweep results all share this layout.
    pub(crate) fn write_fields(&self, w: &mut JsonWriter) {
        w.field_str("algorithm", &self.algorithm);
        w.field_u64("processors", self.processors as u64);
        w.field_u64("execution_time", self.execution_time);
        w.field_u64("total_refs", self.total_refs);
        w.field_u64("total_misses", self.total_misses);
        w.field_f64("miss_rate", self.miss_rate);
        w.field_u64("coherence_traffic", self.coherence_traffic);
        w.field_u64("update_traffic", self.update_traffic);
        w.field_u64("compulsory", self.misses.compulsory);
        w.field_u64("intra_thread_conflict", self.misses.intra_thread_conflict);
        w.field_u64("inter_thread_conflict", self.misses.inter_thread_conflict);
        w.field_u64("invalidation", self.misses.invalidation);
    }
}

/// Writes `config` as a JSON object value onto `w`: the `config` block
/// of manifests and sweep-journal headers.
pub(crate) fn write_config(w: &mut JsonWriter, config: &ArchConfig) {
    w.begin_object();
    w.field_u64("cache_bytes", config.cache_size());
    w.field_u64("line_bytes", config.line_size());
    w.field_u64("associativity", u64::from(config.associativity()));
    w.field_u64("memory_latency", config.memory_latency());
    w.field_u64("memory_occupancy", config.memory_occupancy());
    w.field_u64("context_switch", config.context_switch());
    w.field_str("protocol", config.protocol().as_str());
    w.end_object();
}

/// A complete run manifest; see the module docs for the intent.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Which entry point produced this manifest (`simulate`, `probe`,
    /// `sweep`, ...).
    pub tool: String,
    /// Application (or trace) name.
    pub app: String,
    /// Trace scale factor, when known (traces loaded from disk lose it).
    pub scale: Option<f64>,
    /// Generation seed, when known.
    pub seed: Option<u64>,
    /// Architecture the run simulated.
    pub config: ArchConfig,
    /// Wall-clock seconds spent in placement + simulation.
    pub wall_secs: f64,
    /// One entry per (algorithm, processors) combination.
    pub entries: Vec<ManifestEntry>,
    /// Engine observability summary, when one was collected.
    pub obs: Option<EngineObsReport>,
}

impl RunManifest {
    /// Starts an empty manifest for `tool` running `app` on `config`.
    pub fn new(tool: &str, app: &str, config: &ArchConfig) -> Self {
        RunManifest {
            tool: tool.to_owned(),
            app: app.to_owned(),
            scale: None,
            seed: None,
            config: *config,
            wall_secs: 0.0,
            entries: Vec::new(),
            obs: None,
        }
    }

    /// Serializes the manifest to a JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", METRICS_SCHEMA);
        w.field_str("tool", &self.tool);
        w.field_str("app", &self.app);
        w.key("scale");
        match self.scale {
            Some(s) => w.value_f64(s),
            None => w.value_null(),
        }
        w.key("seed");
        match self.seed {
            Some(s) => w.value_u64(s),
            None => w.value_null(),
        }
        w.key("config");
        write_config(&mut w, &self.config);
        w.field_f64("wall_secs", self.wall_secs);
        w.key("results");
        w.begin_array();
        for e in &self.entries {
            w.begin_object();
            e.write_fields(&mut w);
            w.end_object();
        }
        w.end_array();
        w.key("obs");
        match &self.obs {
            Some(report) => report.write_json(&mut w),
            None => w.value_null(),
        }
        w.end_object();
        w.finish()
    }

    /// Checks that `json` is a valid manifest of this schema: a single
    /// strictly-parsed JSON document (no trailing garbage, no duplicate
    /// keys), the schema tag, every required key, and the right type on
    /// each required field.
    ///
    /// Every manifest writer in the workspace validates its own output
    /// through this before touching the filesystem, so a schema drift
    /// fails the producing run instead of a downstream consumer.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(json: &str) -> Result<(), String> {
        if !json::balanced(json) {
            return Err("manifest JSON has unbalanced delimiters".into());
        }
        let doc = json::parse(json).map_err(|e| format!("manifest JSON rejected: {e}"))?;
        json::require_keys(
            json,
            &[
                "schema",
                "tool",
                "app",
                "scale",
                "seed",
                "config",
                "cache_bytes",
                "wall_secs",
                "results",
                "obs",
            ],
        )?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(METRICS_SCHEMA) {
            return Err(format!("manifest is not schema {METRICS_SCHEMA}"));
        }
        for key in ["tool", "app"] {
            if doc.get(key).and_then(JsonValue::as_str).is_none() {
                return Err(format!("manifest field \"{key}\" is not a string"));
            }
        }
        if doc.get("wall_secs").and_then(JsonValue::as_f64).is_none() {
            return Err("manifest field \"wall_secs\" is not a number".into());
        }
        let results = doc
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or("manifest field \"results\" is not an array")?;
        for (i, entry) in results.iter().enumerate() {
            if entry.get("algorithm").and_then(JsonValue::as_str).is_none() {
                return Err(format!("results[{i}].algorithm is not a string"));
            }
            for key in [
                "processors",
                "execution_time",
                "total_refs",
                "total_misses",
                "coherence_traffic",
            ] {
                if entry.get(key).and_then(JsonValue::as_u64).is_none() {
                    return Err(format!("results[{i}].{key} is not an unsigned integer"));
                }
            }
            if entry.get("miss_rate").and_then(JsonValue::as_f64).is_none() {
                return Err(format!("results[{i}].miss_rate is not a number"));
            }
        }
        Ok(())
    }

    /// Parses a manifest document back into a [`RunManifest`].
    ///
    /// Tolerant where tolerance is safe: entries missing the miss
    /// taxonomy (pre-taxonomy manifests) get zeros, and an embedded
    /// `obs` report is not reconstructed (`obs` comes back `None` —
    /// the aggregator only consumes the tabular fields).
    ///
    /// # Errors
    ///
    /// Anything [`RunManifest::validate`] rejects, plus a config block
    /// that does not describe a buildable architecture.
    pub fn parse(json: &str) -> Result<Self, String> {
        Self::validate(json)?;
        let doc = json::parse(json).map_err(|e| format!("manifest JSON rejected: {e}"))?;
        // Validation above already type-checked these fields, but parse
        // stays defensive: no panic paths on externally supplied data.
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("manifest field {key:?} is not a string"))
        };

        let cfg = doc.get("config").ok_or("manifest has no config block")?;
        let cfg_u64 = |key: &str| -> Result<u64, String> {
            cfg.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("config.{key} is not an unsigned integer"))
        };
        // Additive field: pre-protocol manifests have no config.protocol
        // and mean the paper's write-invalidate machine.
        let protocol = match cfg.get("protocol") {
            None => Protocol::Wi,
            Some(v) => v
                .as_str()
                .ok_or_else(|| "config.protocol is not a string".to_owned())?
                .parse::<Protocol>()
                .map_err(|e| e.to_string())?,
        };
        let config = ArchConfig::builder()
            .cache_size(cfg_u64("cache_bytes")?)
            .line_size(cfg_u64("line_bytes")?)
            .associativity(
                u32::try_from(cfg_u64("associativity")?)
                    .map_err(|_| "config.associativity exceeds u32".to_owned())?,
            )
            .memory_latency(cfg_u64("memory_latency")?)
            .memory_occupancy(cfg_u64("memory_occupancy")?)
            .context_switch(cfg_u64("context_switch")?)
            .protocol(protocol)
            .build()
            .map_err(|e| format!("manifest config is not buildable: {e}"))?;

        let results = doc
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or("manifest field \"results\" is not an array")?;
        let entries = results
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let u = |key: &str| -> Result<u64, String> {
                    entry
                        .get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("results[{i}].{key} is not an unsigned integer"))
                };
                // Taxonomy fields are additive-in-v1: absent means zero.
                let opt_u = |key: &str| entry.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                Ok(ManifestEntry {
                    algorithm: entry
                        .get("algorithm")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("results[{i}].algorithm is not a string"))?
                        .to_owned(),
                    processors: u("processors")? as usize,
                    execution_time: u("execution_time")?,
                    total_refs: u("total_refs")?,
                    total_misses: u("total_misses")?,
                    miss_rate: entry
                        .get("miss_rate")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("results[{i}].miss_rate is not a number"))?,
                    coherence_traffic: u("coherence_traffic")?,
                    update_traffic: opt_u("update_traffic"),
                    misses: MissBreakdown {
                        compulsory: opt_u("compulsory"),
                        intra_thread_conflict: opt_u("intra_thread_conflict"),
                        inter_thread_conflict: opt_u("inter_thread_conflict"),
                        invalidation: opt_u("invalidation"),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        Ok(RunManifest {
            tool: str_field("tool")?,
            app: str_field("app")?,
            scale: doc.get("scale").and_then(JsonValue::as_f64),
            seed: doc.get("seed").and_then(JsonValue::as_u64),
            config,
            wall_secs: doc
                .get("wall_secs")
                .and_then(JsonValue::as_f64)
                .ok_or("manifest field \"wall_secs\" is not a number")?,
            entries,
            obs: None,
        })
    }

    /// Validates and atomically writes the manifest to `path` (tempfile
    /// sibling + rename, so a crash never leaves a truncated document).
    ///
    /// # Errors
    ///
    /// Returns a description of a schema self-check failure or an I/O
    /// error.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let json = self.to_json();
        Self::validate(&json).map_err(|e| format!("manifest self-check failed: {e}"))?;
        sink::write_atomic(path, json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("test", "water", &ArchConfig::paper_default());
        m.scale = Some(0.01);
        m.seed = Some(1994);
        m.wall_secs = 1.25;
        m.entries.push(ManifestEntry {
            algorithm: "LOAD-BAL".into(),
            processors: 4,
            execution_time: 1000,
            total_refs: 500,
            total_misses: 50,
            miss_rate: 0.1,
            coherence_traffic: 7,
            update_traffic: 0,
            misses: MissBreakdown::default(),
        });
        m
    }

    #[test]
    fn manifest_json_is_valid_and_complete() {
        let json = sample().to_json();
        RunManifest::validate(&json).unwrap();
        assert!(json.contains("\"algorithm\": \"LOAD-BAL\""));
        assert!(json.contains("\"cache_bytes\": 65536"));
        assert!(json.contains("\"seed\": 1994"));
    }

    #[test]
    fn unknown_values_serialize_as_null() {
        let m = RunManifest::new("test", "loaded", &ArchConfig::paper_default());
        let json = m.to_json();
        RunManifest::validate(&json).unwrap();
        assert!(json.contains("\"scale\": null"));
        assert!(json.contains("\"seed\": null"));
        assert!(json.contains("\"obs\": null"));
    }

    #[test]
    fn obs_report_is_embedded() {
        let mut m = sample();
        m.obs = Some(EngineObsReport::default());
        let json = m.to_json();
        RunManifest::validate(&json).unwrap();
        assert!(json.contains("\"enabled\": true"));
    }

    #[test]
    fn validation_rejects_drift() {
        assert!(RunManifest::validate("{}").is_err());
        assert!(RunManifest::validate("{\"schema\": \"placesim-metrics-v1\"").is_err());
        let wrong = sample().to_json().replace(METRICS_SCHEMA, "other-schema");
        assert!(RunManifest::validate(&wrong).is_err());
    }

    #[test]
    fn validation_rejects_duplicate_keys() {
        let json = sample().to_json();
        let dup = json.replacen(
            "\"tool\": \"test\"",
            "\"tool\": \"test\", \"tool\": \"twice\"",
            1,
        );
        let err = RunManifest::validate(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn validation_rejects_trailing_garbage() {
        let json = sample().to_json();
        let err = RunManifest::validate(&format!("{json} trailing")).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        assert!(RunManifest::validate(&format!("{json}{json}")).is_err());
    }

    #[test]
    fn validation_rejects_wrong_type_fields() {
        let json = sample().to_json();
        for (good, bad) in [
            ("\"tool\": \"test\"", "\"tool\": 7"),
            ("\"wall_secs\": 1.25", "\"wall_secs\": \"fast\""),
            ("\"execution_time\": 1000", "\"execution_time\": -3"),
            ("\"execution_time\": 1000", "\"execution_time\": 10.5"),
            ("\"miss_rate\": 0.1", "\"miss_rate\": null"),
            ("\"algorithm\": \"LOAD-BAL\"", "\"algorithm\": []"),
        ] {
            let mutated = json.replacen(good, bad, 1);
            assert_ne!(mutated, json, "pattern {good:?} not found");
            assert!(RunManifest::validate(&mutated).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_round_trips_everything_the_writer_emits() {
        let mut m = sample();
        m.entries.push(ManifestEntry {
            algorithm: "RANDOM".into(),
            processors: 8,
            execution_time: 2000,
            total_refs: 900,
            total_misses: 90,
            miss_rate: 0.15,
            coherence_traffic: 11,
            update_traffic: 6,
            misses: MissBreakdown {
                compulsory: 40,
                intra_thread_conflict: 20,
                inter_thread_conflict: 10,
                invalidation: 20,
            },
        });
        let back = RunManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // An embedded obs report is ignored on the way back in, not
        // rejected.
        m.obs = Some(EngineObsReport::default());
        let back = RunManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back.obs, None);
        assert_eq!(back.entries, m.entries);
    }

    #[test]
    fn parse_tolerates_pre_taxonomy_entries() {
        // Strip the additive taxonomy fields, as a PR-3-era manifest
        // would look: the entry parses with a zero breakdown.
        let json = sample().to_json();
        let stripped = json
            .replacen(", \"compulsory\": 0", "", 1)
            .replacen(", \"intra_thread_conflict\": 0", "", 1)
            .replacen(", \"inter_thread_conflict\": 0", "", 1)
            .replacen(", \"invalidation\": 0", "", 1);
        assert_ne!(stripped, json);
        let back = RunManifest::parse(&stripped).unwrap();
        assert_eq!(back.entries[0].misses, MissBreakdown::default());
    }

    #[test]
    fn write_is_atomic_and_validated() {
        let dir = std::env::temp_dir().join("placesim-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        sample().write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        RunManifest::validate(&body).unwrap();
        assert!(!placesim_obs::sink::tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
