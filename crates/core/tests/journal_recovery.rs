//! Hostile-input suite for the checksummed line logs: recovery must keep
//! the longest valid prefix and report exactly what was dropped —
//! truncated final lines, interleaved garbage, duplicate cells, bad
//! checksums, invalid UTF-8, empty lines, CRLF endings.
//!
//! The framing cases run twice: against the sweep journal
//! (`placesim-journal-v1`, recovered by [`recover`]) and against the
//! placement service's record log (`placesim-service-v1`, recovered by
//! [`RecordLog::open`], which must also truncate the file to the kept
//! prefix).

use placesim::journal::{recover, DroppedLine, JournalCell, JournalError, JournalHeader};
use placesim::manifest::ManifestEntry;
use placesim::RecordLog;
use placesim_machine::{ArchConfig, MissBreakdown};
use placesim_trace::hash::fnv1a64;
use std::path::PathBuf;

fn header() -> JournalHeader {
    JournalHeader {
        app: "water".into(),
        scale: 0.002,
        seed: 3,
        config: ArchConfig::paper_default(),
        algorithms: vec!["RANDOM".into(), "LOAD-BAL".into()],
        processors: vec![2, 4],
    }
}

fn cell(index: usize) -> JournalCell {
    let h = header();
    let (algo, procs) = h.cell(index).expect("index in grid");
    JournalCell {
        index,
        attempts: 1,
        entry: ManifestEntry {
            algorithm: algo.to_owned(),
            processors: procs,
            execution_time: 10_000 + index as u64,
            total_refs: 5_000,
            total_misses: 500,
            miss_rate: 0.1,
            coherence_traffic: 42,
            update_traffic: 0,
            misses: MissBreakdown {
                compulsory: 200,
                intra_thread_conflict: 100,
                inter_thread_conflict: 100,
                invalidation: 100,
            },
        },
    }
}

/// A journal holding the header plus the given cells, as bytes.
fn journal(cells: &[usize]) -> Vec<u8> {
    let mut text = header().to_line();
    for &i in cells {
        text.push_str(&cell(i).to_line());
    }
    text.into_bytes()
}

const SERVICE_SCHEMA: &str = "placesim-service-v1";

/// The two logs sharing the `<crc16hex> <json>\n` line format.
#[derive(Clone, Copy, Debug)]
enum Log {
    /// The sweep journal: line 1 is the header, line `i + 2` is cell `i`.
    Sweep,
    /// The service record log: line `i + 1` is a `job` record with id `i`.
    Service,
}

const LOGS: [Log; 2] = [Log::Sweep, Log::Service];

/// What one recovery kept and dropped.
struct Recovered {
    /// Records in the valid prefix (the sweep header counts as one).
    kept: usize,
    dropped: Vec<DroppedLine>,
    valid_bytes: u64,
}

impl Log {
    /// Valid record `i` of this log (the sweep's record 0 is its header).
    fn record(self, i: usize) -> String {
        match self {
            Log::Sweep if i == 0 => header().to_line(),
            Log::Sweep => cell(i - 1).to_line(),
            Log::Service => {
                let payload =
                    format!("{{\"schema\": \"{SERVICE_SCHEMA}\", \"kind\": \"job\", \"id\": {i}}}");
                format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()))
            }
        }
    }

    /// Records `0..n` as bytes.
    fn prefix(self, n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| self.record(i).into_bytes()).collect()
    }

    /// Recovers `data`. The service log is written to a file and opened;
    /// the open must leave exactly the kept prefix on disk.
    fn recover(self, tag: &str, data: &[u8]) -> Recovered {
        match self {
            Log::Sweep => {
                let rec = recover(data).unwrap();
                Recovered {
                    kept: 1 + rec.cells.len(),
                    dropped: rec.dropped,
                    valid_bytes: rec.valid_bytes,
                }
            }
            Log::Service => {
                let dir = tmp_dir(tag);
                let path = dir.join("service.journal");
                std::fs::write(&path, data).unwrap();
                let (log, rec) = RecordLog::open(&path, SERVICE_SCHEMA).unwrap();
                assert_eq!(log.committed_bytes(), rec.valid_bytes);
                assert_eq!(
                    std::fs::metadata(&path).unwrap().len(),
                    rec.valid_bytes,
                    "open must truncate the log to its valid prefix"
                );
                drop(log);
                std::fs::remove_dir_all(&dir).ok();
                Recovered {
                    kept: rec.records.len(),
                    dropped: rec.dropped,
                    valid_bytes: rec.valid_bytes,
                }
            }
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placesim-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn truncated_final_line_is_dropped_and_prefix_kept() {
    for log in LOGS {
        let mut data = log.prefix(3);
        let good_len = data.len() as u64;
        let torn = log.record(3);
        data.extend_from_slice(&torn.as_bytes()[..torn.len() - 7]); // no '\n'
        let rec = log.recover("torn", &data);
        assert_eq!(rec.kept, 3, "{log:?}");
        assert_eq!(rec.valid_bytes, good_len, "{log:?}");
        assert_eq!(rec.dropped.len(), 1, "{log:?}");
        assert_eq!(rec.dropped[0].line, 4, "{log:?}");
        assert!(rec.dropped[0].reason.contains("torn"), "{:?}", rec.dropped);
    }
}

#[test]
fn interleaved_garbage_ends_the_prefix_and_survivors_are_reported() {
    for log in LOGS {
        let mut data = log.prefix(2);
        let good_len = data.len() as u64;
        data.extend_from_slice(b"!!! interleaved garbage !!!\n");
        data.extend_from_slice(log.record(2).as_bytes()); // valid, but after garbage
        data.extend_from_slice(log.record(3).as_bytes());
        let rec = log.recover("garbage", &data);
        // Longest valid prefix only. The two structurally valid lines
        // after the garbage are NOT resurrected — out-of-prefix data
        // cannot be trusted to be a crash artifact boundary.
        assert_eq!(rec.kept, 2, "{log:?}");
        assert_eq!(rec.valid_bytes, good_len, "{log:?}");
        assert_eq!(rec.dropped.len(), 3, "{log:?}");
        assert!(
            rec.dropped[0].reason.contains("checksum"),
            "{log:?}: {:?}",
            rec.dropped[0]
        );
        for d in &rec.dropped[1..] {
            assert!(
                d.reason.contains("follows invalid line 3"),
                "{log:?}: dropped line {} reason {:?}",
                d.line,
                d.reason
            );
        }
    }
}

#[test]
fn duplicate_cell_entries_end_the_prefix() {
    let mut data = journal(&[0, 1]);
    let good_len = data.len() as u64;
    data.extend_from_slice(cell(1).to_line().as_bytes()); // duplicate of index 1
    data.extend_from_slice(cell(2).to_line().as_bytes());
    let rec = recover(&data).unwrap();
    assert_eq!(rec.cells.len(), 2);
    assert_eq!(rec.valid_bytes, good_len);
    assert_eq!(rec.dropped.len(), 2);
    assert!(
        rec.dropped[0].reason.contains("duplicate entry for cell 1"),
        "{:?}",
        rec.dropped[0]
    );
}

#[test]
fn crlf_line_endings_are_tolerated() {
    for log in LOGS {
        let text = String::from_utf8(log.prefix(5)).unwrap();
        let crlf = text.replace('\n', "\r\n");
        let rec = log.recover("crlf", crlf.as_bytes());
        assert_eq!(rec.kept, 5, "{log:?}");
        assert!(rec.dropped.is_empty(), "{log:?}: {:?}", rec.dropped);
        assert_eq!(rec.valid_bytes, crlf.len() as u64, "{log:?}");
    }
}

#[test]
fn corrupted_checksum_ends_the_prefix() {
    for log in LOGS {
        let mut data = log.prefix(2);
        let good_len = data.len() as u64;
        let mut bad = log.record(2).into_bytes();
        // Flip one payload byte; the CRC no longer matches.
        let mid = bad.len() / 2;
        bad[mid] = bad[mid].wrapping_add(1);
        data.extend_from_slice(&bad);
        let rec = log.recover("checksum", &data);
        assert_eq!(rec.kept, 2, "{log:?}");
        assert_eq!(rec.valid_bytes, good_len, "{log:?}");
        assert_eq!(rec.dropped.len(), 1, "{log:?}");
        assert!(
            rec.dropped[0].reason.contains("checksum mismatch"),
            "{log:?}: {:?}",
            rec.dropped[0]
        );
    }
}

#[test]
fn invalid_utf8_ends_the_prefix() {
    for log in LOGS {
        let mut data = log.prefix(2);
        let good_len = data.len() as u64;
        data.extend_from_slice(b"\xff\xfe broken bytes \xff\n");
        data.extend_from_slice(log.record(2).as_bytes());
        let rec = log.recover("utf8", &data);
        assert_eq!(rec.kept, 2, "{log:?}");
        assert_eq!(rec.valid_bytes, good_len, "{log:?}");
        assert_eq!(rec.dropped.len(), 2, "{log:?}");
        assert!(
            rec.dropped[0].reason.contains("UTF-8"),
            "{log:?}: {:?}",
            rec.dropped[0]
        );
    }
}

#[test]
fn empty_line_ends_the_prefix() {
    for log in LOGS {
        let mut data = log.prefix(2);
        let good_len = data.len() as u64;
        data.extend_from_slice(b"\n");
        data.extend_from_slice(log.record(2).as_bytes());
        let rec = log.recover("empty", &data);
        assert_eq!(rec.kept, 2, "{log:?}");
        assert_eq!(rec.valid_bytes, good_len, "{log:?}");
        assert_eq!(rec.dropped.len(), 2, "{log:?}");
        assert!(
            rec.dropped[0].reason.contains("empty"),
            "{log:?}: {:?}",
            rec.dropped[0]
        );
        assert!(
            rec.dropped[1].reason.contains("follows invalid line 3"),
            "{log:?}: {:?}",
            rec.dropped[1]
        );
    }
}

#[test]
fn out_of_grid_and_mismatched_cells_end_the_prefix() {
    // Cell index past the 2x2 grid.
    let mut rogue = cell(0);
    rogue.index = 99;
    let mut data = journal(&[0]);
    data.extend_from_slice(rogue.to_line().as_bytes());
    let rec = recover(&data).unwrap();
    assert_eq!(rec.cells.len(), 1);
    assert!(
        rec.dropped[0].reason.contains("outside the grid"),
        "{:?}",
        rec.dropped[0]
    );

    // Cell whose labels disagree with its index's grid slot.
    let mut liar = cell(2);
    liar.entry.algorithm = "RANDOM".into(); // grid says LOAD-BAL at 2
    let mut data = journal(&[0]);
    data.extend_from_slice(liar.to_line().as_bytes());
    let rec = recover(&data).unwrap();
    assert_eq!(rec.cells.len(), 1);
    assert!(
        rec.dropped[0].reason.contains("grid says"),
        "{:?}",
        rec.dropped[0]
    );
}

#[test]
fn wrong_record_kind_in_cell_position_ends_the_prefix() {
    // A second header line where a cell should be.
    let mut data = journal(&[0]);
    data.extend_from_slice(header().to_line().as_bytes());
    let rec = recover(&data).unwrap();
    assert_eq!(rec.cells.len(), 1);
    assert!(
        rec.dropped[0].reason.contains("unexpected record kind"),
        "{:?}",
        rec.dropped[0]
    );
}

#[test]
fn unreadable_header_is_corrupt_not_recoverable() {
    // Empty file, plain garbage, torn header, cell-first: all Corrupt.
    for data in [
        Vec::new(),
        b"garbage\n".to_vec(),
        header().to_line().as_bytes()[..20].to_vec(),
        cell(0).to_line().into_bytes(),
    ] {
        assert!(
            matches!(recover(&data), Err(JournalError::Corrupt(_))),
            "{:?} should be corrupt",
            String::from_utf8_lossy(&data)
        );
    }
}

#[test]
fn pristine_journal_recovers_fully_with_exact_byte_count() {
    let data = journal(&[0, 1, 2, 3]);
    let rec = recover(&data).unwrap();
    assert_eq!(rec.header, header());
    assert_eq!(rec.cells.len(), 4);
    assert!(rec.dropped.is_empty());
    assert_eq!(rec.valid_bytes, data.len() as u64);
    for (i, c) in rec.cells.iter().enumerate() {
        assert_eq!(*c, cell(i));
    }
}

#[test]
fn out_of_order_commits_are_valid() {
    // Parallel sweeps commit cells in completion order, not grid order.
    let data = journal(&[3, 0, 2, 1]);
    let rec = recover(&data).unwrap();
    assert_eq!(rec.cells.len(), 4);
    assert!(rec.dropped.is_empty());
    assert_eq!(rec.cell(2), Some(&cell(2)));
}

#[test]
fn journal_lines_are_pinned_byte_for_byte() {
    // The on-disk format, checksum included. Journals written by any
    // earlier build must resume under this one, so these bytes may only
    // change together with JOURNAL_SCHEMA.
    assert_eq!(
        header().to_line(),
        concat!(
            r#"9f5b5ab239b4424a {"schema": "placesim-journal-v1", "kind": "header", "#,
            r#""app": "water", "scale": 0.002, "seed": 3, "config": {"cache_bytes": 65536, "#,
            r#""line_bytes": 32, "associativity": 1, "memory_latency": 50, "#,
            r#""memory_occupancy": 0, "context_switch": 6, "protocol": "wi"}, "#,
            r#""algorithms": ["RANDOM", "LOAD-BAL"], "processors": [2, 4]}"#,
            "\n"
        )
    );
    assert_eq!(
        cell(2).to_line(),
        concat!(
            r#"7283ca0e8e7fdc0b {"schema": "placesim-journal-v1", "kind": "cell", "index": 2, "#,
            r#""attempts": 1, "algorithm": "LOAD-BAL", "processors": 2, "#,
            r#""execution_time": 10002, "total_refs": 5000, "total_misses": 500, "#,
            r#""miss_rate": 0.1, "coherence_traffic": 42, "update_traffic": 0, "#,
            r#""compulsory": 200, "intra_thread_conflict": 100, "#,
            r#""inter_thread_conflict": 100, "invalidation": 100}"#,
            "\n"
        )
    );
}
