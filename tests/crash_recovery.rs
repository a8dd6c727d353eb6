//! Out-of-process crash-consistency proof: SIGKILL a `placesim-cli
//! sweep` mid-run, resume from its journal, and require the final
//! report JSON to be byte-identical to an uninterrupted run's.
//!
//! Gated on the `chaos` feature so it runs in the CI chaos job (the
//! test itself injects no faults — the fault is the SIGKILL — but it
//! belongs to the same crash-recovery acceptance suite).
#![cfg(all(unix, feature = "chaos"))]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_placesim-cli");

/// Sweep shape shared by the interrupted and uninterrupted runs. Twelve
/// cells at a non-trivial scale so a single-threaded child is reliably
/// still mid-sweep when the kill lands.
const SWEEP: &[&str] = &[
    "sweep",
    "water",
    "--scale",
    "0.01",
    "--seed",
    "3",
    "--algos",
    "RANDOM,LOAD-BAL,SHARE-REFS,SHARE-ADDR",
    "--procs",
    "2,4,8",
];

/// A fresh directory per test: the tests run concurrently and each
/// deletes its own directory when done, so they must not share one.
fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "placesim-crash-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sweep_cmd(journal: &Path, report: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(SWEEP)
        .arg("--journal")
        .arg(journal)
        .arg("--report")
        .arg(report);
    if resume {
        cmd.arg("--resume");
    }
    // Single worker paces the child so the journal grows line by line.
    cmd.env("PLACESIM_THREADS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|d| d.iter().filter(|&&b| b == b'\n').count())
        .unwrap_or(0)
}

#[test]
fn sigkilled_sweep_resumes_to_byte_identical_report() {
    let dir = tmp_dir("sigkill");

    // Reference: the uninterrupted run.
    let full_journal = dir.join("full.journal");
    let full_report = dir.join("full-report.json");
    let status = sweep_cmd(&full_journal, &full_report, false)
        .status()
        .expect("spawn uninterrupted sweep");
    assert!(status.success(), "uninterrupted sweep failed: {status}");
    let want = std::fs::read(&full_report).expect("uninterrupted report exists");

    // Victim: kill the child once a few cells are durably committed
    // (header + at least three cell lines) but before it can finish.
    let kill_journal = dir.join("killed.journal");
    let kill_report = dir.join("killed-report.json");
    let mut child = sweep_cmd(&kill_journal, &kill_report, false)
        .spawn()
        .expect("spawn victim sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut outran_the_kill = false;
    loop {
        if journal_lines(&kill_journal) >= 4 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll victim") {
            // The child finished before we could kill it (a very fast
            // machine). The resume below then exercises the committed
            // journal-is-complete path instead — still a valid check,
            // but flag it so the assertion message is honest.
            assert!(status.success(), "victim sweep failed early: {status}");
            outran_the_kill = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "victim sweep never reached 3 committed cells"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    if !outran_the_kill {
        child.kill().expect("SIGKILL victim"); // SIGKILL: no cleanup, no flush
    }
    child.wait().expect("reap victim");

    // Recovery: resume from whatever the kill left behind.
    let status = sweep_cmd(&kill_journal, &kill_report, true)
        .status()
        .expect("spawn resumed sweep");
    assert!(status.success(), "resumed sweep failed: {status}");

    let got = std::fs::read(&kill_report).expect("resumed report exists");
    assert_eq!(
        got,
        want,
        "resumed report must be byte-identical to the uninterrupted run{}",
        if outran_the_kill {
            " (victim finished before the kill)"
        } else {
            ""
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_against_a_mismatched_grid_exits_with_corrupt_journal_code() {
    let dir = tmp_dir("mismatch");
    let journal = dir.join("grid.journal");
    let report = dir.join("grid-report.json");
    let status = sweep_cmd(&journal, &report, false)
        .status()
        .expect("spawn sweep");
    assert!(status.success());

    // Same journal, different grid: refused with the dedicated exit code.
    let status = Command::new(BIN)
        .args([
            "sweep", "water", "--scale", "0.01", "--seed", "3", "--algos", "RANDOM", "--procs",
            "2", "--resume",
        ])
        .arg("--journal")
        .arg(&journal)
        .env("PLACESIM_THREADS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn mismatched resume");
    assert_eq!(
        status.code(),
        Some(4),
        "corrupt/mismatched journal exit code"
    );
    std::fs::remove_dir_all(&dir).ok();
}
