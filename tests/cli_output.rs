//! `placesim-cli` output into a pipe whose reader has already gone, as
//! in `placesim-cli suite | head -1`: the command must end quietly, not
//! panic with "failed printing to stdout" and exit code 101.
#![cfg(unix)]

use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_placesim-cli");

/// Runs the CLI with `args`, its stdout the write end of a pipe whose
/// read end is closed before the child starts, so its first write fails
/// with `EPIPE`.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(BIN)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn placesim-cli")
        .wait_with_output()
        .expect("wait for placesim-cli")
}

fn assert_quiet_exit(args: &[&str]) {
    let out = run_into_closed_pipe(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
}

#[test]
fn suite_into_closed_pipe_exits_quietly() {
    assert_quiet_exit(&["suite"]);
}

#[test]
fn place_into_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("placesim-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace = dir.join("water.trace");
    let trace = trace.to_str().expect("utf-8 path");
    let gen = Command::new(BIN)
        .args(["gen", "water", trace, "--scale", "0.002", "--seed", "3"])
        .stdout(Stdio::null())
        .status()
        .expect("run gen");
    assert!(gen.success(), "gen failed: {gen}");
    assert_quiet_exit(&["place", trace, "SHARE-REFS", "4"]);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
