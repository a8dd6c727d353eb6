//! A paper-table binary writing into a pipe whose reader has already
//! gone, as in `table1 | head -1`: it must end quietly, not panic with
//! "failed printing to stdout" and exit code 101.
#![cfg(unix)]

use std::process::{Command, Stdio};

#[test]
fn table1_into_closed_pipe_exits_quietly() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("PLACESIM_SCALE", "0.005")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn table1")
        .wait_with_output()
        .expect("wait for table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "table1 panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
