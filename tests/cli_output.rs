//! `placesim-cli` output as a user sees it. Into a pipe whose reader has
//! already gone, as in `placesim-cli suite | head -1`, the command must
//! end quietly, not panic with "failed printing to stdout" and exit code
//! 101. And `analyze`'s output must not depend on the out-of-core spill
//! budget it reads from the environment.
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

/// `analyze` profiles a v4 trace out of core under the
/// `PLACESIM_SPILL_ADDRS` budget. Unset, unparsable and 0 all give the
/// default budget, and a budget of 1 address spills every thread; the
/// analysis is the same either way, and the same as the in-memory
/// analysis of the trace written as v2.
#[test]
fn analyze_output_ignores_the_spill_budget() {
    let dir = std::env::temp_dir().join(format!("placesim-cli-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let gen = |format: &str| {
        let trace = dir.join(format!("water.{format}.trace"));
        let trace = trace.to_str().expect("utf-8 path").to_owned();
        let status = Command::new(BIN)
            .args(["gen", "water", &trace, "--scale", "0.002", "--seed", "3"])
            .args(["--format", format])
            .stdout(Stdio::null())
            .status()
            .expect("run gen");
        assert!(status.success(), "gen --format {format} failed: {status}");
        trace
    };
    let analyze = |trace: &str, budget: Option<&str>| {
        let mut cmd = Command::new(BIN);
        cmd.args(["analyze", trace]);
        match budget {
            Some(value) => cmd.env("PLACESIM_SPILL_ADDRS", value),
            None => cmd.env_remove("PLACESIM_SPILL_ADDRS"),
        };
        let out = cmd.output().expect("run analyze");
        assert!(out.status.success(), "analyze under {budget:?} failed");
        out.stdout
    };
    let v4 = gen("v4");
    let unset = analyze(&v4, None);
    assert!(!unset.is_empty());
    for budget in ["0", "lots", "1"] {
        assert!(
            analyze(&v4, Some(budget)) == unset,
            "PLACESIM_SPILL_ADDRS={budget} changed the analysis"
        );
    }
    assert!(analyze(&gen("v2"), None) == unset, "v2 and v4 disagree");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
