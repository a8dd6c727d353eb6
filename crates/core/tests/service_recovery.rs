//! Durable-queue recovery and lockfile tests for the placement
//! service: jobs journaled before acknowledgment survive a crash and
//! resume to byte-identical results; a service directory admits one
//! daemon at a time; stale locks from dead PIDs are reclaimed.

use placesim::service::{
    LockFile, PlacementService, ServiceConfig, ServiceError, SERVICE_JOURNAL, SERVICE_LOCK,
};
use placesim_obs::json::{self, JsonValue};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placesim-service-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn quick(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 8,
        job_timeout: None,
        max_attempts: 2,
        backoff: None,
        cache_capacity: 8,
    }
}

fn submit_line(job: &str) -> String {
    format!("{{\"schema\": \"placesim-service-v1\", \"op\": \"submit\", \"job\": {job}}}")
}

fn wait_line(id: u64) -> String {
    format!(
        "{{\"schema\": \"placesim-service-v1\", \"op\": \"wait\", \"id\": {id}, \
         \"timeout_ms\": 60000}}"
    )
}

const SIM_JOB: &str = "{\"op\": \"simulate\", \"app\": \"water\", \"scale\": 0.002, \
                       \"seed\": 3, \"algorithms\": [\"LOAD-BAL\"], \"processors\": [4]}";

/// Runs a job to completion and returns the embedded result bytes.
fn run_to_result(svc: &PlacementService, job: &str) -> String {
    let resp = svc.handle_request(&submit_line(job));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{resp}"
    );
    let id = doc.get("id").and_then(JsonValue::as_u64).unwrap();
    let resp = svc.handle_request(&wait_line(id));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("done"),
        "{resp}"
    );
    doc.get("result")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_owned()
}

#[test]
fn accepted_job_survives_crash_and_resumes_byte_identically() {
    // Reference run: an uninterrupted daemon.
    let ref_dir = tmp_dir("crash-ref");
    let (ref_svc, _) = PlacementService::start(&ref_dir, quick(1)).unwrap();
    let expected = run_to_result(&ref_svc, SIM_JOB);
    ref_svc.drain_and_join();

    // Crashing run: accept with zero workers (the job is journaled but
    // never starts), then drop the service without draining — the
    // in-memory queue is gone, the journal survives.
    let dir = tmp_dir("crash");
    let (svc, recovery) = PlacementService::start(&dir, quick(0)).unwrap();
    assert!(recovery.resumed.is_empty());
    let resp = svc.handle_request(&submit_line(SIM_JOB));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
    let id = doc.get("id").and_then(JsonValue::as_u64).unwrap();
    svc.drain_and_join();
    drop(svc);

    // Restart: the journaled job is re-enqueued and runs to the same
    // bytes the uninterrupted daemon produced.
    let (svc, recovery) = PlacementService::start(&dir, quick(1)).unwrap();
    assert_eq!(recovery.resumed, vec![id]);
    let resp = svc.handle_request(&wait_line(id));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    let resumed = doc.get("result").and_then(JsonValue::as_str).unwrap();
    assert_eq!(resumed, expected, "resumed result must be byte-identical");
    svc.drain_and_join();
    drop(svc);

    // A third start replays the done record: no re-execution, the same
    // bytes straight from the journal, and a cache-hit dedup on submit.
    let (svc, recovery) = PlacementService::start(&dir, quick(1)).unwrap();
    assert!(recovery.resumed.is_empty());
    assert_eq!(recovery.completed, 1);
    let resp = svc.handle_request(&submit_line(SIM_JOB));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(doc.get("id").and_then(JsonValue::as_u64), Some(id));
    let resp = svc.handle_request(&wait_line(id));
    let doc = json::parse(&resp).unwrap();
    let replayed = doc.get("result").and_then(JsonValue::as_str).unwrap();
    assert_eq!(replayed, expected);
    svc.drain_and_join();

    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_daemon_is_locked_out() {
    let dir = tmp_dir("locked");
    let (svc, _) = PlacementService::start(&dir, quick(0)).unwrap();
    // Same process counts as live: the second start must refuse.
    match PlacementService::start(&dir, quick(0)) {
        Err(ServiceError::Locked { pid }) => {
            assert_eq!(pid, Some(std::process::id()));
        }
        other => panic!("expected Locked, got {other:?}"),
    }
    svc.drain_and_join();
    drop(svc);
    // After a clean shutdown the lock is released.
    let (svc, _) = PlacementService::start(&dir, quick(0)).unwrap();
    svc.drain_and_join();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_lock_from_dead_pid_is_reclaimed() {
    let dir = tmp_dir("stale");
    // Forge a lockfile naming a PID that can't be alive. PID 1 is
    // always alive; near-u32::MAX is beyond any real pid_max.
    fs::write(dir.join(SERVICE_LOCK), "4294967294\n").unwrap();
    let (svc, _) = PlacementService::start(&dir, quick(0)).expect("stale lock must be reclaimed");
    svc.drain_and_join();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreadable_lock_is_never_reclaimed() {
    let dir = tmp_dir("junklock");
    // A lockfile with no parseable PID: conservatively treated as held.
    fs::write(dir.join(SERVICE_LOCK), "not a pid\n").unwrap();
    match PlacementService::start(&dir, quick(0)) {
        Err(ServiceError::Locked { pid: None }) => {}
        other => panic!("expected Locked without a pid, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lockfile_api_round_trips() {
    let dir = tmp_dir("lockapi");
    let path = dir.join(SERVICE_LOCK);
    let lock = LockFile::acquire(&path).unwrap();
    assert!(path.exists());
    assert!(matches!(
        LockFile::acquire(&path),
        Err(ServiceError::Locked { .. })
    ));
    drop(lock);
    assert!(!path.exists(), "drop must release the lock");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_leaves_queued_jobs_journaled_for_the_next_start() {
    let dir = tmp_dir("drain");
    let (svc, _) = PlacementService::start(&dir, quick(0)).unwrap();
    let resp = svc.handle_request(&submit_line(SIM_JOB));
    let id = json::parse(&resp)
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_u64)
        .unwrap();
    svc.drain_and_join();
    // Draining rejects new submissions with the typed kind.
    let resp = svc.handle_request(&submit_line(&SIM_JOB.replace("\"seed\": 3", "\"seed\": 4")));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("error").and_then(JsonValue::as_str),
        Some("draining")
    );
    drop(svc);

    let (svc, recovery) = PlacementService::start(&dir, quick(1)).unwrap();
    assert_eq!(recovery.resumed, vec![id]);
    let resp = svc.handle_request(&wait_line(id));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    svc.drain_and_join();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_timeouts_count_abandoned_threads() {
    // A 1 ns watchdog fires on every attempt; with 2 attempts the job
    // fails permanently, and every timeout is also an abandonment.
    let dir = tmp_dir("watchdog");
    let cfg = ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        job_timeout: Some(Duration::from_nanos(1)),
        max_attempts: 2,
        backoff: None,
        cache_capacity: 8,
    };
    let (svc, _) = PlacementService::start(&dir, cfg).unwrap();
    let resp = svc.handle_request(&submit_line(SIM_JOB));
    let id = json::parse(&resp)
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let resp = svc.handle_request(&wait_line(id));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("failed"));
    let faults = svc.fault_counters();
    assert_eq!(faults.timeouts, 2);
    assert_eq!(faults.abandoned, 2);
    assert_eq!(faults.retries, 1);
    svc.drain_and_join();
    fs::remove_dir_all(&dir).ok();
}

/// The journal of `journal_records_are_pinned_byte_for_byte`: an
/// analyze job that completes, then one that fails.
const JOB1: &str = concat!(
    r#"5f7a130c74aaae5f {"schema": "placesim-service-v1", "kind": "job", "id": 1, "#,
    r#""job": {"op": "analyze", "app": "water", "scale": 0.002, "seed": 3, "#,
    r#""protocol": null, "algorithms": [], "processors": []}}"#
);
const DONE1: &str = concat!(
    r#"6c0e8e4786429454 {"schema": "placesim-service-v1", "kind": "done", "id": 1, "#,
    r#""result": "{\"schema\": \"placesim-service-v1\", \"kind\": \"job-result\", "#,
    r#"\"op\": \"analyze\", \"app\": \"water\", "#,
    r#"\"trace_fingerprint\": \"7b64fa62fafd04cc\", \"threads\": 16, "#,
    r#"\"total_refs\": 19446, \"shared_addresses\": 16, \"total_addresses\": 59}"}"#
);
const JOB2: &str = concat!(
    r#"fee2688b246420de {"schema": "placesim-service-v1", "kind": "job", "id": 2, "#,
    r#""job": {"op": "analyze", "app": "no-such-app", "scale": 0.002, "seed": 3, "#,
    r#""protocol": null, "algorithms": [], "processors": []}}"#
);
const FAILED2: &str = concat!(
    r#"77cd028b02a9d860 {"schema": "placesim-service-v1", "kind": "failed", "id": 2, "#,
    r#""reason": "unknown app \"no-such-app\""}"#
);
/// `DONE1` as builds wrote it while `trace_fingerprint` was byte-serial
/// FNV-1a over the trace.
const FNV_DONE1: &str = concat!(
    r#"93ecda1b19e7b185 {"schema": "placesim-service-v1", "kind": "done", "id": 1, "#,
    r#""result": "{\"schema\": \"placesim-service-v1\", \"kind\": \"job-result\", "#,
    r#"\"op\": \"analyze\", \"app\": \"water\", "#,
    r#"\"trace_fingerprint\": \"649b09581c006cee\", \"threads\": 16, "#,
    r#"\"total_refs\": 19446, \"shared_addresses\": 16, \"total_addresses\": 59}"}"#
);

#[test]
fn journal_records_are_pinned_byte_for_byte() {
    // The service journal's on-disk bytes, checksum included, for each
    // record kind: `job` on submit, then `done` or `failed`. A daemon
    // must resume journals written by any earlier build.
    let dir = tmp_dir("pinned");
    let (svc, _) = PlacementService::start(&dir, quick(1)).unwrap();
    let analyze = "{\"op\": \"analyze\", \"app\": \"water\", \"scale\": 0.002, \"seed\": 3}";
    run_to_result(&svc, analyze);
    let resp = svc.handle_request(&submit_line(&analyze.replace("water", "no-such-app")));
    let id = json::parse(&resp)
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let resp = svc.handle_request(&wait_line(id));
    assert!(resp.contains("\"state\": \"failed\""), "{resp}");
    svc.drain_and_join();
    drop(svc);

    let journal = fs::read_to_string(dir.join(SERVICE_JOURNAL)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines, [JOB1, DONE1, JOB2, FAILED2]);
    assert!(journal.ends_with('\n'));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_from_an_fnv_build_resumes_and_serves_its_bytes() {
    // A journal written before the fingerprint changed: its stored
    // result keeps its FNV fingerprint, byte for byte, and is served
    // from the journal rather than computed again.
    let dir = tmp_dir("fnv-journal");
    let journal = [JOB1, FNV_DONE1, JOB2, FAILED2]
        .map(|line| format!("{line}\n"))
        .concat();
    fs::write(dir.join(SERVICE_JOURNAL), &journal).unwrap();
    let (svc, recovery) = PlacementService::start(&dir, quick(1)).unwrap();
    assert_eq!(recovery.completed, 1);
    assert_eq!(recovery.failed, 1);
    assert!(recovery.resumed.is_empty(), "{recovery:?}");
    assert_eq!(recovery.dropped, 0);

    let stored = json::parse(FNV_DONE1.split_once(' ').unwrap().1)
        .unwrap()
        .get("result")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_owned();
    assert!(stored.contains("\"trace_fingerprint\": \"649b09581c006cee\""));
    let resp = svc.handle_request(&wait_line(1));
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("done"),
        "{resp}"
    );
    assert_eq!(
        doc.get("result").and_then(JsonValue::as_str),
        Some(&*stored)
    );
    // The same spec again is a cache hit on job 1.
    let analyze = "{\"op\": \"analyze\", \"app\": \"water\", \"scale\": 0.002, \"seed\": 3}";
    let doc = json::parse(&svc.handle_request(&submit_line(analyze))).unwrap();
    assert_eq!(doc.get("cached").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(doc.get("id").and_then(JsonValue::as_u64), Some(1));
    svc.drain_and_join();
    drop(svc);
    // Nothing ran: an executed job would have appended a `done` line.
    assert_eq!(
        fs::read_to_string(dir.join(SERVICE_JOURNAL)).unwrap(),
        journal
    );
    fs::remove_dir_all(&dir).ok();
}
