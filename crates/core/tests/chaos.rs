//! Chaos-injection integration suite: a supervised sweep under seeded
//! worker panics, stalls and journal I/O faults must either retry every
//! fault to success or report it as an annotated hole — and the journal
//! on disk must never be left torn.
#![cfg(feature = "chaos")]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use placesim::chaos::ChaosPlan;
use placesim::journal::read_journal;
use placesim::{grid_cells, group_equal_maps, run_supervised_sweep, PreparedApp, SupervisorConfig};
use placesim_obs::FaultCounters;
use placesim_placement::PlacementAlgorithm;
use placesim_workloads::{spec, GenOptions};

const ALGOS: [PlacementAlgorithm; 2] = [PlacementAlgorithm::Random, PlacementAlgorithm::LoadBal];
const PROCS: [usize; 2] = [2, 4];
const CELLS: u64 = 4;

fn tiny() -> Arc<PreparedApp> {
    Arc::new(PreparedApp::prepare(
        &spec("water").unwrap(),
        &GenOptions {
            scale: 0.002,
            seed: 3,
        },
    ))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placesim-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The manifest JSON of a fault-free supervised sweep: chaos runs must
/// converge to exactly this, byte for byte.
fn healthy_manifest(app: &Arc<PreparedApp>, dir: &std::path::Path) -> String {
    let path = dir.join("healthy.journal");
    let sweep =
        run_supervised_sweep(app, &ALGOS, &PROCS, &path, false, &SupervisorConfig::new()).unwrap();
    assert!(sweep.is_complete());
    sweep.manifest().to_json()
}

/// Asserts the on-disk journal is pristine: full grid, nothing dropped.
fn assert_journal_clean(path: &std::path::Path, cells: u64) {
    let rec = read_journal(path).unwrap();
    assert_eq!(rec.cells.len(), cells as usize, "journal missing cells");
    assert!(
        rec.dropped.is_empty(),
        "journal left torn on disk: {:?}",
        rec.dropped
    );
}

#[test]
fn worker_panics_are_retried_to_identical_results() {
    let dir = tmp_dir("panics");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new()
        .with_max_attempts(3)
        .with_chaos(ChaosPlan::new(7).with_panics(1000));
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert!(sweep.holes.is_empty());
    assert_eq!(sweep.faults.panics, CELLS, "every cell panics once");
    assert_eq!(sweep.faults.retries, CELLS);
    for cell in &sweep.cells {
        assert_eq!(cell.attempts, 2, "cell {} retried exactly once", cell.index);
    }
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_workers_trip_the_watchdog_and_are_retried() {
    let dir = tmp_dir("stalls");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    // Every first attempt stalls far past the watchdog; the abandoned
    // worker threads are left to die with the process.
    let sup = SupervisorConfig::new()
        .with_max_attempts(3)
        .with_watchdog(Duration::from_millis(250))
        .with_chaos(ChaosPlan::new(11).with_stalls(1000, 30_000));
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert_eq!(sweep.faults.timeouts, CELLS, "every cell times out once");
    assert_eq!(
        sweep.faults.abandoned, CELLS,
        "every timed-out attempt thread is counted as abandoned"
    );
    for cell in &sweep.cells {
        assert_eq!(cell.attempts, 2);
    }
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_io_faults_are_absorbed_without_tearing_the_file() {
    let dir = tmp_dir("journal-io");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new().with_chaos(ChaosPlan::new(13).with_journal_faults(1000));
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert!(sweep.holes.is_empty());
    assert_eq!(
        sweep.faults.io_errors, CELLS,
        "every commit faults once (short write or error)"
    );
    // Short writes leave torn bytes mid-commit; the writer must truncate
    // them before retrying, so the settled file recovers cleanly.
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_failure_becomes_a_hole_and_resume_heals_it() {
    let dir = tmp_dir("persistent");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new()
        .with_max_attempts(2)
        .with_chaos(ChaosPlan::new(17).with_persistent_failure(1));
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(!sweep.is_complete());
    assert_eq!(sweep.cells.len(), 3, "healthy cells survive the bad one");
    assert_eq!(sweep.holes.len(), 1);
    let hole = &sweep.holes[0];
    assert_eq!(hole.index, 1);
    assert_eq!(hole.attempts, 2, "exhausted the retry budget");
    assert!(hole.reason.contains("panic"), "reason: {}", hole.reason);
    assert_eq!(sweep.faults.panics, 2);

    // The journal holds the three committed cells; resuming without the
    // fault (the operator fixed the crash) fills the hole and converges
    // to the uninterrupted manifest.
    let healed =
        run_supervised_sweep(&app, &ALGOS, &PROCS, &path, true, &SupervisorConfig::new()).unwrap();
    assert_eq!(healed.resumed, 3);
    assert!(healed.is_complete());
    assert_eq!(healed.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_fault_classes_all_converge() {
    let dir = tmp_dir("mixed");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new().with_max_attempts(3).with_chaos(
        ChaosPlan::new(23)
            .with_panics(1000)
            .with_journal_faults(1000),
    );
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert_eq!(sweep.faults.panics, CELLS);
    assert_eq!(sweep.faults.io_errors, CELLS);
    assert!(sweep.faults.total() > FaultCounters::new().total());
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backoff_schedule_is_deterministic_and_bounded() {
    use placesim::BackoffPolicy;
    let policy = BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(2), 42);
    // Attempt 0 (nothing failed yet) never sleeps.
    assert_eq!(policy.delay(0, 0), Duration::ZERO);
    for job in 0..8u64 {
        let mut prev_base = 0u128;
        for failed in 1..=6u32 {
            let d = policy.delay(job, failed);
            let exp = (100u128 << (failed - 1)).min(2000);
            // Exponential base plus jitter in [0, exp/2].
            assert!(
                (exp..=exp + exp / 2).contains(&d.as_millis()),
                "job {job} attempt {failed}: {d:?} outside [{exp}, {}]",
                exp + exp / 2
            );
            assert!(exp >= prev_base, "base must never shrink");
            prev_base = exp;
            // Deterministic: the same (seed, job, attempt) always
            // yields the same delay.
            assert_eq!(d, policy.delay(job, failed));
        }
    }
    // Different seeds jitter differently somewhere in the schedule.
    let other = BackoffPolicy::new(Duration::from_millis(100), Duration::from_secs(2), 43);
    assert!(
        (0..8u64).any(|j| (1..=6u32).any(|a| policy.delay(j, a) != other.delay(j, a))),
        "seed must affect the jitter"
    );
}

#[test]
fn backoff_spaces_chaos_retries_without_changing_results() {
    let dir = tmp_dir("backoff");
    let app = tiny();
    let want = healthy_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let policy =
        placesim::BackoffPolicy::new(Duration::from_millis(150), Duration::from_secs(1), 7);
    // Every cell panics once, so every cell sleeps exactly
    // delay(cell, 1) before its successful second attempt.
    let sup = SupervisorConfig::new()
        .with_max_attempts(3)
        .with_backoff(policy.clone())
        .with_chaos(ChaosPlan::new(7).with_panics(1000));
    let started = std::time::Instant::now();
    let sweep = run_supervised_sweep(&app, &ALGOS, &PROCS, &path, false, &sup).unwrap();
    let elapsed = started.elapsed();

    assert!(sweep.is_complete());
    assert_eq!(sweep.faults.retries, CELLS);
    for cell in &sweep.cells {
        assert_eq!(cell.attempts, 2);
    }
    // The attempt schedule is the policy's: every retried cell waited
    // at least its deterministic first-retry delay, so the sweep as a
    // whole cannot beat the smallest of them.
    let min_delay = (0..CELLS).map(|c| policy.delay(c, 1)).min().unwrap();
    assert!(min_delay >= Duration::from_millis(150));
    assert!(
        elapsed >= min_delay,
        "sweep finished in {elapsed:?}, faster than the minimum backoff {min_delay:?}"
    );
    // Backoff delays retries; it must not change what they compute.
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

/// A grid with equal maps: on tiny gauss these three metrics place
/// identically at each processor count, so the six cells form two
/// groups, each simulated once.
const GROUP_ALGOS: [PlacementAlgorithm; 3] = [
    PlacementAlgorithm::ShareRefs,
    PlacementAlgorithm::ShareAddr,
    PlacementAlgorithm::MinPriv,
];
const GROUP_CELLS: u64 = 6;
const GROUPS: u64 = 2;

/// Tiny gauss and its grouping, checked: cells {0, 2, 4} (p = 2) and
/// {1, 3, 5} (p = 4) share maps.
fn tiny_gauss() -> Arc<PreparedApp> {
    let app = Arc::new(PreparedApp::prepare(
        &spec("gauss").unwrap(),
        &GenOptions {
            scale: 0.002,
            seed: 3,
        },
    ));
    let maps: Vec<_> = grid_cells(&GROUP_ALGOS, &PROCS)
        .into_iter()
        .map(|(a, p)| app.place(a, p).unwrap())
        .collect();
    assert_eq!(
        group_equal_maps(&maps),
        vec![vec![0, 2, 4], vec![1, 3, 5]],
        "the test grid must keep its equal maps"
    );
    app
}

fn healthy_group_manifest(app: &Arc<PreparedApp>, dir: &std::path::Path) -> String {
    let path = dir.join("healthy.journal");
    let sweep = run_supervised_sweep(
        app,
        &GROUP_ALGOS,
        &PROCS,
        &path,
        false,
        &SupervisorConfig::new(),
    )
    .unwrap();
    assert!(sweep.is_complete());
    assert_eq!(sweep.simulations as u64, GROUPS);
    sweep.manifest().to_json()
}

#[test]
fn a_group_retries_as_one_job_and_every_member_gets_its_attempts() {
    let dir = tmp_dir("group-panics");
    let app = tiny_gauss();
    let want = healthy_group_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new()
        .with_max_attempts(3)
        .with_chaos(ChaosPlan::new(7).with_panics(1000));
    let sweep = run_supervised_sweep(&app, &GROUP_ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert_eq!(sweep.simulations as u64, GROUPS);
    // Every member plans a first-attempt panic; each group's first
    // attempt panics once, however many members planned it.
    assert_eq!(sweep.faults.panics, GROUPS);
    assert_eq!(sweep.faults.retries, GROUPS);
    for cell in &sweep.cells {
        assert_eq!(
            cell.attempts, 2,
            "cell {} carries its group's attempts",
            cell.index
        );
    }
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, GROUP_CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_persistent_failure_in_one_member_holes_its_group_and_resume_heals_it() {
    let dir = tmp_dir("group-persistent");
    let app = tiny_gauss();
    let want = healthy_group_manifest(&app, &dir);

    // Cell 2 is a follower of the p = 2 group, not its leader: the
    // fault planned for it must still fire on the group's attempts.
    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new()
        .with_max_attempts(2)
        .with_chaos(ChaosPlan::new(17).with_persistent_failure(2));
    let sweep = run_supervised_sweep(&app, &GROUP_ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(!sweep.is_complete());
    let holes: Vec<usize> = sweep.holes.iter().map(|h| h.index).collect();
    assert_eq!(holes, vec![0, 2, 4], "the whole group is lost");
    for hole in &sweep.holes {
        assert_eq!(hole.attempts, 2, "exhausted the retry budget");
        assert_eq!(hole.reason, sweep.holes[0].reason);
        assert!(hole.reason.contains("panic"), "reason: {}", hole.reason);
    }
    assert_eq!(
        sweep.faults.panics, 2,
        "the group panicked once per attempt"
    );
    let cells: Vec<usize> = sweep.cells.iter().map(|c| c.index).collect();
    assert_eq!(cells, vec![1, 3, 5], "the other group survives");

    let healed = run_supervised_sweep(
        &app,
        &GROUP_ALGOS,
        &PROCS,
        &path,
        true,
        &SupervisorConfig::new(),
    )
    .unwrap();
    assert_eq!(healed.resumed, 3);
    assert_eq!(healed.simulations, 1);
    assert!(healed.is_complete());
    assert_eq!(healed.manifest().to_json(), want);
    assert_journal_clean(&path, GROUP_CELLS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_faults_stay_per_cell_inside_a_group() {
    let dir = tmp_dir("group-journal-io");
    let app = tiny_gauss();
    let want = healthy_group_manifest(&app, &dir);

    let path = dir.join("sweep.journal");
    let sup = SupervisorConfig::new().with_chaos(ChaosPlan::new(13).with_journal_faults(1000));
    let sweep = run_supervised_sweep(&app, &GROUP_ALGOS, &PROCS, &path, false, &sup).unwrap();

    assert!(sweep.is_complete());
    assert_eq!(sweep.simulations as u64, GROUPS);
    assert_eq!(
        sweep.faults.io_errors, GROUP_CELLS,
        "every member's commit faults once"
    );
    assert_eq!(sweep.manifest().to_json(), want);
    assert_journal_clean(&path, GROUP_CELLS);
    std::fs::remove_dir_all(&dir).ok();
}
