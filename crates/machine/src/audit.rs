//! Post-drain invariant auditor (feature `audit`).
//!
//! The paper's results are only as trustworthy as the simulator's cycle
//! accounting and miss taxonomy, and both engines have been through
//! aggressive hot-path rewrites. With the `audit` feature on, every
//! simulation re-derives the laws those rewrites must preserve after
//! the event queue drains and aborts with a structured diagnostic if
//! any fails:
//!
//! 1. **Cycle conservation** — per processor,
//!    `busy + switching + idle == finish_time`.
//! 2. **Reference conservation** — per processor,
//!    `hits + misses + barrier_ops` equals the references its placed
//!    threads dispatched.
//! 3. **Taxonomy vs. cache counts** — per processor, the four-way miss
//!    breakdown sums to the cache's fill count (every miss fills
//!    exactly once).
//! 4. **Owner-state consistency** — every resident cache line agrees
//!    with the directory in both directions: residents are tracked
//!    sharers, exclusively-held residents are the directory's sole
//!    owner, and every directory entry points at caches that actually
//!    hold the line in a state the active protocol allows.
//!
//! Plus the global symmetries `invalidations sent == received` and
//! `updates sent == received`, and per-protocol laws:
//!
//! * **Write-invalidate** — only Shared/Modified states appear and the
//!   update counters are structurally zero.
//! * **MESI** — update counters are zero, and E-state exclusivity: a
//!   cache holding a line Exclusive or Modified is the directory's sole
//!   owner, and a directory owner's cache holds E or M.
//! * **Dragon** — no invalidations exist anywhere (counters and the
//!   invalidation-miss taxonomy bucket are zero), upgrades are zero
//!   (shared writes update instead), and no-stale-sharer: every sharer
//!   of a shared line holds it Shared or SharedDirty with at most one
//!   SharedDirty owner per line.

use crate::cache::{LineState, ProcessorCache};
use crate::directory::Directory;
use crate::protocol::Protocol;
use crate::stats::ProcStats;
use placesim_placement::{PlacementMap, ProcessorId};
use placesim_trace::ProgramTrace;

/// Validates the post-drain machine state against the conservation
/// laws.
///
/// # Panics
///
/// Panics with a diagnostic listing every violated invariant; a clean
/// machine returns silently.
pub(crate) fn check_drained(
    prog: &ProgramTrace,
    map: &PlacementMap,
    stats: &[ProcStats],
    caches: &[ProcessorCache],
    directory: &Directory,
) {
    let mut violations: Vec<String> = Vec::new();

    for (pi, st) in stats.iter().enumerate() {
        if st.accounted_cycles() != st.finish_time {
            violations.push(format!(
                "processor {pi}: busy {} + switching {} + idle {} = {} != finish_time {}",
                st.busy,
                st.switching,
                st.idle,
                st.accounted_cycles(),
                st.finish_time
            ));
        }
        let dispatched: u64 = map
            .threads_on(ProcessorId::from_index(pi))
            .iter()
            .map(|&tid| prog.thread(tid).len() as u64)
            .sum();
        if st.refs() != dispatched {
            violations.push(format!(
                "processor {pi}: hits {} + misses {} + barrier_ops {} = {} != {} refs dispatched",
                st.hits,
                st.misses.total(),
                st.barrier_ops,
                st.refs(),
                dispatched
            ));
        }
        if st.misses.total() != caches[pi].fill_count() {
            violations.push(format!(
                "processor {pi}: miss taxonomy totals {} but the cache performed {} fills",
                st.misses.total(),
                caches[pi].fill_count()
            ));
        }
    }

    let sent: u64 = stats.iter().map(|s| s.invalidations_sent).sum();
    let received: u64 = stats.iter().map(|s| s.invalidations_received).sum();
    if sent != received {
        violations.push(format!(
            "machine: {sent} invalidations sent but {received} received"
        ));
    }
    let upd_sent: u64 = stats.iter().map(|s| s.updates_sent).sum();
    let upd_received: u64 = stats.iter().map(|s| s.updates_received).sum();
    if upd_sent != upd_received {
        violations.push(format!(
            "machine: {upd_sent} updates sent but {upd_received} received"
        ));
    }

    // Every cache in one machine runs the same protocol.
    let protocol = caches
        .first()
        .map_or(Protocol::Wi, ProcessorCache::protocol);
    debug_assert!(caches.iter().all(|c| c.protocol() == protocol));

    // Per-protocol traffic laws.
    match protocol {
        Protocol::Wi | Protocol::Mesi => {
            if upd_sent != 0 {
                violations.push(format!(
                    "machine: {upd_sent} updates sent under {protocol}, which never updates"
                ));
            }
        }
        Protocol::Dragon => {
            if sent != 0 {
                violations.push(format!(
                    "machine: {sent} invalidations sent under dragon, which never invalidates"
                ));
            }
            let inv_misses: u64 = stats.iter().map(|s| s.misses.invalidation).sum();
            if inv_misses != 0 {
                violations.push(format!(
                    "machine: {inv_misses} invalidation misses under dragon, which never \
                     invalidates"
                ));
            }
            let upgrades: u64 = stats.iter().map(|s| s.upgrades).sum();
            if upgrades != 0 {
                violations.push(format!(
                    "machine: {upgrades} upgrades under dragon, whose shared writes update \
                     instead"
                ));
            }
        }
    }

    // Cache → directory: every resident line must be a tracked sharer;
    // exclusive states (M, and E under MESI/Dragon) require sole
    // directory ownership; a SharedDirty resident must *not* be an
    // exclusive owner (it shares the line by definition). States outside
    // the protocol's lattice are violations outright.
    let lattice = protocol.semantics().lattice();
    for (pi, cache) in caches.iter().enumerate() {
        let me = ProcessorId::from_index(pi);
        for (line, state) in cache.iter_resident() {
            if !lattice.contains(&state) {
                violations.push(format!(
                    "processor {pi}: line {line:#x} resident {state:?}, outside the {protocol} \
                     lattice"
                ));
            }
            let Some(id) = directory.id(line).filter(|&id| directory.holds(me, id)) else {
                violations.push(format!(
                    "processor {pi}: line {line:#x} resident {state:?} but untracked by the \
                     directory"
                ));
                continue;
            };
            match state {
                LineState::Modified | LineState::Exclusive => {
                    if directory.owner(id) != Some(me) {
                        violations.push(format!(
                            "processor {pi}: line {line:#x} resident {state:?} but directory \
                             owner is {:?}",
                            directory.owner(id)
                        ));
                    }
                }
                LineState::SharedDirty => {
                    if directory.owner(id).is_some() {
                        violations.push(format!(
                            "processor {pi}: line {line:#x} resident SharedDirty but the \
                             directory records an exclusive owner"
                        ));
                    }
                }
                LineState::Shared => {}
            }
        }
    }

    // Directory → caches: every tracked sharer must hold the line in a
    // state the protocol allows for its directory role.
    for (line, sharers, owner) in directory.iter_lines() {
        match owner {
            Some(o) => {
                if sharers.len() != 1 || !sharers.contains(o) {
                    violations.push(format!(
                        "directory: exclusive line {line:#x} owned by {} has sharer set of {}",
                        o.index(),
                        sharers.len()
                    ));
                }
                // WI has no clean-exclusive state; MESI/Dragon owners may
                // hold E (clean) or M (dirty) — the silent E→M upgrade is
                // invisible to the directory.
                let held = caches[o.index()].state_of(line);
                let ok = match protocol {
                    Protocol::Wi => held == Some(LineState::Modified),
                    Protocol::Mesi | Protocol::Dragon => {
                        matches!(held, Some(LineState::Modified | LineState::Exclusive))
                    }
                };
                if !ok {
                    violations.push(format!(
                        "directory: line {line:#x} exclusively owned by {} but its cache holds \
                         {held:?}",
                        o.index()
                    ));
                }
            }
            None => {
                let mut dirty_sharers = 0u32;
                for q in sharers.iter() {
                    let held = caches[q.index()].state_of(line);
                    if held == Some(LineState::SharedDirty) {
                        dirty_sharers += 1;
                    }
                    let ok = match protocol {
                        Protocol::Wi | Protocol::Mesi => held == Some(LineState::Shared),
                        Protocol::Dragon => {
                            matches!(held, Some(LineState::Shared | LineState::SharedDirty))
                        }
                    };
                    if !ok {
                        violations.push(format!(
                            "directory: line {line:#x} shared by {} but its cache holds {held:?}",
                            q.index()
                        ));
                    }
                }
                // Dragon no-stale-sharer: one dirty owner at most; every
                // other copy was refreshed by its updates.
                if dirty_sharers > 1 {
                    violations.push(format!(
                        "directory: line {line:#x} has {dirty_sharers} SharedDirty holders \
                         (at most one dirty owner is legal)"
                    ));
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "invariant audit failed after drain ({} violation{}):\n  - {}",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
        violations.join("\n  - ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::engine::simulate;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    fn prog_and_map() -> (ProgramTrace, PlacementMap) {
        let mk = |base: u64| -> ThreadTrace {
            (0..40)
                .map(|i| MemRef::instr(Address::new(base + 4 * (i % 8))))
                .collect()
        };
        let prog = ProgramTrace::new("audited", vec![mk(0), mk(0x4000), mk(0x8000), mk(0)]);
        let map = PlacementMap::from_clusters(vec![vec![0, 3], vec![1, 2]]).unwrap();
        (prog, map)
    }

    #[test]
    fn clean_run_passes_the_auditor() {
        // `simulate` itself runs the auditor when this module is
        // compiled; this pins that a normal run does not trip it.
        let (prog, map) = prog_and_map();
        let stats = simulate(&prog, &map, &ArchConfig::paper_default()).unwrap();
        assert_eq!(stats.total_refs(), prog.total_refs());
    }

    #[test]
    fn mesi_and_dragon_clean_runs_pass_the_auditor() {
        // A read/write mix over a shared region so every protocol path
        // (exclusive fills, silent upgrades, updates) is exercised under
        // the auditor.
        let mk = |base: u64| -> ThreadTrace {
            (0..60)
                .map(|i| {
                    let addr = Address::new(base + 4 * (i % 16));
                    if i % 5 == 0 {
                        MemRef::write(addr)
                    } else {
                        MemRef::read(addr)
                    }
                })
                .collect()
        };
        let prog = ProgramTrace::new("audited", vec![mk(0), mk(0x4000), mk(0), mk(0x100)]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1], vec![2, 3]]).unwrap();
        for protocol in Protocol::ALL {
            let mut builder = ArchConfig::builder();
            builder.protocol(protocol);
            let config = builder.build().unwrap();
            let stats = simulate(&prog, &map, &config).unwrap();
            assert_eq!(stats.total_refs(), prog.total_refs(), "{protocol}");
            if protocol == Protocol::Dragon {
                assert_eq!(stats.total_invalidations(), 0, "dragon invalidated");
            } else {
                assert_eq!(stats.total_updates(), 0, "{protocol} sent updates");
            }
        }
    }

    #[test]
    fn corrupt_stats_are_caught() {
        let (prog, map) = prog_and_map();
        let config = ArchConfig::paper_default();
        let stats = simulate(&prog, &map, &config).unwrap();
        let mut forged: Vec<ProcStats> = stats.per_proc().to_vec();
        forged[0].busy += 1; // break cycle conservation
        forged[1].hits += 1; // break reference conservation
        let caches: Vec<ProcessorCache> = (0..2)
            .map(|_| ProcessorCache::new(config.num_sets()))
            .collect();
        let directory = Directory::new();
        let err = std::panic::catch_unwind(|| {
            check_drained(&prog, &map, &forged, &caches, &directory);
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("invariant audit failed"), "got: {msg}");
        assert!(msg.contains("finish_time"), "got: {msg}");
        assert!(msg.contains("refs dispatched"), "got: {msg}");
    }

    #[test]
    fn owner_state_divergence_is_caught() {
        let (prog, map) = prog_and_map();
        let config = ArchConfig::paper_default();
        let mut caches: Vec<ProcessorCache> = (0..2)
            .map(|_| ProcessorCache::new(config.num_sets()))
            .collect();
        let mut directory = Directory::new();
        // Cache 0 holds line 7 Modified, directory thinks 1 owns it.
        let id = directory.intern(7);
        caches[0].fill(7, id, LineState::Modified, placesim_trace::ThreadId::new(0));
        directory.write_fill(ProcessorId::from_index(1), id);
        // Zeroed stats for the empty "machine", with refs forged to match
        // dispatch so only the owner-state checks fire.
        let mut stats = vec![ProcStats::default(); 2];
        for (pi, st) in stats.iter_mut().enumerate() {
            st.hits = map
                .threads_on(ProcessorId::from_index(pi))
                .iter()
                .map(|&tid| prog.thread(tid).len() as u64)
                .sum();
        }
        stats[0].misses.compulsory = caches[0].fill_count();
        stats[0].hits -= caches[0].fill_count();
        let err = std::panic::catch_unwind(|| {
            check_drained(&prog, &map, &stats, &caches, &directory);
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("line 0x7"), "got: {msg}");
    }
}
