//! Miss classification by line id against a per-line map kept here.
//!
//! The caches keep each line's departure record in a vector indexed by
//! the id the directory interns for the line, and every way remembers its
//! line's id. This replays random accesses, fills and remote
//! invalidations on several caches that share one directory's ids (so a
//! cache meets ids it never filled), and keeps, per cache, a `FastMap`
//! from line to departure record maintained from the operations alone:
//! a fill clears the record and marks its victim evicted by the filling
//! thread, an invalidation marks the line invalidated. Every miss must
//! classify, and every invalidation miss name its source and writer, as
//! the map says.

use placesim_machine::{Access, Directory, LineState, MissKind, ProcessorCache, Protocol};
use placesim_placement::ProcessorId;
use placesim_trace::hash::FastMap;
use placesim_trace::ThreadId;
use proptest::prelude::*;

/// Why a line left a cache, as the model records it.
#[derive(Debug, Clone, Copy)]
enum Left {
    Evicted(ThreadId),
    Invalidated(ProcessorId, ThreadId),
}

/// Deterministic xorshift64* stream seeded by the case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// The model's classification of a miss on `line` by `thread`.
fn classify(
    model: &FastMap<u64, Left>,
    line: u64,
    thread: ThreadId,
) -> (MissKind, Option<ProcessorId>) {
    match model.get(&line) {
        None => (MissKind::Compulsory, None),
        Some(Left::Evicted(t)) if *t == thread => (MissKind::IntraThreadConflict, None),
        Some(Left::Evicted(_)) => (MissKind::InterThreadConflict, None),
        Some(Left::Invalidated(p, _)) => (MissKind::Invalidation, Some(*p)),
    }
}

/// Replays `steps` random operations; returns how many misses of each
/// kind were checked.
fn replay(seed: u64, steps: usize) -> [u32; 4] {
    let mut rng = Rng(seed | 1);
    let ways = 1usize << rng.below(3);
    let sets = 1u64 << rng.below(4);
    let universe = sets * ways as u64 * 4;
    let mut dir = Directory::new();
    let mut caches: Vec<ProcessorCache> = (0..3)
        .map(|_| ProcessorCache::with_protocol(sets, ways, Protocol::Wi))
        .collect();
    let mut models: Vec<FastMap<u64, Left>> = vec![FastMap::default(); 3];
    let mut kinds = [0u32; 4];
    for _ in 0..steps {
        let c = rng.below(3) as usize;
        let thread = ThreadId::new(rng.below(3) as u16);
        if rng.below(4) == 0 {
            // A remote write invalidates one resident line.
            let resident: Vec<u64> = caches[c].iter_resident().map(|(l, _)| l).collect();
            if resident.is_empty() {
                continue;
            }
            let line = resident[rng.below(resident.len() as u64) as usize];
            let by = ProcessorId::from_index(rng.below(128) as usize);
            caches[c].invalidate(line, by, thread);
            models[c].insert(line, Left::Invalidated(by, thread));
            continue;
        }
        let line = rng.below(universe);
        let is_write = rng.below(3) == 0;
        match caches[c].access(line, is_write, thread) {
            Access::Hit => {}
            Access::UpgradeHit { id } => {
                assert_eq!(Some(id), dir.id(line), "an upgrade carries the line's id");
                caches[c].set_modified(line);
            }
            Access::UpdateHit { .. } => unreachable!("write-invalidate never updates"),
            Access::Miss => {
                let id = dir.intern(line);
                let want = classify(&models[c], line, thread);
                assert_eq!(caches[c].miss_provenance(id, thread), want, "line {line}");
                let writer = match models[c].get(&line) {
                    Some(Left::Invalidated(_, w)) => Some(*w),
                    _ => None,
                };
                assert_eq!(caches[c].invalidation_writer(id), writer, "line {line}");
                kinds[want.0 as usize] += 1;
                let state = if is_write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                models[c].remove(&line);
                if let Some(victim) = caches[c].fill(line, id, state, thread) {
                    assert_eq!(Some(victim.id), dir.id(victim.line), "a way keeps its id");
                    models[c].insert(victim.line, Left::Evicted(thread));
                }
            }
        }
    }
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn misses_classify_as_the_line_map_says(seed in 0u64..u64::MAX) {
        replay(seed, 400);
    }
}

/// The replays reach all four miss kinds.
#[test]
fn replays_reach_every_miss_kind() {
    let mut total = [0u32; 4];
    for seed in 0..64u64 {
        for (t, k) in total
            .iter_mut()
            .zip(replay(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), 400))
        {
            *t += k;
        }
    }
    assert!(total.iter().all(|&n| n >= 100), "miss kinds {total:?}");
}
