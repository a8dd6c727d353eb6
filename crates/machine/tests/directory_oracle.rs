//! The directory against a naive model that shares no code with it.
//!
//! Both engines use the same `Directory`, so the engine differential
//! cannot catch a directory bug. Here a per-line `BTreeSet` of holders
//! plus an exclusive flag replays random `read_fill` / `write_fill` /
//! `grant_exclusive` / `update_fill` / `evict` sequences, issued only
//! where the engines would issue them, and every transaction must name
//! exactly the other holders in ascending order. The processor pool
//! always includes 63, 64 and 127, which sit on both halves of the
//! `u128` sharer mask. The directory keys its state by the dense ids it
//! interns; the lines are interned in a shuffled order, so a mix-up of
//! line and id shows.

use placesim_machine::{Directory, SharerSet, MAX_PROCESSORS};
use placesim_placement::ProcessorId;
use std::collections::{BTreeMap, BTreeSet};

/// One line in the model: who holds it, and whether one holder has it
/// exclusively (the directory's Modified, which MESI's E shares).
#[derive(Debug, Clone, Default)]
struct Line {
    holders: BTreeSet<usize>,
    exclusive: bool,
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

fn pid(i: usize) -> ProcessorId {
    ProcessorId::from_index(i)
}

fn indices(set: SharerSet) -> Vec<usize> {
    set.iter().map(ProcessorId::index).collect()
}

/// The holders other than `p`, ascending.
fn others(line: &Line, p: usize) -> Vec<usize> {
    line.holders.iter().copied().filter(|&h| h != p).collect()
}

/// Checks every tracked line of the model against the directory;
/// `ids[l]` is line `l`'s id.
fn agree(dir: &Directory, model: &BTreeMap<u64, Line>, ids: &[u32]) {
    for (l, &id) in (0u64..).zip(ids) {
        let (holders, owner) = match model.get(&l) {
            None => (Vec::new(), None),
            Some(m) => {
                let holders: Vec<usize> = m.holders.iter().copied().collect();
                let owner = m.exclusive.then(|| holders[0]);
                (holders, owner)
            }
        };
        let sharers = dir.sharers(id);
        assert_eq!(indices(sharers), holders, "line {l}");
        assert_eq!(sharers.len() as usize, holders.len(), "line {l}");
        assert_eq!(sharers.iter().len(), holders.len(), "line {l}");
        assert_eq!(dir.owner(id).map(ProcessorId::index), owner, "line {l}");
    }
    assert_eq!(dir.tracked_lines(), model.len());
}

fn replay(processors: usize, seed: u64, steps: usize) {
    const LINES: u64 = 16;
    let mut rng = Rng(seed);
    // Every boundary processor the machine has, plus a random spread.
    let mut pool: Vec<usize> = [0, 1, 63, 64, 127]
        .into_iter()
        .filter(|&p| p < processors)
        .collect();
    while pool.len() < 10.min(processors) {
        let p = rng.below(processors);
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    let mut dir = Directory::new();
    // Intern the lines in a shuffled order.
    let mut order: Vec<u64> = (0..LINES).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.below(k + 1));
    }
    let mut ids = vec![0u32; LINES as usize];
    for (&l, next) in order.iter().zip(0u32..) {
        ids[l as usize] = dir.intern(l);
        assert_eq!(ids[l as usize], next, "ids are dense, in first-call order");
    }
    assert_eq!(dir.intern(order[0]), 0, "a line keeps its id");
    let mut model: BTreeMap<u64, Line> = BTreeMap::new();
    let mut applied = [0usize; 5];
    for _ in 0..steps {
        let p = pool[rng.below(pool.len())];
        let l = rng.below(LINES as usize) as u64;
        let line = model.get(&l).cloned().unwrap_or_default();
        let holds = line.holders.contains(&p);
        let owner = line
            .exclusive
            .then(|| *line.holders.first().expect("owned"));
        match rng.below(5) {
            // A read miss: the reader does not hold the line.
            0 if !holds => {
                let tx = dir.read_fill(pid(p), ids[l as usize]);
                assert!(tx.invalidate.is_empty());
                assert_eq!(tx.downgrade.map(ProcessorId::index), owner);
                let m = model.entry(l).or_default();
                m.holders.insert(p);
                m.exclusive = false;
                applied[0] += 1;
            }
            // A write miss, or an upgrade of a copy the writer holds.
            1 => {
                let tx = dir.write_fill(pid(p), ids[l as usize]);
                assert_eq!(indices(tx.invalidate), others(&line, p));
                assert_eq!(tx.downgrade, None);
                let m = model.entry(l).or_default();
                m.holders = BTreeSet::from([p]);
                m.exclusive = true;
                applied[1] += 1;
            }
            // An exclusive-clean read fill of a line nobody holds.
            2 => {
                let Some(l) = (0..LINES)
                    .map(|k| (l + k) % LINES)
                    .find(|k| !model.contains_key(k))
                else {
                    continue;
                };
                dir.grant_exclusive(pid(p), ids[l as usize]);
                model.insert(
                    l,
                    Line {
                        holders: BTreeSet::from([p]),
                        exclusive: true,
                    },
                );
                applied[2] += 1;
            }
            // A Dragon write: never by an exclusive owner, whose write
            // hit upgrades silently in its own cache.
            3 if owner != Some(p) => {
                let sent = dir.update_fill(pid(p), ids[l as usize]);
                let want = others(&line, p);
                assert_eq!(indices(sent), want);
                let m = model.entry(l).or_default();
                m.holders.insert(p);
                m.exclusive = want.is_empty();
                applied[3] += 1;
            }
            // A replacement hint from one of the holders.
            4 if !line.holders.is_empty() => {
                let victim = *line
                    .holders
                    .iter()
                    .nth(rng.below(line.holders.len()))
                    .expect("in range");
                dir.evict(pid(victim), ids[l as usize]);
                let m = model.get_mut(&l).expect("held line is tracked");
                m.holders.remove(&victim);
                if m.holders.is_empty() {
                    model.remove(&l);
                }
                applied[4] += 1;
            }
            _ => continue,
        }
        agree(&dir, &model, &ids);
    }
    assert!(
        applied.iter().all(|&n| n >= 100),
        "p = {processors}: every operation must be exercised, got {applied:?}"
    );
}

#[test]
fn directory_matches_a_naive_holder_model() {
    for (processors, seed) in [(2, 1), (3, 2), (65, 3), (127, 4), (MAX_PROCESSORS, 5)] {
        replay(processors, 0x5eed_0000 + seed, 20_000);
    }
}

#[test]
fn transactions_span_both_halves_of_the_mask() {
    let mut dir = Directory::new();
    let (nine, ten) = (dir.intern(9), dir.intern(10));
    for p in [127, 0, 64, 63, 5] {
        assert!(dir.read_fill(pid(p), nine).invalidate.is_empty());
    }
    let tx = dir.write_fill(pid(5), nine);
    assert_eq!(indices(tx.invalidate), vec![0, 63, 64, 127]);
    assert_eq!(indices(dir.sharers(nine)), vec![5]);

    for p in [64, 63, 127] {
        dir.read_fill(pid(p), ten);
    }
    let sent = dir.update_fill(pid(0), ten);
    assert_eq!(indices(sent), vec![63, 64, 127]);
    assert_eq!(indices(dir.sharers(ten)), vec![0, 63, 64, 127]);
    let sent = dir.update_fill(pid(64), ten);
    assert_eq!(indices(sent), vec![0, 63, 127]);
}
