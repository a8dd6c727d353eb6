//! The hit kernel against a per-reference oracle written here.
//!
//! [`ProcessorCache::scan_hits`] decodes packed words and indexes the
//! cache's sets itself, and [`Lookahead::cut`] walks the same words. The
//! oracle below decodes each reference as a `MemRef`, reads the way's
//! state with [`ProcessorCache::state_of`] and decides a plain local hit
//! from the protocols' write rules as the paper states them: fetches and
//! reads hit any resident line, a write hits a Modified line, and under
//! MESI and Dragon an Exclusive one too. It shares no code with the
//! kernel's hit test. Each case draws a cache (1, 2 or 4 ways, 16- to
//! 128-byte lines, any protocol), fills it from the protocol's states,
//! draws a trace with barriers over the same lines, and starts the scan
//! at a random offset.

use placesim_machine::{LineState, Lookahead, ProcessorCache, Protocol};
use placesim_trace::{Address, MemRef, RefKind, ThreadId, ThreadTrace};
use proptest::prelude::*;

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

/// One drawn case: a filled cache, a trace and where the scan starts.
struct Case {
    cache: ProcessorCache,
    protocol: Protocol,
    line_shift: u32,
    trace: ThreadTrace,
    start: usize,
    /// A line a remote action touches, and whether it removes the copy.
    touch: (u64, bool),
}

fn draw(seed: u64) -> Case {
    let mut rng = Rng(seed | 1);
    let protocol = Protocol::ALL[rng.below(3) as usize];
    let ways = 1usize << rng.below(3);
    let sets = 1u64 << rng.below(5);
    let line_shift = 4 + rng.below(4) as u32; // 16..=128-byte lines
    let mut cache = ProcessorCache::with_protocol(sets, ways, protocol);
    // A line universe a few times the cache's capacity, so fills evict
    // and some referenced lines are absent.
    let universe = sets * ways as u64 * 3;
    let states = protocol.semantics().lattice();
    for id in 0..universe as u32 * 2 {
        let line = rng.below(universe);
        if cache.state_of(line).is_none() {
            let state = states[rng.below(states.len() as u64) as usize];
            cache.fill(line, id, state, ThreadId::new(0));
        }
    }
    // Mostly references to resident lines, so runs are long; every kind.
    let resident: Vec<u64> = cache.iter_resident().map(|(line, _)| line).collect();
    let len = 1 + rng.below(200) as usize;
    let trace: ThreadTrace = (0..len)
        .map(|_| {
            let line = if rng.below(8) > 0 {
                resident[rng.below(resident.len() as u64) as usize]
            } else {
                rng.below(universe)
            };
            let addr = Address::new((line << line_shift) + rng.below(1 << line_shift));
            match rng.below(40) {
                0 => MemRef::barrier(rng.below(4)),
                k if k < 20 => MemRef::instr(addr),
                k if k < 32 => MemRef::read(addr),
                _ => MemRef::write(addr),
            }
        })
        .collect();
    let start = rng.below(len as u64 + 1) as usize;
    let touch = (rng.below(universe), rng.below(2) == 0);
    Case {
        cache,
        protocol,
        line_shift,
        trace,
        start,
        touch,
    }
}

/// Whether a reference of `kind` is a plain local hit on a way in
/// `state`: no directory transaction and no state change that matters.
fn plain_hit(protocol: Protocol, state: LineState, kind: RefKind) -> bool {
    match kind {
        RefKind::Instr | RefKind::Read => true,
        RefKind::Write => {
            state == LineState::Modified
                || (state == LineState::Exclusive && protocol != Protocol::Wi)
        }
        RefKind::Barrier => false,
    }
}

/// The oracle's lookahead: hits and both filters, one `MemRef` at a
/// time, never looking at the final reference.
fn oracle_scan(case: &Case, refs: &[MemRef]) -> Lookahead {
    let mut look = Lookahead::default();
    for r in refs.iter().take(refs.len().saturating_sub(1)) {
        let line = r.addr.raw() >> case.line_shift;
        let hit = case
            .cache
            .state_of(line)
            .is_some_and(|state| plain_hit(case.protocol, state, r.kind));
        if !hit {
            break;
        }
        look.hits += 1;
        look.lines |= 1 << (line % 64);
        if r.kind == RefKind::Write {
            look.writes |= 1 << (line % 64);
        }
    }
    look
}

/// The oracle's cut: the first reference of the lookahead that the
/// touch turns globally visible.
fn oracle_cut(case: &Case, refs: &[MemRef], hits: u64) -> Option<usize> {
    let (line, removes) = case.touch;
    refs.iter()
        .take(hits as usize)
        .position(|r| r.addr.raw() >> case.line_shift == line && (removes || r.kind.is_write()))
}

/// Checks one case; returns the lookahead so callers can tally coverage.
/// Panics on any disagreement.
fn check(case: &Case) -> Lookahead {
    let mut iter = case.trace.iter();
    if case.start > 0 {
        iter.nth(case.start - 1);
    }
    let words = iter.as_packed();
    let refs: Vec<MemRef> = iter.collect();
    assert_eq!(words.len(), refs.len());

    let want = oracle_scan(case, &refs);
    let got = case.cache.scan_hits(words, case.line_shift);
    assert_eq!(got, want, "start {}", case.start);

    let (line, removes) = case.touch;
    let want_cut = oracle_cut(case, &refs, want.hits);
    let got_cut = Lookahead::cut(&words[..got.hits as usize], case.line_shift, line, removes);
    assert_eq!(
        got_cut, want_cut,
        "touch of line {} (removes {})",
        line, removes
    );
    // The filters are supersets: a cut always has its bit set.
    if want_cut.is_some() {
        let filter = if removes { got.lines } else { got.writes };
        assert!(filter & (1 << (line % 64)) != 0);
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_the_per_reference_oracle(seed in 0u64..u64::MAX) {
        check(&draw(seed));
    }
}

/// The drawn cases reach every stop the kernel has: a barrier, a miss,
/// a write needing the directory and the excluded final reference.
#[test]
fn cases_cover_every_stop() {
    let mut stops = [0u32; 4];
    for seed in 0..2000u64 {
        let case = draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let look = check(&case);
        let refs: Vec<MemRef> = case.trace.iter().skip(case.start).collect();
        let Some(stop) = refs.get(look.hits as usize) else {
            continue;
        };
        let line = stop.addr.raw() >> case.line_shift;
        let k = if look.hits as usize + 1 == refs.len() {
            3
        } else if stop.kind == RefKind::Barrier {
            0
        } else if case.cache.state_of(line).is_none() {
            1
        } else {
            2
        };
        stops[k] += 1;
    }
    assert!(stops.iter().all(|&n| n >= 20), "stops {stops:?}");
}
