//! The global event loop coupling processors, caches and the directory.
//!
//! # Execution model
//!
//! Every reference costs one issue cycle. On a cache hit the active
//! context continues next cycle. On a miss the reference's line fill and
//! directory transaction happen at issue time, the missing context
//! becomes ready again after the memory latency, and the processor pays
//! the context-switch (pipeline drain) cost before dispatching the next
//! ready context round-robin — idling if none is ready. Processors
//! interleave deterministically through a global priority queue ordered
//! by (time, processor id).
//!
//! Accounting: `busy` counts one cycle per completed reference,
//! `switching` counts drain cycles, `idle` the gaps, and per processor
//! `busy + switching + idle == finish_time` (a conservation law the
//! tests enforce). A missed reference is accounted at its issue cycle;
//! its 50-cycle latency shows up as the context's unavailability, which
//! is the quantity multithreading hides. (The tail latency of a thread's
//! final reference is therefore not part of `finish_time` — a uniform,
//! sub-0.01% simplification at paper trace lengths.)
//!
//! # Hit-run lookahead
//!
//! Conceptually one queue event dispatches one reference. Literally
//! doing that (see the [`reference`] engine) pays a queue operation per
//! reference even though the overwhelmingly common outcome — a cache hit
//! by the running context — has **no global side effects**: it touches
//! only this processor's cache (LRU order, the slot's owner) and
//! counters, schedules nothing, and cannot change any other processor's
//! state. Processors affect each other only through misses, upgrades,
//! updates and barriers: the *globally visible* references.
//!
//! The production engine therefore orders only those. The simulator
//! keeps at most one pending event per processor, so the queue is a
//! flat slot array: `events[q]` is the issue cycle of processor q's next
//! reference. Next to it sits the *lookahead* `ahead[q]`: how many of
//! q's current context's next references are plain local hits. The hit
//! kernel ([`ProcessorCache::scan_hits`]) finds them in one read-only
//! pass over the context's remaining packed words: it decodes each word
//! with shifts and a mask and indexes q's cache set directly, building
//! no `MemRef`. The scan stops before a barrier, before the context's
//! final reference (whose completion switches contexts) and before the
//! first reference that needs the directory. Processor q's next
//! globally visible reference thus issues at `events[q] + ahead[q]`.
//!
//! A pop takes the argmin of `(events[q] + ahead[q], q)` — ties to the
//! lower index, exactly the heap's order — and runs that processor's
//! context in a tight local loop: `ahead[q]` hits, then the stop
//! reference, which the slow path handles at its issue cycle. When only
//! one processor has a pending event it wins whatever its key, so it is
//! not scanned at select time and runs until its own first stop: with
//! inert hits (below) it scans then, commits the run in O(1) and takes
//! the stop reference through [`ProcessorCache::access`]; otherwise it
//! accesses each of its hits.
//!
//! A pop costs O(log p), not O(p). The keys sit in a min tournament tree
//! over the slots, and a pending count says whether a pop is lone. A slot
//! is scanned once per arming, at the first pop after it was armed: a pop
//! scans only the slots armed since the previous pop, re-keys their
//! leaves, and reads the root. A catch-up that cuts a lookahead re-keys
//! that slot's leaf. With the 127 processors of the §4.2 coherence probe a
//! linear argmin spent most of the simulation in two passes over every
//! slot per pop.
//!
//! Why this is exact and not an approximation:
//!
//! * A plain hit touches only its own cache, and a run of them never
//!   evicts. A write hit on Exclusive moves silently to Modified, and a
//!   write to Modified hits too, so a read-only scan classifies the whole
//!   run correctly.
//! * The scan stays valid until some other processor touches that
//!   cache. Every such touch — an invalidation (including reading the
//!   slot's owner for attribution), a downgrade, a Dragon update — first
//!   *catches up* the victim v: it commits v's scanned hits that issue
//!   before the acting `(now, p)` in `(cycle, processor)` order, that is
//!   `min(ahead[v], now + [v < p] − events[v])` of them. The victim's
//!   next reference therefore sees the changed cache, at the same cycle
//!   as in the per-reference engine.
//! * A touch changes one line L of v's cache and nothing else: an
//!   invalidation removes L without evicting anything, a downgrade or an
//!   update takes away write permission on L. So the rest of v's
//!   lookahead stays valid up to v's first reference to L (invalidation)
//!   or first write to L (downgrade, update), where the catch-up cuts it
//!   ([`Lookahead::cut`], a walk over the same packed words).
//!   Cutting instead of rescanning keeps Dragon's frequent updates from
//!   rescanning the same run over and over. The scan also records two
//!   64-bit filters of the lookahead's lines: one bit per line number
//!   modulo 64 for every line it references, and the same for every line
//!   it writes. When L's bit is clear in the filter that matters, the
//!   lookahead has no reference to cut at, and the catch-up skips the
//!   walk. A filter is a superset of the lookahead's lines, so skipping
//!   is exact; a colliding bit only costs the walk.
//! * Re-arming a slot (a reschedule, a barrier release) drops its
//!   lookahead, and the next pop rescans it.
//!
//! Committing a scanned run, at its pop, in a catch-up or in a lone run,
//! would look each hit up a second time. On the paper's machine it need
//! not: with a direct-mapped cache (`associativity() == 1`), under
//! write-invalidate, and with no attribution recorded, committing a plain
//! hit changes nothing that is read later. A one-way set has no LRU order to
//! refresh. Write-invalidate has no silent Exclusive→Modified step: a
//! write hits only on Modified. The slot's owner, which a hit refreshes,
//! is read only by attribution. `run` decides this once, and then
//! commits `n` scanned hits in O(1): it advances the trace by `n`
//! ([`ThreadTraceIter::nth`]) and adds `n` to the counters. Set-associative
//! caches (a hit reorders LRU), MESI and Dragon (a write hit on
//! Exclusive turns Modified) and attributed runs keep the per-reference
//! commit. Statistics, traffic matrices, timelines and attribution
//! reports cannot tell the two apart, because the skipped accesses had
//! no effect that anything reads. Debug builds still check the skipped
//! references by running the kernel over them again.
//!
//! # Per-miss state
//!
//! A miss interns its line into a dense id ([`Directory::intern`]), the
//! one hash probe it makes. The directory's line states and each cache's
//! departure records (which classify the next miss on the line) are
//! vectors indexed by that id, and each cache way keeps its line's id.
//! So the miss classifies, runs its directory transaction and refills
//! by index, and an eviction or an invalidation writes its records
//! without any lookup. An upgrade or an update takes its id from the way
//! it hit in.
//!
//! Every globally visible action still executes in exact
//! `(time, processor)` order, so statistics, traffic matrices and the
//! attribution event order match the per-reference engine bit for bit —
//! asserted per commit by the differential tests in
//! `tests/differential.rs`, down to the tie order at a shared cycle
//! (`lookahead_tests`).
//!
//! # Instrumentation
//!
//! The engine is generic over its hook sink (`crate::obs::Hooks`) and
//! is compiled twice. [`simulate`] instantiates it with the zero-sized
//! no-op sink, so the plain path carries no instrumentation at all;
//! [`simulate_probed`] instantiates it with the [`EngineObs`] recorder,
//! whose hooks check at run time which recordings were asked for.

use crate::cache::{line_bit, Access, LineState, Lookahead, ProcessorCache};
use crate::config::ArchConfig;
use crate::directory::{Directory, Transaction, MAX_PROCESSORS};
use crate::obs::{EngineObs, Hooks, NoHooks};
use crate::protocol::Protocol;
use crate::stats::{MissKind, ProcStats, SimStats};
use placesim_placement::{PlacementMap, ProcessorId};
use placesim_trace::{MemRef, ProgramTrace, RefKind, ThreadId, ThreadTraceIter};
#[cfg(feature = "reference-engine")]
use std::cmp::Reverse;
#[cfg(feature = "reference-engine")]
use std::collections::BinaryHeap;
use std::fmt;

/// Errors from starting a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The placement map and the trace disagree about the thread count.
    PlacementMismatch {
        /// Threads in the trace.
        trace_threads: usize,
        /// Threads in the placement map.
        placed_threads: usize,
    },
    /// More processors than the directory supports.
    TooManyProcessors {
        /// Processors requested.
        processors: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Threads disagree on how many barriers they cross: a global
    /// barrier with unequal participation would deadlock.
    BarrierMismatch {
        /// Barrier count of thread 0.
        expected: u64,
        /// The first disagreeing thread.
        thread: usize,
        /// Its barrier count.
        found: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PlacementMismatch {
                trace_threads,
                placed_threads,
            } => write!(
                f,
                "trace has {trace_threads} threads but placement map has {placed_threads}"
            ),
            SimError::TooManyProcessors { processors, max } => {
                write!(
                    f,
                    "{processors} processors exceed the supported maximum of {max}"
                )
            }
            SimError::BarrierMismatch {
                expected,
                thread,
                found,
            } => write!(
                f,
                "thread {thread} crosses {found} barriers but thread 0 crosses {expected}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulates `prog` on the machine described by `config`, with threads
/// placed per `map`. See the module docs for the execution model.
///
/// # Errors
///
/// Returns [`SimError`] if the placement does not match the trace or
/// exceeds [`MAX_PROCESSORS`] processors.
pub fn simulate(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
) -> Result<SimStats, SimError> {
    run(prog, map, config, &mut NoHooks)
}

/// Like [`simulate`], but records whatever `obs` asks for: the
/// coherence traffic matrix, the engine counters, the event timeline
/// and the coherence attribution, in any combination, in one pass.
///
/// The statistics are bit-identical to [`simulate`]'s — recording never
/// perturbs the simulation. A recorder that asks for nothing takes
/// [`simulate`]'s uninstrumented path.
///
/// # Errors
///
/// Same as [`simulate`].
///
/// # Panics
///
/// If `obs.traffic` is not a `processors × processors` matrix.
pub fn simulate_probed(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
    obs: &mut EngineObs,
) -> Result<SimStats, SimError> {
    if obs.is_idle() {
        return simulate(prog, map, config);
    }
    if let Some(m) = &obs.traffic {
        assert_eq!(
            m.dim(),
            map.processor_count(),
            "traffic matrix must be processors × processors"
        );
    }
    run(prog, map, config, obs)
}

/// One hardware context: a thread's reference stream plus readiness.
struct Context<'a> {
    thread: ThreadId,
    refs: ThreadTraceIter<'a>,
    ready_at: u64,
    done: bool,
    /// Arrived at a barrier and waiting for the release.
    waiting: bool,
}

/// One processor: its contexts and the round-robin cursor.
struct Processor<'a> {
    contexts: Vec<Context<'a>>,
    current: usize,
    stats: ProcStats,
}

impl Processor<'_> {
    /// The next context (cyclically after `current`, inclusive of the
    /// current context as last resort) ready by `deadline`, or the
    /// not-done context with the earliest readiness.
    ///
    /// Returns `(index, dispatch_time)` or `None` when all contexts are
    /// done.
    fn next_context(&self, deadline: u64) -> Option<(usize, u64)> {
        let n = self.contexts.len();
        if n == 0 {
            return None;
        }
        // Step k visits context `(current + k) % n`: the contexts after
        // `current`, then those up to it, with no division per step.
        let (through_current, after) = self.contexts.split_at(self.current + 1);
        let mut best_later: Option<(u64, usize)> = None;
        for (ctx, step) in after.iter().chain(through_current).zip(1..) {
            if ctx.done || ctx.waiting {
                continue;
            }
            if ctx.ready_at <= deadline {
                return Some(((self.current + step) % n, deadline));
            }
            let key = (ctx.ready_at, step);
            if best_later.is_none_or(|(r, s)| (key.0, key.1) < (r, s)) {
                best_later = Some((ctx.ready_at, step));
            }
        }
        best_later.map(|(ready, step)| ((self.current + step) % n, ready))
    }
}

/// Validates placement shape, processor count and barrier participation.
/// Returns the barrier participant count.
fn validate(prog: &ProgramTrace, map: &PlacementMap) -> Result<u64, SimError> {
    if map.thread_count() != prog.thread_count() {
        return Err(SimError::PlacementMismatch {
            trace_threads: prog.thread_count(),
            placed_threads: map.thread_count(),
        });
    }
    let p = map.processor_count();
    if p > MAX_PROCESSORS {
        return Err(SimError::TooManyProcessors {
            processors: p,
            max: MAX_PROCESSORS,
        });
    }

    // Global barriers require equal participation or they deadlock.
    let barrier_total = prog
        .threads()
        .first()
        .map(placesim_trace::ThreadTrace::barrier_len)
        .unwrap_or(0);
    for (i, thread) in prog.threads().iter().enumerate() {
        if thread.barrier_len() != barrier_total {
            return Err(SimError::BarrierMismatch {
                expected: barrier_total,
                thread: i,
                found: thread.barrier_len(),
            });
        }
    }
    Ok(prog.thread_count() as u64)
}

/// Builds the per-processor contexts and seeds the event queue.
fn build_processors<'a>(
    prog: &'a ProgramTrace,
    map: &PlacementMap,
    mut schedule: impl FnMut(usize, u64),
) -> Vec<Processor<'a>> {
    let mut procs: Vec<Processor<'a>> = map
        .iter()
        .map(|(_, cluster)| Processor {
            contexts: cluster
                .iter()
                .map(|&tid| Context {
                    thread: tid,
                    refs: prog.thread(tid).iter(),
                    ready_at: 0,
                    done: prog.thread(tid).is_empty(),
                    waiting: false,
                })
                .collect(),
            current: 0,
            stats: ProcStats::default(),
        })
        .collect();
    for (pi, proc) in procs.iter_mut().enumerate() {
        // Start on the first not-done context, if any.
        if let Some((idx, at)) = proc.next_context(0) {
            proc.current = idx;
            schedule(pi, at);
        } else {
            // Degenerate: only empty threads (or none). current stays 0.
            proc.current = 0;
        }
    }
    procs
}

/// Absent event marker in the batched engine's slot queue.
const NO_EVENT: u64 = u64::MAX;

/// "Unknown thread" marker in the attribution hooks (the numeric value
/// of [`placesim_obs::timeline::NO_THREAD`]).
const ATTR_NO_THREAD: u32 = u32::MAX;

/// The last thread to touch `line` in `cache`, as the `u32` the
/// attribution hooks carry ([`ATTR_NO_THREAD`] when not resident).
fn owner_u32(cache: &ProcessorCache, line: u64) -> u32 {
    cache
        .owner_of(line)
        .map_or(ATTR_NO_THREAD, |t| t.index() as u32)
}

/// Lookahead not computed yet: the next pop scans it.
const UNSCANNED: u64 = u64::MAX;

/// A min tournament tree over one `u64` key per slot: `min` is the
/// smallest `(key, slot)`, so ties go to the lower slot. Node 1 is the
/// root, node `i` holds the smaller of nodes `2i` and `2i + 1`, and slot
/// q's leaf is node `leaves + q`, with the slot count rounded up to a
/// power of two. Every key starts at [`NO_EVENT`], as do the padding
/// leaves.
struct KeyTree {
    nodes: Vec<(u64, usize)>,
    leaves: usize,
}

impl KeyTree {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        KeyTree {
            nodes: (0..2 * leaves)
                .map(|i| (NO_EVENT, i.saturating_sub(leaves)))
                .collect(),
            leaves,
        }
    }

    /// Sets slot `q`'s key and replays the matches above its leaf,
    /// stopping at the first node whose winner does not change.
    fn set(&mut self, q: usize, key: u64) {
        let mut i = self.leaves + q;
        self.nodes[i] = (key, q);
        while i > 1 {
            i >>= 1;
            let (left, right) = (self.nodes[2 * i], self.nodes[2 * i + 1]);
            // Every slot under the left child is below every slot under
            // the right one, so a tie goes left.
            let winner = if right.0 < left.0 { right } else { left };
            if self.nodes[i] == winner {
                break;
            }
            self.nodes[i] = winner;
        }
    }

    /// The smallest `(key, slot)`.
    fn min(&self) -> (u64, usize) {
        self.nodes[1]
    }
}

/// The batched engine's event queue: one slot per processor (see the
/// module docs, "Hit-run lookahead").
struct Slots {
    /// `events[q]` is the issue cycle of processor q's next reference,
    /// [`NO_EVENT`] if it has none pending.
    events: Vec<u64>,
    /// `ahead[q]` counts the plain local hits that q's current context
    /// issues from `events[q]` on, or [`UNSCANNED`].
    ahead: Vec<u64>,
    /// Keys `events[q] + ahead[q]` of the scanned pending slots; a slot
    /// with no pending event holds [`NO_EVENT`]. A slot armed or popped
    /// since the last pop is re-keyed at the next one, after its scan.
    tree: KeyTree,
    /// Slots with a pending event.
    pending: usize,
    /// Slots armed or popped since the last pop: the only slots a pop
    /// has to scan or re-key.
    dirty: Vec<usize>,
    /// `lines[q]` and `writes[q]`: [`line_bit`] filters of the lines q's
    /// scanned lookahead references and writes. A catch-up walks the
    /// lookahead only when the touched line's bit is set.
    lines: Vec<u64>,
    writes: Vec<u64>,
    /// Committing a scanned plain hit changes nothing that is read later,
    /// so [`commit_scanned`] skips the references (see the module docs).
    inert_hits: bool,
}

impl Slots {
    /// An empty queue for `p` processors.
    fn new(p: usize, inert_hits: bool) -> Self {
        Slots {
            events: vec![NO_EVENT; p],
            ahead: vec![UNSCANNED; p],
            tree: KeyTree::new(p),
            pending: 0,
            dirty: Vec::with_capacity(p + 1),
            lines: vec![0; p],
            writes: vec![0; p],
            inert_hits,
        }
    }

    /// Schedules processor `q`'s next reference at `at`, dropping its
    /// lookahead: the scan belonged to the old slot.
    fn arm(&mut self, q: usize, at: u64) {
        if self.events[q] == NO_EVENT {
            self.pending += 1;
        }
        self.events[q] = at;
        self.ahead[q] = UNSCANNED;
        self.dirty.push(q);
    }

    /// The processor whose next globally visible reference comes first —
    /// the argmin of `(events[q] + ahead[q], q)` — and whether it is the
    /// only one pending; `None` when no event is left. A lone pending
    /// processor wins whatever its key, so it is not scanned. Otherwise
    /// `scan` first looks ahead of the slots armed since the last pop.
    fn select(&mut self, mut scan: impl FnMut(usize) -> Lookahead) -> Option<(usize, bool)> {
        if self.pending == 0 {
            return None;
        }
        let lone = self.pending == 1;
        for k in 0..self.dirty.len() {
            let q = self.dirty[k];
            if self.ahead[q] != UNSCANNED {
                continue; // listed twice, keyed already
            }
            let key = if self.events[q] == NO_EVENT || lone {
                self.events[q]
            } else {
                let look = scan(q);
                self.ahead[q] = look.hits;
                self.lines[q] = look.lines;
                self.writes[q] = look.writes;
                self.events[q] + look.hits
            };
            self.tree.set(q, key);
        }
        self.dirty.clear();
        let (_, pi) = self.tree.min();
        debug_assert!(self.events[pi] != NO_EVENT, "the root is a pending slot");
        Some((pi, lone))
    }

    /// Removes processor `pi`'s event, returning its issue cycle and
    /// lookahead. Its leaf keeps the old key until the next pop re-keys
    /// it: by then `pi` is usually armed again.
    fn take(&mut self, pi: usize) -> (u64, u64) {
        let t = std::mem::replace(&mut self.events[pi], NO_EVENT);
        let scanned = std::mem::replace(&mut self.ahead[pi], UNSCANNED);
        self.pending -= 1;
        self.dirty.push(pi);
        (t, scanned)
    }

    /// Brings processor `v` up to `touch`, which is about to change `v`'s
    /// copy of `touch.line`: commits `v`'s scanned hits that issue before
    /// the touch in `(cycle, processor)` order, then cuts the rest of the
    /// lookahead before the first reference the change turns into a
    /// globally visible one. References to other lines still hit, so
    /// when the line filter rules the line out the rest stays whole
    /// without a walk. Kept out of line: it is cold next to the hit loop
    /// in `run`.
    #[inline(never)]
    fn catch_up<H: Hooks>(
        &mut self,
        v: usize,
        touch: Touch,
        proc: &mut Processor<'_>,
        cache: &mut ProcessorCache,
        line_shift: u32,
        obs: &mut H,
    ) {
        let ahead = self.ahead[v];
        if ahead == UNSCANNED {
            return;
        }
        let start = self.events[v];
        let n = ahead.min((touch.now + u64::from(v < touch.by)).saturating_sub(start));
        let ctx = &mut proc.contexts[proc.current];
        if n > 0 {
            #[cfg(test)]
            commit_counter::add(&commit_counter::CAUGHT_UP, n);
            obs.on_pop(self.pending);
            commit_scanned(ctx, cache, n, line_shift, self.inert_hits);
            proc.stats.busy += n;
            proc.stats.hits += n;
            proc.stats.finish_time = start + n;
            self.events[v] = start + n;
            obs.on_hit_run(n);
            obs.on_run_slice(v, ctx.thread.index() as u32, start, start + n, n);
        }
        let rest = ahead - n;
        self.ahead[v] = rest;
        let filter = if touch.removes {
            self.lines[v]
        } else {
            self.writes[v]
        };
        if filter & line_bit(touch.line) == 0 {
            return;
        }
        let words = &ctx.refs.as_packed()[..rest as usize];
        let cut = Lookahead::cut(words, line_shift, touch.line, touch.removes);
        #[cfg(test)]
        walk_counter::WALKED.with(|c| c.set(c.get() + cut.map_or(rest, |k| k as u64 + 1)));
        if let Some(cut) = cut {
            self.cut(v, cut as u64);
        }
    }

    /// Shortens pending slot `v`'s lookahead to `hits`, which moves its
    /// key earlier.
    fn cut(&mut self, v: usize, hits: u64) {
        debug_assert!(hits <= self.ahead[v], "a cut never lengthens a lookahead");
        self.ahead[v] = hits;
        self.tree.set(v, self.events[v] + hits);
    }
}

/// Test-only count of the references [`Slots::catch_up`] walks to find
/// its cut, on this thread.
#[cfg(test)]
mod walk_counter {
    use std::cell::Cell;

    thread_local! {
        /// References inspected by catch-up walks.
        pub(super) static WALKED: Cell<u64> = const { Cell::new(0) };
    }
}

/// A remote action about to change one line of another processor's
/// cache, as that processor's catch-up sees it.
#[derive(Clone, Copy)]
struct Touch {
    /// Issue cycle of the action.
    now: u64,
    /// The acting processor.
    by: usize,
    /// The line whose copy changes.
    line: u64,
    /// The copy goes away (an invalidation), so every later reference to
    /// the line misses. Otherwise (a downgrade, a Dragon update) the copy
    /// stays without write permission: reads still hit, writes need the
    /// directory.
    removes: bool,
}

impl Touch {
    /// An invalidation of `line` by processor `by` at cycle `now`.
    fn removing(now: u64, by: usize, line: u64) -> Self {
        Touch {
            now,
            by,
            line,
            removes: true,
        }
    }

    /// A downgrade or Dragon update of `line` by processor `by` at
    /// cycle `now`.
    fn demoting(now: u64, by: usize, line: u64) -> Self {
        Touch {
            now,
            by,
            line,
            removes: false,
        }
    }
}

/// Processor `proc`'s lookahead: how many of its current context's next
/// references are plain local hits, found by the hit kernel
/// ([`ProcessorCache::scan_hits`]). Read-only. Stops before a barrier,
/// before the context's final reference (its completion switches
/// contexts) and before the first reference that needs the directory.
#[inline]
fn scan(proc: &Processor<'_>, cache: &ProcessorCache, line_shift: u32) -> Lookahead {
    cache.scan_hits(proc.contexts[proc.current].refs.as_packed(), line_shift)
}

/// Commits `n` of `ctx`'s scanned plain hits to `cache`; the caller
/// accounts them. With `inert` hits (see the module docs, "Hit-run
/// lookahead") the commit has no effect that is read later, so it only
/// advances the trace in O(1). Otherwise each reference is accessed again,
/// which refreshes LRU order, silent Exclusive→Modified transitions and
/// the slot's owner.
#[inline(always)]
fn commit_scanned(
    ctx: &mut Context<'_>,
    cache: &mut ProcessorCache,
    n: u64,
    line_shift: u32,
    inert: bool,
) {
    if n == 0 {
        return;
    }
    if inert {
        // The scan excluded the context's final reference, so `n + 1`
        // words remain, and the kernel finds the same `n` hits again.
        debug_assert_eq!(
            cache
                .scan_hits(&ctx.refs.as_packed()[..=n as usize], line_shift)
                .hits,
            n,
            "scanned hits must still hit"
        );
        ctx.refs.nth(n as usize - 1).expect("scanned reference");
    } else {
        for _ in 0..n {
            let r = ctx.refs.next().expect("scanned reference");
            #[cfg(test)]
            commit_counter::add(&commit_counter::ACCESSES, 1);
            let line = r.addr.raw() >> line_shift;
            let access = cache.access(line, r.kind.is_write(), ctx.thread);
            debug_assert_eq!(access, Access::Hit, "scanned hit must still hit");
        }
    }
    #[cfg(test)]
    commit_counter::add(&commit_counter::COMMITTED, n);
}

/// Test-only counters of the hits runs commit, on this thread.
#[cfg(test)]
mod commit_counter {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Hits committed as part of a run: scanned ones at a pop, in a
        /// catch-up or in a lone run, and a lone run's unscanned ones.
        pub(super) static COMMITTED: Cell<u64> = const { Cell::new(0) };
        /// The hits of lone runs among them.
        pub(super) static LONE: Cell<u64> = const { Cell::new(0) };
        /// The hits catch-ups committed among them.
        pub(super) static CAUGHT_UP: Cell<u64> = const { Cell::new(0) };
        /// Cache accesses made to commit them.
        pub(super) static ACCESSES: Cell<u64> = const { Cell::new(0) };
    }

    /// Adds `n` to `counter`.
    pub(super) fn add(counter: &'static LocalKey<Cell<u64>>, n: u64) {
        counter.with(|c| c.set(c.get() + n));
    }
}

/// Why a hit run ended; every variant is a reference with global
/// effects (or an end-of-trace) handled by the slow path.
enum Stop {
    /// The context's final reference hit; the free switch to another
    /// context happens at `now`.
    HitExhausted,
    /// A barrier reference, not yet accounted.
    Barrier {
        /// The barrier was the context's final reference.
        exhausted: bool,
    },
    /// A write hit on a Shared line: directory upgrade at `now`.
    Upgrade {
        /// The written line.
        line: u64,
        /// Its id.
        id: u32,
        /// The upgrade was the context's final reference.
        exhausted: bool,
    },
    /// Dragon: a write hit on a shared line propagating updates at `now`.
    Update {
        /// The written line.
        line: u64,
        /// Its id.
        id: u32,
        /// The update was the context's final reference.
        exhausted: bool,
    },
    /// A miss, already interned and classified.
    Miss {
        /// The missing line.
        line: u64,
        /// Its id, interned at this miss.
        id: u32,
        /// Whether the missing reference writes.
        is_write: bool,
        /// The paper's four-way classification.
        kind: MissKind,
        /// Invalidating processor, for invalidation misses.
        source: Option<ProcessorId>,
        /// The miss was the context's final reference.
        exhausted: bool,
    },
}

/// The batched engine, monomorphised per hook sink: with [`NoHooks`]
/// every hook compiles away.
#[allow(clippy::too_many_lines)]
fn run<H: Hooks>(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
    obs: &mut H,
) -> Result<SimStats, SimError> {
    let participants = validate(prog, map)?;
    let p = map.processor_count();

    let line_shift = config.line_size().trailing_zeros();
    let switch_cost = config.context_switch();
    let latency = config.memory_latency();
    let occupancy = config.memory_occupancy();
    // Bandwidth-limited interconnect (0 = the paper's contention-free
    // multipath network): each fill occupies the memory channel for
    // `occupancy` cycles, serializing concurrent misses.
    let mut channel_free_at = 0u64;

    // Slot queue: one pending event per processor, each with its
    // lookahead. One event = run the processor's current context up to
    // and including its next globally visible reference. A tournament
    // tree over the slots' keys makes a pop O(log p); only the slots
    // armed since the last pop are scanned.
    let protocol = config.protocol();
    let mut slots = Slots::new(
        p,
        config.associativity() == 1 && protocol == Protocol::Wi && !obs.wants_attribution(),
    );
    let mut procs = build_processors(prog, map, |pi, at| slots.arm(pi, at));
    let mut caches: Vec<ProcessorCache> = (0..p)
        .map(|_| {
            ProcessorCache::with_protocol(
                config.num_sets(),
                config.associativity() as usize,
                protocol,
            )
        })
        .collect();
    let mut directory = Directory::new();
    // Barrier bookkeeping: arrivals at the current global barrier, and
    // processors parked with every context waiting on it.
    let mut barrier_arrivals = 0u64;
    let mut parked: Vec<Option<u64>> = vec![None; p]; // Some(park time)

    // Pop the processor whose next globally visible reference comes
    // first. A lone pending processor is not scanned, and its run below
    // is bounded by its own trace.
    'events: while let Some((pi, lone)) = slots.select(|q| scan(&procs[q], &caches[q], line_shift))
    {
        obs.on_pop(slots.pending);
        let (t, scanned) = slots.take(pi);
        let ctx_idx = procs[pi].current;
        // Timeline hooks want the dispatched thread; a scheduled event
        // always has a live current context.
        let cur_thread = procs[pi].contexts[ctx_idx].thread.index() as u32;
        let mut now = t;

        // Fast path: consume the current context's consecutive hitting
        // references without touching the event queue. Counters
        // accumulate in locals and flush once per run, so a hit costs no
        // stat stores at all. A scanned run commits its `scanned` hits at
        // once, and the loop then starts at its stop reference. A lone
        // run is unscanned and may go on until its own first stop: with
        // inert hits it scans now and commits the same way, otherwise the
        // loop accesses each of its hits.
        let mut run_busy: u64;
        let mut run_hits: u64;
        let stop = {
            let cache = &mut caches[pi];
            let ctx = &mut procs[pi].contexts[ctx_idx];
            debug_assert!(!ctx.done);
            debug_assert!(ctx.ready_at <= t);
            let committed = match (lone, slots.inert_hits) {
                (false, _) => scanned,
                (true, true) => cache.scan_hits(ctx.refs.as_packed(), line_shift).hits,
                (true, false) => 0,
            };
            #[cfg(test)]
            if lone {
                commit_counter::add(&commit_counter::LONE, committed);
            }
            commit_scanned(ctx, cache, committed, line_shift, slots.inert_hits);
            run_busy = committed;
            run_hits = committed;
            now += committed;
            let thread = ctx.thread;
            loop {
                let r: MemRef = ctx
                    .refs
                    .next()
                    .expect("dispatched context has a next reference");
                let exhausted = ctx.refs.len() == 0;
                if r.kind == RefKind::Barrier {
                    break Stop::Barrier { exhausted };
                }
                let line = r.addr.raw() >> line_shift;
                let is_write = r.kind.is_write();
                run_busy += 1;
                match cache.access(line, is_write, thread) {
                    Access::Hit => {
                        run_hits += 1;
                        now += 1;
                        if exhausted {
                            ctx.done = true;
                            break Stop::HitExhausted;
                        }
                        // A hit of a lone run that was not scanned.
                        #[cfg(test)]
                        for counter in [
                            &commit_counter::COMMITTED,
                            &commit_counter::LONE,
                            &commit_counter::ACCESSES,
                        ] {
                            commit_counter::add(counter, 1);
                        }
                    }
                    Access::UpgradeHit { id } => {
                        break Stop::Upgrade {
                            line,
                            id,
                            exhausted,
                        }
                    }
                    Access::UpdateHit { id } => {
                        break Stop::Update {
                            line,
                            id,
                            exhausted,
                        }
                    }
                    Access::Miss => {
                        // The miss's one hash probe: every record it
                        // touches from here on is indexed by `id`.
                        let id = directory.intern(line);
                        let (kind, source) = cache.miss_provenance(id, thread);
                        break Stop::Miss {
                            line,
                            id,
                            is_write,
                            kind,
                            source,
                            exhausted,
                        };
                    }
                }
            }
        };
        debug_assert!(
            lone || run_hits == scanned + u64::from(matches!(stop, Stop::HitExhausted)),
            "processor {pi} ran {run_hits} hits past a lookahead of {scanned}"
        );
        {
            let stats = &mut procs[pi].stats;
            stats.busy += run_busy;
            stats.hits += run_hits;
            // The run's hits all completed; misses/upgrades/barriers set
            // finish_time again below at their own issue end.
            stats.finish_time = now;
        }
        obs.on_hit_run(run_hits);
        obs.on_run_slice(pi, cur_thread, t, now, run_hits);

        let me = ProcessorId::from_index(pi);
        let cur_tid = procs[pi].contexts[ctx_idx].thread;
        let final_hit = matches!(stop, Stop::HitExhausted);
        // Slow path: `Some((missed, exhausted, fill_line))` falls through
        // to the shared reschedule tail (`fill_line` is `Some` only for
        // real misses, so upgrade stalls emit no fill event); `None` arms
        // reschedule themselves.
        let reschedule: Option<(bool, bool, Option<u64>)> = match stop {
            Stop::HitExhausted => {
                // Switching away from a completed thread is free.
                Some((false, true, None))
            }
            Stop::Barrier { exhausted } => {
                procs[pi].stats.busy += 1;
                procs[pi].stats.barrier_ops += 1;
                let issue_end = now + 1;
                procs[pi].stats.finish_time = issue_end;
                if exhausted {
                    procs[pi].contexts[ctx_idx].done = true;
                }

                barrier_arrivals += 1;
                if barrier_arrivals == participants {
                    // Release: every waiting context resumes next cycle,
                    // and parked processors are rescheduled.
                    barrier_arrivals = 0;
                    for qi in 0..p {
                        let mut woke = false;
                        for ctx in &mut procs[qi].contexts {
                            if ctx.waiting {
                                ctx.waiting = false;
                                ctx.ready_at = issue_end;
                                woke = true;
                            }
                        }
                        if woke {
                            if let Some(park_time) = parked[qi].take() {
                                if let Some((idx, dispatch)) = procs[qi].next_context(issue_end) {
                                    procs[qi].stats.idle += dispatch - park_time;
                                    procs[qi].current = idx;
                                    slots.arm(qi, dispatch);
                                }
                            }
                        }
                    }
                } else if !exhausted {
                    procs[pi].contexts[ctx_idx].waiting = true;
                }

                // Barrier waits are synchronization, not pipeline misses:
                // the switch to another ready context is free.
                match procs[pi].next_context(issue_end) {
                    Some((idx, dispatch)) => {
                        if dispatch > issue_end {
                            procs[pi].stats.idle += dispatch - issue_end;
                        }
                        procs[pi].current = idx;
                        slots.arm(pi, dispatch);
                    }
                    None => {
                        // All contexts done or waiting: park until a
                        // release (or forever, if everything is done).
                        let any_waiting = procs[pi].contexts.iter().any(|c| c.waiting);
                        if any_waiting {
                            parked[pi] = Some(issue_end);
                        }
                    }
                }
                None
            }
            Stop::Upgrade {
                line,
                id,
                exhausted,
            } => {
                procs[pi].stats.hits += 1;
                procs[pi].stats.upgrades += 1;
                let tx = directory.write_fill(me, id);
                let had_remote = !tx.invalidate.is_empty();
                obs.on_invalidation_fanout(tx.invalidate.len() as u64);
                obs.on_directory(pi, cur_thread, now, line, tx.invalidate.len() as u64, true);
                procs[pi].stats.invalidations_sent += tx.invalidate.len() as u64;
                let touch = Touch::removing(now, pi, line);
                for victim in tx.invalidate {
                    let v = victim.index();
                    slots.catch_up(v, touch, &mut procs[v], &mut caches[v], line_shift, obs);
                    if obs.wants_attribution() {
                        let owner = owner_u32(&caches[v], line);
                        obs.on_attr_invalidation(line, cur_thread, owner);
                    }
                    caches[v].invalidate(line, me, cur_tid);
                    procs[v].stats.invalidations_received += 1;
                    obs.on_traffic(v, pi);
                    obs.on_invalidation_pair(pi, v, line, now);
                }
                caches[pi].set_modified(line);
                Some((config.upgrade_stalls() && had_remote, exhausted, None))
            }
            Stop::Update {
                line,
                id,
                exhausted,
            } => {
                // Dragon write hit on a shared line: refresh remote
                // copies in place. Counted as a hit (the writer never
                // loses the line); the messages land in the dedicated
                // update counters, not the invalidation ones.
                procs[pi].stats.hits += 1;
                let others = directory.update_fill(me, id);
                let had_remote = !others.is_empty();
                procs[pi].stats.updates_sent += others.len() as u64;
                obs.on_directory(pi, cur_thread, now, line, others.len() as u64, true);
                let touch = Touch::demoting(now, pi, line);
                for sharer in others {
                    let v = sharer.index();
                    slots.catch_up(v, touch, &mut procs[v], &mut caches[v], line_shift, obs);
                    if obs.wants_attribution() {
                        let owner = owner_u32(&caches[v], line);
                        obs.on_attr_update(line, cur_thread, owner);
                    }
                    caches[v].receive_update(line);
                    procs[v].stats.updates_received += 1;
                    obs.on_traffic(v, pi);
                    obs.on_update_pair(pi, v, line, now);
                }
                if had_remote {
                    caches[pi].set_shared_dirty(line);
                } else {
                    caches[pi].set_modified(line);
                }
                Some((config.upgrade_stalls() && had_remote, exhausted, None))
            }
            Stop::Miss {
                line,
                id,
                is_write,
                kind,
                source,
                exhausted,
            } => {
                procs[pi].stats.misses.record(kind);
                obs.on_miss(pi, cur_thread, now, line, kind as u64);
                if kind == MissKind::Invalidation {
                    if let Some(src) = source {
                        obs.on_traffic(pi, src.index());
                    }
                    if obs.wants_attribution() {
                        let writer = caches[pi]
                            .invalidation_writer(id)
                            .map_or(ATTR_NO_THREAD, |w| w.index() as u32);
                        obs.on_attr_coherence_miss(line, writer, cur_thread);
                    }
                }
                // Directory transaction + fill state, per protocol. The
                // `Wi` arms are the paper's machine, byte-for-byte.
                let (tx, fill_state) = match (protocol, is_write) {
                    (Protocol::Wi, true) => (directory.write_fill(me, id), LineState::Modified),
                    (Protocol::Wi, false) => (directory.read_fill(me, id), LineState::Shared),
                    (Protocol::Mesi | Protocol::Dragon, false) => {
                        // Exclusive-clean fill: a read with no other
                        // holder takes E, so a later private write
                        // upgrades silently.
                        if directory.sharers(id).is_empty() {
                            directory.grant_exclusive(me, id);
                            (Transaction::none(), LineState::Exclusive)
                        } else {
                            (directory.read_fill(me, id), LineState::Shared)
                        }
                    }
                    (Protocol::Mesi, true) => (directory.write_fill(me, id), LineState::Modified),
                    (Protocol::Dragon, true) => {
                        // Write-update: remote copies are refreshed, not
                        // invalidated, and the writer fills as dirty
                        // owner of a still-shared line.
                        let others = directory.update_fill(me, id);
                        procs[pi].stats.updates_sent += others.len() as u64;
                        let touch = Touch::demoting(now, pi, line);
                        for sharer in others {
                            let v = sharer.index();
                            slots.catch_up(
                                v,
                                touch,
                                &mut procs[v],
                                &mut caches[v],
                                line_shift,
                                obs,
                            );
                            if obs.wants_attribution() {
                                let owner = owner_u32(&caches[v], line);
                                obs.on_attr_update(line, cur_thread, owner);
                            }
                            caches[v].receive_update(line);
                            procs[v].stats.updates_received += 1;
                            obs.on_traffic(v, pi);
                            obs.on_update_pair(pi, v, line, now);
                        }
                        let fill_state = if others.is_empty() {
                            LineState::Modified
                        } else {
                            LineState::SharedDirty
                        };
                        (Transaction::none(), fill_state)
                    }
                };
                if is_write {
                    obs.on_invalidation_fanout(tx.invalidate.len() as u64);
                }
                obs.on_directory(
                    pi,
                    cur_thread,
                    now,
                    line,
                    tx.invalidate.len() as u64,
                    is_write,
                );
                procs[pi].stats.invalidations_sent += tx.invalidate.len() as u64;
                let touch = Touch::removing(now, pi, line);
                for victim in tx.invalidate {
                    let v = victim.index();
                    slots.catch_up(v, touch, &mut procs[v], &mut caches[v], line_shift, obs);
                    if obs.wants_attribution() {
                        let owner = owner_u32(&caches[v], line);
                        obs.on_attr_invalidation(line, cur_thread, owner);
                    }
                    caches[v].invalidate(line, me, cur_tid);
                    procs[v].stats.invalidations_received += 1;
                    obs.on_traffic(v, pi);
                    obs.on_invalidation_pair(pi, v, line, now);
                }
                if let Some(owner) = tx.downgrade {
                    let v = owner.index();
                    let touch = Touch::demoting(now, pi, line);
                    slots.catch_up(v, touch, &mut procs[v], &mut caches[v], line_shift, obs);
                    caches[v].downgrade(line);
                }
                if let Some(victim) = caches[pi].fill(line, id, fill_state, cur_tid) {
                    directory.evict(me, victim.id);
                }
                Some((true, exhausted, Some(line)))
            }
        };

        let Some((missed, exhausted, fill_line)) = reschedule else {
            continue 'events;
        };

        // `now` is the issue cycle for misses/upgrades but already the
        // end of issue for a final hit (the fast path advanced it).
        let issue_end = if final_hit { now } else { now + 1 };
        let proc = &mut procs[pi];
        let ctx = &mut proc.contexts[ctx_idx];
        if exhausted {
            ctx.done = true;
        }
        if missed {
            let start = if occupancy == 0 {
                now
            } else {
                let start = channel_free_at.max(now);
                channel_free_at = start + occupancy;
                start
            };
            ctx.ready_at = start + latency;
            if let Some(fline) = fill_line {
                obs.on_fill(pi, cur_thread, ctx.ready_at, fline);
            }
        }
        proc.stats.finish_time = issue_end;

        if !missed && !exhausted {
            // Same context continues next cycle (post-upgrade).
            slots.arm(pi, issue_end);
            continue 'events;
        }

        // Miss-induced switches pay the drain cost; switching away from a
        // completed thread is free (one-time event per thread).
        let (drain_end, drained) = if missed {
            (issue_end + switch_cost, switch_cost)
        } else {
            (issue_end, 0)
        };

        match proc.next_context(drain_end) {
            Some((idx, dispatch)) => {
                proc.stats.switching += drained;
                if missed {
                    obs.on_switch(drained);
                    obs.on_switch_slice(pi, cur_thread, issue_end, drained);
                }
                if dispatch > drain_end {
                    proc.stats.idle += dispatch - drain_end;
                }
                proc.current = idx;
                slots.arm(pi, dispatch);
            }
            None => {
                // All contexts done: the processor is finished. The drain
                // after the final miss is not part of useful execution and
                // is not charged.
            }
        }
    }

    let stats = SimStats::new(procs.into_iter().map(|pr| pr.stats).collect());
    #[cfg(feature = "audit")]
    crate::audit::check_drained(prog, map, stats.per_proc(), &caches, &directory);
    Ok(stats)
}

/// The pre-batching engine: one heap event per reference, kept verbatim
/// as the obviously-correct oracle for the differential test suite.
/// Compiled only with the default `reference-engine` feature.
#[cfg(feature = "reference-engine")]
pub mod reference {
    use super::*;
    use crate::cache::AccessOutcome;
    use placesim_analysis::SymMatrix;

    /// [`super::simulate`], executed by the per-reference engine.
    ///
    /// # Errors
    ///
    /// Same as [`super::simulate`].
    pub fn simulate(
        prog: &ProgramTrace,
        map: &PlacementMap,
        config: &ArchConfig,
    ) -> Result<SimStats, SimError> {
        let (stats, _) = run(prog, map, config, false)?;
        Ok(stats)
    }

    /// [`super::simulate`], additionally returning the coherence traffic
    /// matrix that [`super::simulate_probed`] records in
    /// [`EngineObs::traffic`], executed by the per-reference engine.
    ///
    /// # Errors
    ///
    /// Same as [`super::simulate`].
    pub fn simulate_with_traffic(
        prog: &ProgramTrace,
        map: &PlacementMap,
        config: &ArchConfig,
    ) -> Result<(SimStats, SymMatrix<u64>), SimError> {
        let (stats, traffic) = run(prog, map, config, true)?;
        Ok((stats, traffic.expect("traffic recording was enabled")))
    }

    fn record_pair(traffic: &mut Option<SymMatrix<u64>>, a: usize, b: usize) {
        if let Some(m) = traffic {
            if a != b {
                m.add(a, b, 1);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        prog: &ProgramTrace,
        map: &PlacementMap,
        config: &ArchConfig,
        record_traffic: bool,
    ) -> Result<(SimStats, Option<SymMatrix<u64>>), SimError> {
        let participants = validate(prog, map)?;
        let p = map.processor_count();

        let line_size = config.line_size();
        let switch_cost = config.context_switch();
        let latency = config.memory_latency();
        let occupancy = config.memory_occupancy();
        let mut channel_free_at = 0u64;

        // Event queue: Reverse((time, processor)). One event = dispatch
        // one reference of the processor's current context.
        let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut procs = build_processors(prog, map, |pi, at| queue.push(Reverse((at, pi))));
        let protocol = config.protocol();
        let mut caches: Vec<ProcessorCache> = (0..p)
            .map(|_| {
                ProcessorCache::with_protocol(
                    config.num_sets(),
                    config.associativity() as usize,
                    protocol,
                )
            })
            .collect();
        let mut directory = Directory::new();
        let mut traffic = record_traffic.then(|| SymMatrix::new(p, 0u64));
        let mut barrier_arrivals = 0u64;
        let mut parked: Vec<Option<u64>> = vec![None; p]; // Some(park time)

        while let Some(Reverse((t, pi))) = queue.pop() {
            let me = ProcessorId::from_index(pi);
            let ctx_idx = procs[pi].current;
            debug_assert!(!procs[pi].contexts[ctx_idx].done);
            debug_assert!(procs[pi].contexts[ctx_idx].ready_at <= t);

            let thread = procs[pi].contexts[ctx_idx].thread;
            let r: MemRef = procs[pi].contexts[ctx_idx]
                .refs
                .next()
                .expect("dispatched context has a next reference");
            let exhausted = procs[pi].contexts[ctx_idx].refs.len() == 0;

            if r.kind == RefKind::Barrier {
                procs[pi].stats.busy += 1;
                procs[pi].stats.barrier_ops += 1;
                let issue_end = t + 1;
                procs[pi].stats.finish_time = issue_end;
                if exhausted {
                    procs[pi].contexts[ctx_idx].done = true;
                }

                barrier_arrivals += 1;
                if barrier_arrivals == participants {
                    barrier_arrivals = 0;
                    for qi in 0..p {
                        let mut woke = false;
                        for ctx in &mut procs[qi].contexts {
                            if ctx.waiting {
                                ctx.waiting = false;
                                ctx.ready_at = issue_end;
                                woke = true;
                            }
                        }
                        if woke {
                            if let Some(park_time) = parked[qi].take() {
                                if let Some((idx, dispatch)) = procs[qi].next_context(issue_end) {
                                    procs[qi].stats.idle += dispatch - park_time;
                                    procs[qi].current = idx;
                                    queue.push(Reverse((dispatch, qi)));
                                }
                            }
                        }
                    }
                } else if !exhausted {
                    procs[pi].contexts[ctx_idx].waiting = true;
                }

                match procs[pi].next_context(issue_end) {
                    Some((idx, dispatch)) => {
                        if dispatch > issue_end {
                            procs[pi].stats.idle += dispatch - issue_end;
                        }
                        procs[pi].current = idx;
                        queue.push(Reverse((dispatch, pi)));
                    }
                    None => {
                        let any_waiting = procs[pi].contexts.iter().any(|c| c.waiting);
                        if any_waiting {
                            parked[pi] = Some(issue_end);
                        }
                    }
                }
                continue;
            }

            let line = r.addr.line(line_size).raw();
            let is_write = r.kind.is_write();

            procs[pi].stats.busy += 1;
            let issue_end = t + 1;

            let missed = match caches[pi].probe(line, is_write) {
                AccessOutcome::Hit => {
                    procs[pi].stats.hits += 1;
                    false
                }
                AccessOutcome::UpgradeHit => {
                    procs[pi].stats.hits += 1;
                    procs[pi].stats.upgrades += 1;
                    let id = directory.intern(line);
                    let tx = directory.write_fill(me, id);
                    let had_remote = !tx.invalidate.is_empty();
                    procs[pi].stats.invalidations_sent += tx.invalidate.len() as u64;
                    for victim in tx.invalidate {
                        caches[victim.index()].invalidate(line, me, thread);
                        procs[victim.index()].stats.invalidations_received += 1;
                        record_pair(&mut traffic, victim.index(), pi);
                    }
                    caches[pi].set_modified(line);
                    config.upgrade_stalls() && had_remote
                }
                AccessOutcome::UpdateHit => {
                    // Dragon write hit on a shared line (see the batched
                    // engine's Stop::Update arm).
                    procs[pi].stats.hits += 1;
                    let id = directory.intern(line);
                    let others = directory.update_fill(me, id);
                    let had_remote = !others.is_empty();
                    procs[pi].stats.updates_sent += others.len() as u64;
                    for sharer in others {
                        caches[sharer.index()].receive_update(line);
                        procs[sharer.index()].stats.updates_received += 1;
                        record_pair(&mut traffic, sharer.index(), pi);
                    }
                    if had_remote {
                        caches[pi].set_shared_dirty(line);
                    } else {
                        caches[pi].set_modified(line);
                    }
                    config.upgrade_stalls() && had_remote
                }
                AccessOutcome::Miss { victim: _ } => {
                    let id = directory.intern(line);
                    let (kind, source) = caches[pi].miss_provenance(id, thread);
                    procs[pi].stats.misses.record(kind);
                    if kind == MissKind::Invalidation {
                        if let Some(src) = source {
                            record_pair(&mut traffic, pi, src.index());
                        }
                    }
                    // Same per-protocol fill logic as the batched engine.
                    let (tx, fill_state) = match (protocol, is_write) {
                        (Protocol::Wi, true) => (directory.write_fill(me, id), LineState::Modified),
                        (Protocol::Wi, false) => (directory.read_fill(me, id), LineState::Shared),
                        (Protocol::Mesi | Protocol::Dragon, false) => {
                            if directory.sharers(id).is_empty() {
                                directory.grant_exclusive(me, id);
                                (Transaction::none(), LineState::Exclusive)
                            } else {
                                (directory.read_fill(me, id), LineState::Shared)
                            }
                        }
                        (Protocol::Mesi, true) => {
                            (directory.write_fill(me, id), LineState::Modified)
                        }
                        (Protocol::Dragon, true) => {
                            let others = directory.update_fill(me, id);
                            procs[pi].stats.updates_sent += others.len() as u64;
                            for sharer in others {
                                caches[sharer.index()].receive_update(line);
                                procs[sharer.index()].stats.updates_received += 1;
                                record_pair(&mut traffic, sharer.index(), pi);
                            }
                            let fill_state = if others.is_empty() {
                                LineState::Modified
                            } else {
                                LineState::SharedDirty
                            };
                            (Transaction::none(), fill_state)
                        }
                    };
                    procs[pi].stats.invalidations_sent += tx.invalidate.len() as u64;
                    for victim in tx.invalidate {
                        caches[victim.index()].invalidate(line, me, thread);
                        procs[victim.index()].stats.invalidations_received += 1;
                        record_pair(&mut traffic, victim.index(), pi);
                    }
                    if let Some(owner) = tx.downgrade {
                        caches[owner.index()].downgrade(line);
                    }
                    if let Some(victim) = caches[pi].fill(line, id, fill_state, thread) {
                        directory.evict(me, victim.id);
                    }
                    true
                }
            };

            let proc = &mut procs[pi];
            let ctx = &mut proc.contexts[ctx_idx];
            if exhausted {
                ctx.done = true;
            }
            if missed {
                let start = if occupancy == 0 {
                    t
                } else {
                    let start = channel_free_at.max(t);
                    channel_free_at = start + occupancy;
                    start
                };
                ctx.ready_at = start + latency;
            }
            proc.stats.finish_time = issue_end;

            if !missed && !exhausted {
                queue.push(Reverse((issue_end, pi)));
                continue;
            }

            let (drain_end, drained) = if missed {
                (issue_end + switch_cost, switch_cost)
            } else {
                (issue_end, 0)
            };

            if let Some((idx, dispatch)) = proc.next_context(drain_end) {
                proc.stats.switching += drained;
                if dispatch > drain_end {
                    proc.stats.idle += dispatch - drain_end;
                }
                proc.current = idx;
                queue.push(Reverse((dispatch, pi)));
            }
        }

        let stats = SimStats::new(procs.into_iter().map(|pr| pr.stats).collect());
        #[cfg(feature = "audit")]
        crate::audit::check_drained(prog, map, stats.per_proc(), &caches, &directory);
        Ok((stats, traffic))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use placesim_analysis::SymMatrix;
    use placesim_trace::{Address, ThreadTrace};

    fn cfg() -> ArchConfig {
        // Tiny cache: 8 sets of 32 bytes, latency 50, switch 6.
        ArchConfig::builder()
            .cache_size(256)
            .line_size(32)
            .build()
            .unwrap()
    }

    fn single(trace: ThreadTrace) -> (ProgramTrace, PlacementMap) {
        let prog = ProgramTrace::new("t", vec![trace]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        (prog, map)
    }

    #[test]
    fn all_hits_take_one_cycle_each() {
        // Same line referenced repeatedly: 1 compulsory miss + hits.
        let tr: ThreadTrace = (0..10).map(|_| MemRef::read(Address::new(0x100))).collect();
        let (prog, map) = single(tr);
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let p0 = stats.per_proc()[0];
        assert_eq!(p0.refs(), 10);
        assert_eq!(p0.misses.compulsory, 1);
        assert_eq!(p0.hits, 9);
        // Timeline: miss at t=0 (busy 1), drain 6, idle until ready at 50,
        // then 9 hits. finish = 50 + 9 = 59.
        assert_eq!(p0.busy, 10);
        assert_eq!(p0.switching, 6);
        assert_eq!(p0.idle, 50 - 7);
        assert_eq!(stats.execution_time(), 59);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }

    #[test]
    fn sequential_instr_stream_misses_per_line() {
        // 16 sequential word fetches cover 2 lines of 32 bytes.
        let tr: ThreadTrace = (0..16)
            .map(|i| MemRef::instr(Address::new(4 * i)))
            .collect();
        let (prog, map) = single(tr);
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        assert_eq!(stats.total_misses().compulsory, 2);
        assert_eq!(stats.total_hits(), 14);
    }

    #[test]
    fn conflict_misses_classified_intra_thread() {
        // Two addresses 256 bytes apart map to the same set (8 sets * 32B).
        let mut tr = ThreadTrace::new();
        for _ in 0..3 {
            tr.push(MemRef::read(Address::new(0x0)));
            tr.push(MemRef::read(Address::new(0x100)));
        }
        let (prog, map) = single(tr);
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let m = stats.total_misses();
        assert_eq!(m.compulsory, 2);
        assert_eq!(m.intra_thread_conflict, 4);
        assert_eq!(m.inter_thread_conflict, 0);
        assert_eq!(m.invalidation, 0);
    }

    #[test]
    fn inter_thread_conflicts_on_shared_processor() {
        // Two threads on one processor, alternating ownership of a set.
        let t0: ThreadTrace = (0..4).map(|_| MemRef::read(Address::new(0x0))).collect();
        let t1: ThreadTrace = (0..4).map(|_| MemRef::read(Address::new(0x100))).collect();
        let prog = ProgramTrace::new("t", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let m = stats.total_misses();
        assert_eq!(m.compulsory, 2);
        assert!(m.inter_thread_conflict > 0, "{m:?}");
        assert_eq!(m.intra_thread_conflict, 0);
    }

    #[test]
    fn invalidation_misses_across_processors() {
        // T0 reads X, T1 writes X, T0 rereads X → invalidation miss at P0.
        // Interleaving: both threads also execute spacer instructions so
        // the write lands between T0's two reads.
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::read(Address::new(0x1000)));
        for i in 0..200 {
            t0.push(MemRef::instr(Address::new(4 * i)));
        }
        t0.push(MemRef::read(Address::new(0x1000)));

        let mut t1 = ThreadTrace::new();
        t1.push(MemRef::write(Address::new(0x1000)));

        let prog = ProgramTrace::new("t", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let m = stats.total_misses();
        assert_eq!(m.invalidation, 1, "{m:?}");
        assert_eq!(stats.per_proc()[1].invalidations_sent, 1);
        assert_eq!(stats.per_proc()[0].invalidations_received, 1);
        assert_eq!(stats.coherence_traffic(), 2);
    }

    #[test]
    fn upgrade_write_counts_and_invalidates() {
        // T0 and T1 both read X, then T0 writes X (upgrade).
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::read(Address::new(0x1000)));
        for i in 0..200 {
            t0.push(MemRef::instr(Address::new(4 * i)));
        }
        t0.push(MemRef::write(Address::new(0x1000)));

        let mut t1 = ThreadTrace::new();
        t1.push(MemRef::read(Address::new(0x1000)));

        let prog = ProgramTrace::new("t", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        // Large cache so the instruction stream cannot evict X between
        // the read and the upgrade write.
        let big = ArchConfig::builder().cache_size(1 << 20).build().unwrap();
        let stats = simulate(&prog, &map, &big).unwrap();
        assert_eq!(stats.per_proc()[0].upgrades, 1);
        assert_eq!(stats.per_proc()[0].invalidations_sent, 1);
        assert_eq!(stats.per_proc()[1].invalidations_received, 1);
    }

    #[test]
    fn multithreading_hides_latency() {
        // One long thread alone vs. two threads with disjoint misses on
        // one processor: the pair overlaps latency, so two threads on one
        // processor finish in far less than 2x the solo time.
        let mk = |base: u64| -> ThreadTrace {
            (0..20)
                .map(|i| MemRef::read(Address::new(base + 0x1000 * i)))
                .collect()
        };
        let solo_prog = ProgramTrace::new("solo", vec![mk(0)]);
        let solo_map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let big = ArchConfig::builder().cache_size(1 << 20).build().unwrap();
        let solo = simulate(&solo_prog, &solo_map, &big).unwrap();

        let duo_prog = ProgramTrace::new("duo", vec![mk(0), mk(0x100_0000)]);
        let duo_map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let duo = simulate(&duo_prog, &duo_map, &big).unwrap();

        assert!(
            duo.execution_time() < 2 * solo.execution_time() * 3 / 4,
            "duo {} vs solo {}",
            duo.execution_time(),
            solo.execution_time()
        );
    }

    #[test]
    fn cycle_conservation_per_processor() {
        let t0: ThreadTrace = (0..50)
            .map(|i| MemRef::read(Address::new(0x40 * (i % 13))))
            .collect();
        let t1: ThreadTrace = (0..30)
            .map(|i| MemRef::write(Address::new(0x40 * (i % 7))))
            .collect();
        let t2: ThreadTrace = (0..70)
            .map(|i| MemRef::instr(Address::new(4 * i)))
            .collect();
        let prog = ProgramTrace::new("t", vec![t0, t1, t2]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1], vec![2]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        for (i, p) in stats.per_proc().iter().enumerate() {
            assert_eq!(
                p.accounted_cycles(),
                p.finish_time,
                "processor {i}: busy {} + switch {} + idle {} != finish {}",
                p.busy,
                p.switching,
                p.idle,
                p.finish_time
            );
        }
        assert_eq!(stats.total_refs(), 150);
    }

    #[test]
    fn traffic_matrix_symmetry_and_content() {
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::read(Address::new(0x1000)));
        for i in 0..100 {
            t0.push(MemRef::instr(Address::new(4 * i)));
        }
        t0.push(MemRef::read(Address::new(0x1000)));
        let mut t1 = ThreadTrace::new();
        t1.push(MemRef::write(Address::new(0x1000)));
        let prog = ProgramTrace::new("t", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let mut obs = EngineObs {
            traffic: Some(SymMatrix::new(2, 0)),
            ..EngineObs::default()
        };
        let stats = simulate_probed(&prog, &map, &cfg(), &mut obs).unwrap();
        // One invalidation (P1→P0) + one invalidation miss at P0 = 2.
        assert_eq!(obs.traffic.unwrap().get(0, 1), 2);
        assert_eq!(stats.coherence_traffic(), 2);
    }

    #[test]
    fn placement_mismatch_rejected() {
        let prog = ProgramTrace::new("t", vec![ThreadTrace::new()]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        assert!(matches!(
            simulate(&prog, &map, &cfg()),
            Err(SimError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn empty_threads_finish_instantly() {
        let prog = ProgramTrace::new("t", vec![ThreadTrace::new(), ThreadTrace::new()]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        assert_eq!(stats.execution_time(), 0);
        assert_eq!(stats.total_refs(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let t0: ThreadTrace = (0..60)
            .map(|i| MemRef::read(Address::new(0x20 * (i % 17))))
            .collect();
        let t1: ThreadTrace = (0..60)
            .map(|i| MemRef::write(Address::new(0x20 * (i % 11))))
            .collect();
        let prog = ProgramTrace::new("t", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let a = simulate(&prog, &map, &cfg()).unwrap();
        let b = simulate(&prog, &map, &cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn infinite_cache_eliminates_conflicts() {
        let t0: ThreadTrace = (0..100)
            .map(|i| MemRef::read(Address::new(0x40 * (i % 37))))
            .collect();
        let prog = ProgramTrace::new("t", vec![t0]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let stats = simulate(&prog, &map, &ArchConfig::infinite_cache()).unwrap();
        let m = stats.total_misses();
        assert_eq!(m.conflicts(), 0);
        assert_eq!(m.compulsory, 37);
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use placesim_trace::{Address, ThreadTrace};

    /// Many processors missing simultaneously: a bandwidth-limited
    /// channel must stretch execution, a contention-free one must not.
    #[test]
    fn memory_occupancy_serializes_concurrent_misses() {
        // 8 single-thread processors, each missing on every reference
        // (distinct lines, no reuse).
        let mk = |base: u64| -> ThreadTrace {
            (0..40)
                .map(|i| MemRef::read(Address::new(base + 0x1000 * i)))
                .collect()
        };
        let prog = ProgramTrace::new("missy", (0..8u64).map(|t| mk(t * 0x100_0000)).collect());
        let map = PlacementMap::from_clusters((0..8).map(|i| vec![i]).collect()).unwrap();

        let free = ArchConfig::builder().cache_size(1 << 20).build().unwrap();
        let tight = ArchConfig::builder()
            .cache_size(1 << 20)
            .memory_occupancy(10)
            .build()
            .unwrap();

        let a = simulate(&prog, &map, &free).unwrap();
        let b = simulate(&prog, &map, &tight).unwrap();
        assert!(
            b.execution_time() > a.execution_time() * 3 / 2,
            "contended {} should be well above free {}",
            b.execution_time(),
            a.execution_time()
        );
        // Miss classification is orthogonal to timing.
        assert_eq!(a.total_misses(), b.total_misses());
    }

    /// Occupancy 0 must match the default path bit-for-bit.
    #[test]
    fn zero_occupancy_is_identity() {
        let tr: ThreadTrace = (0..60)
            .map(|i| MemRef::write(Address::new(0x40 * (i % 23))))
            .collect();
        let prog = ProgramTrace::new("t", vec![tr]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let base = ArchConfig::paper_default();
        let zero = ArchConfig::builder().memory_occupancy(0).build().unwrap();
        assert_eq!(
            simulate(&prog, &map, &base).unwrap(),
            simulate(&prog, &map, &zero).unwrap()
        );
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;
    use placesim_trace::{Address, ThreadTrace};

    /// With `upgrade_stalls`, a write hit that must invalidate a remote
    /// sharer costs the writer the memory latency; without it, the write
    /// completes in one cycle. Coherence events are identical either way.
    #[test]
    fn upgrade_stall_costs_latency_only() {
        // T0: read X, long spacer, write X (upgrade), more spacers.
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::read(Address::new(0x8000)));
        for i in 0..300 {
            t0.push(MemRef::instr(Address::new(4 * i)));
        }
        t0.push(MemRef::write(Address::new(0x8000)));
        for i in 0..300 {
            t0.push(MemRef::instr(Address::new(4 * i)));
        }
        // T1 reads X early so the write is a real upgrade.
        let t1: ThreadTrace = [MemRef::read(Address::new(0x8000))].into_iter().collect();

        let prog = ProgramTrace::new("up", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let big = |stall: bool| {
            ArchConfig::builder()
                .cache_size(1 << 20)
                .upgrade_stalls(stall)
                .build()
                .unwrap()
        };

        let fast = simulate(&prog, &map, &big(false)).unwrap();
        let slow = simulate(&prog, &map, &big(true)).unwrap();

        assert_eq!(fast.per_proc()[0].upgrades, 1);
        assert_eq!(slow.per_proc()[0].upgrades, 1);
        assert_eq!(fast.total_invalidations(), slow.total_invalidations());
        assert_eq!(fast.total_misses(), slow.total_misses());
        // The stalled run pays the latency (minus what the switch would
        // have cost anyway) exactly once.
        let delta = slow.execution_time() - fast.execution_time();
        assert!(
            (40..=60).contains(&delta),
            "stall delta {delta} should be about one memory latency"
        );
    }

    /// An upgrade with no remote sharers never stalls, even with the
    /// knob on.
    #[test]
    fn solo_upgrade_never_stalls() {
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::read(Address::new(0x8000)));
        t0.push(MemRef::write(Address::new(0x8000)));
        let prog = ProgramTrace::new("solo", vec![t0]);
        let map = PlacementMap::from_clusters(vec![vec![0]]).unwrap();
        let cfg = ArchConfig::builder()
            .cache_size(1 << 20)
            .upgrade_stalls(true)
            .build()
            .unwrap();
        let stats = simulate(&prog, &map, &cfg).unwrap();
        // Read miss at t=0 (ready t=50), write upgrade hit at t=50,
        // finish t=51.
        assert_eq!(stats.execution_time(), 51);
        assert_eq!(stats.per_proc()[0].upgrades, 1);
        assert_eq!(stats.per_proc()[0].invalidations_sent, 0);
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use placesim_trace::{Address, ThreadTrace};

    fn big_cache() -> ArchConfig {
        ArchConfig::builder().cache_size(1 << 20).build().unwrap()
    }

    /// A fast thread must wait at the barrier for a slow one on another
    /// processor.
    #[test]
    fn barrier_synchronizes_across_processors() {
        let mut fast = ThreadTrace::new();
        for i in 0..10 {
            fast.push(MemRef::instr(Address::new(4 * i)));
        }
        fast.push(MemRef::barrier(0));
        for i in 0..5 {
            fast.push(MemRef::instr(Address::new(4 * i)));
        }

        let mut slow = ThreadTrace::new();
        for i in 0..500 {
            slow.push(MemRef::instr(Address::new(4 * i)));
        }
        slow.push(MemRef::barrier(0));
        for i in 0..5 {
            slow.push(MemRef::instr(Address::new(4 * i)));
        }

        let prog = ProgramTrace::new("sync", vec![fast, slow]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &big_cache()).unwrap();

        // The fast thread's processor finishes only after the slow
        // thread reaches the barrier (~500+ cycles), despite having only
        // 16 references of its own.
        let p0 = stats.per_proc()[0];
        assert!(p0.finish_time > 450, "fast proc finish {}", p0.finish_time);
        assert!(
            p0.idle > 400,
            "fast proc must idle at the barrier: {}",
            p0.idle
        );
        assert_eq!(p0.barrier_ops, 1);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
        assert_eq!(stats.total_refs(), prog.total_refs());
    }

    /// Two co-resident threads can satisfy a barrier via context
    /// switching on one processor.
    #[test]
    fn barrier_on_one_processor_does_not_deadlock() {
        let mk = |n: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for i in 0..n {
                t.push(MemRef::instr(Address::new(4 * i)));
            }
            t.push(MemRef::barrier(0));
            t.push(MemRef::instr(Address::new(0)));
            t
        };
        let prog = ProgramTrace::new("local", vec![mk(10), mk(30)]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let stats = simulate(&prog, &map, &big_cache()).unwrap();
        assert_eq!(stats.total_refs(), prog.total_refs());
        let p0 = stats.per_proc()[0];
        assert_eq!(p0.barrier_ops, 2);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }

    /// Multiple barrier phases execute in order.
    #[test]
    fn multiple_phases() {
        let mk = |work: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for phase in 0..3u64 {
                for i in 0..work {
                    t.push(MemRef::instr(Address::new(4 * i)));
                }
                t.push(MemRef::barrier(phase));
            }
            t
        };
        let prog = ProgramTrace::new("phases", vec![mk(20), mk(40), mk(60)]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1], vec![2]]).unwrap();
        let stats = simulate(&prog, &map, &big_cache()).unwrap();
        // Makespan is governed by the slowest thread per phase: at least
        // 3 * 60 instructions.
        assert!(stats.execution_time() >= 3 * 60);
        for p in stats.per_proc() {
            assert_eq!(p.barrier_ops, 3);
            assert_eq!(p.accounted_cycles(), p.finish_time);
        }
    }

    /// Unequal barrier counts are rejected up front.
    #[test]
    fn mismatched_barrier_counts_rejected() {
        let mut t0 = ThreadTrace::new();
        t0.push(MemRef::barrier(0));
        let t1: ThreadTrace = [MemRef::instr(Address::new(0))].into_iter().collect();
        let prog = ProgramTrace::new("bad", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        assert!(matches!(
            simulate(&prog, &map, &big_cache()),
            Err(SimError::BarrierMismatch {
                expected: 1,
                thread: 1,
                found: 0
            })
        ));
    }

    /// A thread ending exactly at its final barrier still releases
    /// everyone else.
    #[test]
    fn thread_ending_at_barrier_releases_peers() {
        let mut ends_at_barrier = ThreadTrace::new();
        ends_at_barrier.push(MemRef::instr(Address::new(0)));
        ends_at_barrier.push(MemRef::barrier(0));

        let mut continues = ThreadTrace::new();
        continues.push(MemRef::barrier(0));
        for i in 0..10 {
            continues.push(MemRef::instr(Address::new(4 * i)));
        }

        let prog = ProgramTrace::new("tail", vec![ends_at_barrier, continues]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &big_cache()).unwrap();
        assert_eq!(stats.total_refs(), prog.total_refs());
        assert!(stats.per_proc()[1].finish_time >= 12);
    }

    /// Barrier waits interact correctly with cache misses: a waiting
    /// context neither executes nor blocks its co-resident contexts.
    #[test]
    fn waiting_context_lets_others_run() {
        let mut waits_early = ThreadTrace::new();
        waits_early.push(MemRef::barrier(0));
        waits_early.push(MemRef::read(Address::new(0x9000)));

        let mut works = ThreadTrace::new();
        for i in 0..50 {
            works.push(MemRef::read(Address::new(0x1000 + 0x40 * i)));
        }
        works.push(MemRef::barrier(0));

        let prog = ProgramTrace::new("mix", vec![waits_early, works]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let stats = simulate(&prog, &map, &big_cache()).unwrap();
        let p0 = stats.per_proc()[0];
        assert_eq!(stats.total_refs(), prog.total_refs());
        assert_eq!(p0.barrier_ops, 2);
        // The working thread's 50 misses dominate; the waiting context
        // must not add idle beyond what the misses force.
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }
}

/// Edge cases of the hit-run lookahead: lockstep processors, remote
/// writes landing inside a scanned run, contexts exhausting mid-run, and
/// barriers immediately after a run. Every test closes with the cycle
/// conservation law.
#[cfg(test)]
mod lookahead_tests {
    use super::*;
    use placesim_trace::{Address, ThreadTrace};

    fn cfg() -> ArchConfig {
        // 8 sets of 32 bytes, latency 50, switch 6, contention-free.
        ArchConfig::builder()
            .cache_size(256)
            .line_size(32)
            .build()
            .unwrap()
    }

    /// Two lockstep processors whose hits share every cycle. Each one's
    /// lookahead covers its whole remaining hit run, so the runs no
    /// longer interleave reference by reference, yet they must account
    /// exactly like the per-reference engine.
    #[test]
    fn lockstep_processors_account_per_reference() {
        let t0: ThreadTrace = (0..10).map(|_| MemRef::read(Address::new(0x000))).collect();
        let t1: ThreadTrace = (0..10).map(|_| MemRef::read(Address::new(0x400))).collect();
        let prog = ProgramTrace::new("lockstep", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();

        for p in stats.per_proc() {
            // Compulsory miss at t=0, drain 6, ready at 50, then 9 hits
            // issued one per cycle while the peers interleave.
            assert_eq!(p.misses.compulsory, 1);
            assert_eq!(p.hits, 9);
            assert_eq!(p.busy, 10);
            assert_eq!(p.switching, 6);
            assert_eq!(p.idle, 43);
            assert_eq!(p.finish_time, 59);
            assert_eq!(p.accounted_cycles(), p.finish_time);
        }
    }

    /// A writer's write miss at cycle 60 invalidates line X while the
    /// victim's scanned run reads X at cycles 50..=61. The victim runs
    /// on processor `victim`, the writer on the other of processors 0
    /// and 1. Returns the victim's statistics.
    fn remote_write_at_tied_cycle(victim: usize) -> ProcStats {
        let x = Address::new(0x000);
        let y = Address::new(0x020); // another set: no conflict with X
                                     // Victim: compulsory miss on X at 0, ready at 50, then 12 reads
                                     // of X issued from cycle 50 on.
        let v: ThreadTrace = (0..13).map(|_| MemRef::read(x)).collect();
        // Writer: compulsory miss on Y at 0, hits on Y at 50..=59, then a
        // write miss on X at cycle 60 that invalidates the victim's copy.
        let mut w: ThreadTrace = (0..11).map(|_| MemRef::read(y)).collect();
        w.push(MemRef::write(x));
        let threads = if victim == 0 { vec![v, w] } else { vec![w, v] };
        let prog = ProgramTrace::new("tie", threads);
        let map = PlacementMap::from_clusters(vec![vec![0], vec![1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        #[cfg(feature = "reference-engine")]
        assert_eq!(stats, reference::simulate(&prog, &map, &cfg()).unwrap());
        let writer = stats.per_proc()[1 - victim];
        assert_eq!(writer.invalidations_sent, 1);
        assert_eq!(writer.finish_time, 61);
        stats.per_proc()[victim]
    }

    /// Victim index below the writer's: at the tied cycle the victim's
    /// reference goes first and hits; its next reference to X, its final
    /// one at cycle 61, is the invalidation miss.
    #[test]
    fn tied_remote_write_lands_after_a_lower_indexed_victim() {
        let p0 = remote_write_at_tied_cycle(0);
        assert_eq!(p0.hits, 11, "hits at cycles 50..=60");
        assert_eq!(p0.misses.compulsory, 1);
        assert_eq!(p0.misses.invalidation, 1);
        assert_eq!(p0.invalidations_received, 1);
        // The final reference misses at 61 and ends the thread.
        assert_eq!(p0.finish_time, 62);
        assert_eq!(p0.switching, 6);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }

    /// Victim index above the writer's: the write goes first at the tied
    /// cycle, so the victim's reference at cycle 60 is itself the
    /// invalidation miss; the refill is ready at 110, where the final
    /// read hits.
    #[test]
    fn tied_remote_write_lands_before_a_higher_indexed_victim() {
        let p1 = remote_write_at_tied_cycle(1);
        assert_eq!(p1.hits, 11, "hits at cycles 50..=59 and 110");
        assert_eq!(p1.misses.compulsory, 1);
        assert_eq!(p1.misses.invalidation, 1);
        assert_eq!(p1.invalidations_received, 1);
        assert_eq!(p1.finish_time, 111);
        assert_eq!(p1.switching, 12);
        assert_eq!(p1.accounted_cycles(), p1.finish_time);
    }

    /// A context's trace ends inside a hit run: the run stops, the
    /// thread completes, and the switch to the other context is free
    /// (no drain) — only the wait until its readiness is idle time.
    #[test]
    fn context_exhausts_mid_run() {
        let t0: ThreadTrace = (0..5).map(|_| MemRef::read(Address::new(0x000))).collect();
        let t1: ThreadTrace = (0..5).map(|_| MemRef::read(Address::new(0x020))).collect();
        let prog = ProgramTrace::new("exhaust", vec![t0, t1]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let p0 = stats.per_proc()[0];

        // t=0: thread 0 compulsory miss, drain to 7, thread 1 dispatched.
        // t=7: thread 1 compulsory miss, drain to 14, idle until thread 0
        // ready at 50. t=50..54: thread 0's 4 hits in one lone run,
        // trace done, free switch, idle until 57. t=57..61: thread 1's 4
        // hits in one lone run.
        assert_eq!(p0.misses.compulsory, 2);
        assert_eq!(p0.hits, 8);
        assert_eq!(p0.busy, 10);
        assert_eq!(p0.switching, 12);
        assert_eq!(p0.idle, 36 + 3);
        assert_eq!(p0.finish_time, 61);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }

    /// A barrier is the first reference the slow path sees after a run
    /// of hits: arrival bookkeeping, waiting and release all happen at
    /// the run's local clock, not the event's pop time.
    #[test]
    fn barrier_first_after_batched_run() {
        let mk = |base: u64| -> ThreadTrace {
            let mut t = ThreadTrace::new();
            for _ in 0..4 {
                t.push(MemRef::read(Address::new(base)));
            }
            t.push(MemRef::barrier(0));
            for _ in 0..3 {
                t.push(MemRef::read(Address::new(base)));
            }
            t
        };
        let prog = ProgramTrace::new("batch-barrier", vec![mk(0x000), mk(0x020)]);
        let map = PlacementMap::from_clusters(vec![vec![0, 1]]).unwrap();
        let stats = simulate(&prog, &map, &cfg()).unwrap();
        let p0 = stats.per_proc()[0];

        assert_eq!(stats.total_refs(), prog.total_refs());
        assert_eq!(p0.barrier_ops, 2);
        assert_eq!(p0.misses.total(), 2);
        assert_eq!(p0.hits, 12);
        assert_eq!(p0.accounted_cycles(), p0.finish_time);
    }
}

/// The O(1) commit of hit runs: on the paper's machine neither a popped
/// run, nor a catch-up, nor a lone run re-accesses its hits. A run that
/// records attribution, which reads each slot's owner, a MESI run (a
/// write hit on Exclusive turns Modified) and a 2-way run (a hit
/// refreshes LRU order) access every hit they commit.
#[cfg(test)]
mod commit_tests {
    use super::commit_counter::{ACCESSES, CAUGHT_UP, COMMITTED, LONE};
    use super::*;
    use placesim_obs::AttrCollector;
    use placesim_workloads::{generate, spec, GenOptions};

    /// What one run of `sim` committed.
    #[derive(Debug)]
    struct Commits {
        stats: SimStats,
        committed: u64,
        lone: u64,
        caught_up: u64,
        accesses: u64,
    }

    fn count_commits(sim: impl FnOnce() -> SimStats) -> Commits {
        let counters = [&COMMITTED, &LONE, &CAUGHT_UP, &ACCESSES];
        for counter in counters {
            counter.with(|c| c.set(0));
        }
        let stats = sim();
        let [committed, lone, caught_up, accesses] =
            counters.map(|counter| counter.with(std::cell::Cell::get));
        Commits {
            stats,
            committed,
            lone,
            caught_up,
            accesses,
        }
    }

    /// Gauss with its threads dealt round-robin onto 4 processors.
    fn gauss_on_four() -> (ProgramTrace, PlacementMap) {
        let prog = generate(
            &spec("gauss").expect("suite app"),
            &GenOptions {
                scale: 0.005,
                seed: 1,
            },
        );
        let clusters = (0..4)
            .map(|q| (q..prog.thread_count()).step_by(4).collect())
            .collect();
        (prog, PlacementMap::from_clusters(clusters).unwrap())
    }

    /// Every kind of commit happened, and made `accesses` accesses.
    fn assert_exercised(c: &Commits, what: &str) {
        assert!(c.committed > 0, "{what}: no committed hits: {c:?}");
        assert!(c.lone > 0, "{what}: no lone run committed: {c:?}");
        assert!(c.caught_up > 0, "{what}: no catch-up committed: {c:?}");
        assert!(c.lone + c.caught_up < c.committed, "{what}: no pop: {c:?}");
    }

    #[test]
    fn paper_machine_commits_hit_runs_without_accessing_them() {
        let (prog, map) = gauss_on_four();
        let config = ArchConfig::paper_default();
        assert_eq!(config.associativity(), 1);
        assert_eq!(config.protocol(), Protocol::Wi);

        let plain = count_commits(|| simulate(&prog, &map, &config).unwrap());
        assert_exercised(&plain, "plain");
        assert_eq!(plain.accesses, 0, "a plain run re-accessed hits");

        let attributed = count_commits(|| {
            let mut obs = EngineObs {
                attribution: Some(AttrCollector::default()),
                ..EngineObs::default()
            };
            simulate_probed(&prog, &map, &config, &mut obs).unwrap()
        });
        assert_eq!(attributed.stats, plain.stats);
        assert_exercised(&attributed, "attributed");
        assert_eq!(
            attributed.accesses, attributed.committed,
            "one access per committed hit"
        );
    }

    #[test]
    fn mesi_and_two_way_runs_access_every_committed_hit() {
        let (prog, map) = gauss_on_four();
        let mut mesi = ArchConfig::builder();
        mesi.protocol(Protocol::Mesi);
        let mut two_way = ArchConfig::builder();
        two_way.associativity(2);
        for (what, builder) in [("mesi", mesi), ("2-way", two_way)] {
            let config = builder.build().unwrap();
            let c = count_commits(|| simulate(&prog, &map, &config).unwrap());
            assert_exercised(&c, what);
            assert_eq!(c.accesses, c.committed, "{what}: one access per hit");
        }
    }
}

/// The slot queue against a linear argmin, and the line filters that let
/// a catch-up skip its walk.
#[cfg(test)]
mod queue_tests {
    use super::walk_counter::WALKED;
    use super::*;
    use placesim_trace::{Address, ThreadTrace};

    /// Deterministic xorshift64* stream for the random sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    /// The pending slot a pop must take: the only one, or else the
    /// argmin of `(events[q] + ahead[q], q)`.
    fn linear_pop(slots: &Slots) -> Option<usize> {
        let pending: Vec<usize> = (0..slots.events.len())
            .filter(|&q| slots.events[q] != NO_EVENT)
            .collect();
        if pending.len() == 1 {
            return Some(pending[0]);
        }
        pending
            .into_iter()
            .min_by_key(|&q| (slots.events[q] + slots.ahead[q], q))
    }

    #[test]
    fn key_tree_min_is_the_linear_argmin() {
        for p in [1, 2, 3, 16, 127, 128] {
            let mut rng = Rng(0x9e37_79b9 + p as u64);
            let mut tree = KeyTree::new(p);
            let mut keys = vec![NO_EVENT; p];
            for _ in 0..4000 {
                let q = rng.below(p as u64) as usize;
                // Few distinct keys, so ties are common.
                keys[q] = match rng.below(4) {
                    0 => NO_EVENT,
                    _ => rng.below(6),
                };
                tree.set(q, keys[q]);
                let want = (0..p).map(|q| (keys[q], q)).min().expect("p > 0");
                assert_eq!(tree.min(), want, "p = {p}");
            }
        }
    }

    #[test]
    fn slot_pops_follow_the_linear_argmin() {
        for p in [1, 2, 3, 16, 127, 128] {
            let mut rng = Rng(0x51ed_270b + p as u64);
            let mut slots = Slots::new(p, true);
            let mut now = 0u64;
            let mut pops = 0;
            for _ in 0..6000 {
                match rng.below(3) {
                    // Arm an idle slot at or after the clock.
                    0 => {
                        let q = rng.below(p as u64) as usize;
                        if slots.events[q] == NO_EVENT {
                            slots.arm(q, now + rng.below(4));
                        }
                    }
                    // Catch-up: cut a scanned slot's lookahead short.
                    1 => {
                        let v = rng.below(p as u64) as usize;
                        if slots.ahead[v] != UNSCANNED && slots.ahead[v] > 0 {
                            let hits = rng.below(slots.ahead[v]);
                            slots.cut(v, hits);
                        }
                    }
                    // Pop, scanning armed slots with random lookaheads.
                    _ => {
                        let looks: Vec<u64> = (0..p).map(|_| rng.below(5)).collect();
                        let lone = slots.pending == 1;
                        let got = slots.select(|q| Lookahead {
                            hits: looks[q],
                            ..Lookahead::default()
                        });
                        let want = linear_pop(&slots);
                        assert_eq!(got.map(|(pi, _)| pi), want, "p = {p}");
                        let Some((pi, got_lone)) = got else {
                            continue;
                        };
                        assert_eq!(got_lone, lone);
                        if !lone {
                            for q in 0..p {
                                assert!(
                                    slots.events[q] == NO_EVENT || slots.ahead[q] != UNSCANNED,
                                    "pending slot {q} left unscanned"
                                );
                            }
                        }
                        let (t, _) = slots.take(pi);
                        now = now.max(t);
                        pops += 1;
                    }
                }
                let pending = slots.events.iter().filter(|&&e| e != NO_EVENT).count();
                assert_eq!(slots.pending, pending);
            }
            assert!(pops > 100, "p = {p}: only {pops} pops");
        }
    }

    fn cfg() -> ArchConfig {
        ArchConfig::builder().cache_size(1 << 16).build().unwrap()
    }

    /// Processor 0 runs `refs` with every line of `resident` in its
    /// cache, and processor 1 is pending too, so the pop scans
    /// processor 0's lookahead. Returns the queue, processor 0 and its
    /// cache after that pop has taken processor 1's event.
    fn scanned_victim<'a>(
        trace: &'a ThreadTrace,
        resident: &[u64],
    ) -> (Slots, Processor<'a>, ProcessorCache) {
        let config = cfg();
        let mut cache = ProcessorCache::new(config.num_sets());
        for &line in resident {
            cache.fill(line, line as u32, LineState::Shared, ThreadId::new(0));
        }
        let proc = Processor {
            contexts: vec![Context {
                thread: ThreadId::new(0),
                refs: trace.iter(),
                ready_at: 0,
                done: false,
                waiting: false,
            }],
            current: 0,
            stats: ProcStats::default(),
        };
        let mut slots = Slots::new(2, true);
        slots.arm(0, 10);
        slots.arm(1, 0);
        let (pi, lone) = slots
            .select(|q| match q {
                0 => scan(&proc, &cache, config.line_size().trailing_zeros()),
                _ => Lookahead::default(),
            })
            .unwrap();
        assert_eq!((pi, lone), (1, false));
        slots.take(1);
        (slots, proc, cache)
    }

    /// Reads of lines 0, 1 and 2 in turn, plus a final reference.
    fn reads_of_three_lines(line_size: u64) -> ThreadTrace {
        (0..31)
            .map(|i| MemRef::read(Address::new((i % 3) * line_size)))
            .collect()
    }

    /// The cut the pre-filter catch-up made: the first reference of the
    /// remaining lookahead that the touch turns globally visible.
    fn walked_cut(refs: &ThreadTraceIter<'_>, rest: u64, touch: Touch, line_size: u64) -> u64 {
        refs.clone()
            .take(rest as usize)
            .position(|r| {
                r.addr.line(line_size).raw() == touch.line && (touch.removes || r.kind.is_write())
            })
            .map_or(rest, |k| k as u64)
    }

    #[test]
    fn touch_outside_the_lookahead_walks_nothing() {
        let line_size = cfg().line_size();
        let line_shift = line_size.trailing_zeros();
        let trace = reads_of_three_lines(line_size);
        // Line 5 is resident but the lookahead never references it.
        let (mut slots, mut proc, mut cache) = scanned_victim(&trace, &[0, 1, 2, 5]);
        assert_eq!(slots.ahead[0], 30);
        WALKED.with(|c| c.set(0));
        let touch = Touch::removing(0, 1, 5);
        slots.catch_up(0, touch, &mut proc, &mut cache, line_shift, &mut NoHooks);
        assert_eq!(WALKED.with(std::cell::Cell::get), 0);
        assert_eq!(slots.ahead[0], 30, "the lookahead stays whole");
        // A demoting touch of a line the lookahead only reads walks
        // nothing either: reads still hit.
        let touch = Touch::demoting(0, 1, 1);
        slots.catch_up(0, touch, &mut proc, &mut cache, line_shift, &mut NoHooks);
        assert_eq!(WALKED.with(std::cell::Cell::get), 0);
        assert_eq!(slots.ahead[0], 30);
    }

    #[test]
    fn colliding_filter_bit_walks_and_cuts_where_the_old_walk_did() {
        let line_size = cfg().line_size();
        let line_shift = line_size.trailing_zeros();
        let trace = reads_of_three_lines(line_size);
        // Line 64 shares line 0's filter bit and is resident, but the
        // lookahead never references it.
        assert_eq!(line_bit(64), line_bit(0));
        let (mut slots, mut proc, mut cache) = scanned_victim(&trace, &[0, 1, 2, 64]);
        WALKED.with(|c| c.set(0));
        let touch = Touch::removing(0, 1, 64);
        let want = walked_cut(&proc.contexts[0].refs, 30, touch, line_size);
        slots.catch_up(0, touch, &mut proc, &mut cache, line_shift, &mut NoHooks);
        assert_eq!(
            WALKED.with(std::cell::Cell::get),
            30,
            "the walk ran to the end"
        );
        assert_eq!(slots.ahead[0], want);
        assert_eq!(want, 30);

        // A touch of line 0 at cycle 14 by processor 1 commits the five
        // hits issued at cycles 10..=14 (at the tied cycle the lower
        // index goes first), then cuts before the next read of line 0.
        WALKED.with(|c| c.set(0));
        let touch = Touch::removing(14, 1, 0);
        let mut rest = proc.contexts[0].refs.clone();
        rest.nth(4);
        let want = walked_cut(&rest, 25, touch, line_size);
        slots.catch_up(0, touch, &mut proc, &mut cache, line_shift, &mut NoHooks);
        assert_eq!(proc.stats.hits, 5);
        assert_eq!(slots.events[0], 15);
        assert_eq!(slots.ahead[0], want);
        assert_eq!(want, 1, "cycle 15 reads line 2, cycle 16 line 0");
        assert_eq!(WALKED.with(std::cell::Cell::get), want + 1);
        let leaf = slots.tree.nodes[slots.tree.leaves];
        assert_eq!(leaf, (16, 0), "the cut re-keys the slot");
    }
}
