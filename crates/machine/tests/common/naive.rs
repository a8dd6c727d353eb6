//! A naive model of the simulated machine: the differential oracle for
//! the engine.
//!
//! It is written from the machine's documented execution model (the
//! engine's module docs and DESIGN.md) and from the coherence protocols
//! as the paper and DESIGN.md state them, not from the engine's code. It
//! shares no cache, directory, scheduling or protocol-table code with
//! the engine: from `placesim_machine` it takes only the configuration
//! and the statistics types it fills in.
//!
//! * One reference per step, in `(cycle, processor)` order. The clock
//!   jumps to the next cycle at which some processor issues, and the
//!   processors issuing at that cycle go in index order. Nothing looks
//!   ahead and nothing is batched.
//! * Each cache is a set-associative LRU model: a most-recently-used
//!   first `Vec` of ways per set, each way with an explicit line state.
//!   A map from line to departure reason classifies misses.
//! * There is no directory. A line's sharers are the caches that hold
//!   it, and its exclusive owner is the one holding it Exclusive or
//!   Modified.

use placesim_analysis::SymMatrix;
use placesim_machine::{ArchConfig, MissKind, ProcStats, Protocol, SimStats};
use placesim_placement::PlacementMap;
use placesim_trace::{MemRef, ProgramTrace, RefKind};
use std::collections::HashMap;

/// The state of a resident line. Write-invalidate uses Shared and
/// Modified, MESI adds Exclusive, Dragon adds SharedDirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A clean copy that other caches may hold too.
    Shared,
    /// The only copy, dirty.
    Modified,
    /// The only copy, clean: a write takes it to Modified silently.
    Exclusive,
    /// Dragon: a dirty copy that other caches hold too.
    SharedDirty,
}

/// Why a line that was resident in a cache is gone from it.
#[derive(Debug, Clone, Copy)]
enum Departure {
    /// A fill by this thread evicted it.
    Evicted { thread: usize },
    /// A write by this processor invalidated it.
    Invalidated { by: usize },
}

/// One processor's cache.
struct Cache {
    /// `sets[s]` holds the `(line, state)` of each resident way of set
    /// `s`, most recently used first.
    sets: Vec<Vec<(u64, State)>>,
    ways: usize,
    /// The departure reason of every line that was resident and is not.
    departed: HashMap<u64, Departure>,
}

impl Cache {
    fn new(sets: u64, ways: usize) -> Self {
        Cache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            departed: HashMap::new(),
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, State)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    /// The state of `line`, if it is resident.
    fn state(&self, line: u64) -> Option<State> {
        let n = self.sets.len() as u64;
        self.sets[(line % n) as usize]
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, s)| s)
    }

    fn set_state(&mut self, line: u64, state: State) {
        let way = self.set(line).iter_mut().find(|(l, _)| *l == line);
        way.expect("the line is resident").1 = state;
    }

    /// A reference by this processor: `line` becomes most recently used.
    fn touch(&mut self, line: u64) {
        let set = self.set(line);
        let at = set.iter().position(|&(l, _)| l == line).expect("resident");
        let way = set.remove(at);
        set.insert(0, way);
    }

    /// Classifies a miss on `line` by `thread`, with the invalidating
    /// processor of an invalidation miss.
    fn classify(&self, line: u64, thread: usize) -> (MissKind, Option<usize>) {
        match self.departed.get(&line) {
            None => (MissKind::Compulsory, None),
            Some(Departure::Invalidated { by }) => (MissKind::Invalidation, Some(*by)),
            Some(Departure::Evicted { thread: t }) if *t == thread => {
                (MissKind::IntraThreadConflict, None)
            }
            Some(Departure::Evicted { .. }) => (MissKind::InterThreadConflict, None),
        }
    }

    /// Fills `line` as the most recently used way of its set, evicting
    /// the least recently used way of a full set.
    fn fill(&mut self, line: u64, state: State, thread: usize) {
        let ways = self.ways;
        let set = self.set(line);
        let evicted = (set.len() == ways).then(|| set.pop().expect("a full set").0);
        set.insert(0, (line, state));
        if let Some(old) = evicted {
            self.departed.insert(old, Departure::Evicted { thread });
        }
        self.departed.remove(&line);
    }

    /// Another processor's write removes `line`.
    fn invalidate(&mut self, line: u64, by: usize) {
        let set = self.set(line);
        let at = set.iter().position(|&(l, _)| l == line).expect("resident");
        set.remove(at);
        self.departed.insert(line, Departure::Invalidated { by });
    }
}

/// One hardware context.
struct Context {
    thread: usize,
    refs: Vec<MemRef>,
    /// Index of the next reference to issue.
    next: usize,
    ready_at: u64,
    /// Waiting at a barrier for its release.
    waiting: bool,
}

impl Context {
    fn done(&self) -> bool {
        self.next == self.refs.len()
    }
}

/// One processor.
struct Proc {
    contexts: Vec<Context>,
    /// The context that issues next.
    current: usize,
    /// The cycle of the next issue, if one is pending.
    issue: Option<u64>,
    /// Every context waiting at a barrier since this cycle.
    parked: Option<u64>,
    stats: ProcStats,
}

impl Proc {
    /// Round-robin switch-on-miss: the first context after the current
    /// one, in turn and with the current one last, that is neither done
    /// nor waiting and is ready by `deadline` is dispatched at
    /// `deadline`. If none is ready, the one that becomes ready first
    /// (earliest in turn on a tie) is dispatched when it is ready.
    /// `None` when every context is done or waiting.
    fn dispatch(&self, deadline: u64) -> Option<(usize, u64)> {
        let n = self.contexts.len();
        let turn = (1..=n).map(|k| (self.current + k) % n);
        let live = |&i: &usize| !self.contexts[i].done() && !self.contexts[i].waiting;
        if let Some(i) = turn
            .clone()
            .filter(live)
            .find(|&i| self.contexts[i].ready_at <= deadline)
        {
            return Some((i, deadline));
        }
        turn.filter(live)
            .min_by_key(|&i| self.contexts[i].ready_at)
            .map(|i| (i, self.contexts[i].ready_at))
    }

    /// Switches to the context `dispatch` picks by `deadline`, counting
    /// the wait until it is ready as idle time.
    fn switch(&mut self, deadline: u64) -> bool {
        match self.dispatch(deadline) {
            Some((i, at)) => {
                self.stats.idle += at - deadline;
                self.current = i;
                self.issue = Some(at);
                true
            }
            None => false,
        }
    }
}

/// The naive machine over one program and placement.
struct Machine<'c> {
    config: &'c ArchConfig,
    procs: Vec<Proc>,
    caches: Vec<Cache>,
    traffic: SymMatrix<u64>,
    /// The memory channel is busy until this cycle.
    channel_free_at: u64,
    /// Arrivals at the current global barrier.
    arrivals: usize,
    threads: usize,
}

/// Simulates `prog` placed per `map` on the machine `config` describes,
/// and returns the statistics with the processor-to-processor coherence
/// traffic matrix.
///
/// # Panics
///
/// If the placement does not cover the program's threads.
pub fn simulate(
    prog: &ProgramTrace,
    map: &PlacementMap,
    config: &ArchConfig,
) -> (SimStats, SymMatrix<u64>) {
    assert_eq!(
        map.thread_count(),
        prog.thread_count(),
        "placement mismatch"
    );
    let p = map.processor_count();
    let procs = map
        .iter()
        .map(|(_, cluster)| {
            let contexts: Vec<Context> = cluster
                .iter()
                .map(|&tid| Context {
                    thread: tid.index(),
                    refs: prog.thread(tid).iter().collect(),
                    next: 0,
                    ready_at: 0,
                    waiting: false,
                })
                .collect();
            // The round-robin turn starts after context 0.
            let mut proc = Proc {
                contexts,
                current: 0,
                issue: None,
                parked: None,
                stats: ProcStats::default(),
            };
            proc.switch(0);
            proc
        })
        .collect();
    let ways = config.associativity() as usize;
    let sets = config.cache_size() / config.line_size() / ways as u64;
    let mut machine = Machine {
        config,
        procs,
        caches: (0..p).map(|_| Cache::new(sets, ways)).collect(),
        traffic: SymMatrix::new(p, 0),
        channel_free_at: 0,
        arrivals: 0,
        threads: prog.thread_count(),
    };
    while let Some(now) = machine.procs.iter().filter_map(|pr| pr.issue).min() {
        for pi in 0..p {
            if machine.procs[pi].issue == Some(now) {
                machine.procs[pi].issue = None;
                machine.step(pi, now);
            }
        }
    }
    let stats = SimStats::new(machine.procs.into_iter().map(|pr| pr.stats).collect());
    (stats, machine.traffic)
}

impl Machine<'_> {
    fn protocol(&self) -> Protocol {
        self.config.protocol()
    }

    /// Counts one coherence message between processors `a` and `b`.
    fn message(&mut self, a: usize, b: usize) {
        if a != b {
            self.traffic.add(a, b, 1);
        }
    }

    /// The processors other than `me` whose caches hold `line`, in
    /// ascending order.
    fn sharers(&self, line: u64, me: usize) -> Vec<usize> {
        (0..self.caches.len())
            .filter(|&q| q != me && self.caches[q].state(line).is_some())
            .collect()
    }

    /// Processor `me` writes `line` under write-invalidate or MESI: every
    /// other copy is invalidated. Returns how many there were.
    fn invalidate_others(&mut self, line: u64, me: usize) -> u64 {
        let victims = self.sharers(line, me);
        for &v in &victims {
            self.caches[v].invalidate(line, me);
            self.procs[v].stats.invalidations_received += 1;
            self.message(v, me);
        }
        self.procs[me].stats.invalidations_sent += victims.len() as u64;
        victims.len() as u64
    }

    /// Processor `me` writes `line` under Dragon: every other copy gets
    /// the new data and stays, as a clean Shared copy. Returns how many
    /// there were.
    fn update_others(&mut self, line: u64, me: usize) -> u64 {
        let sharers = self.sharers(line, me);
        for &v in &sharers {
            self.caches[v].set_state(line, State::Shared);
            self.procs[v].stats.updates_received += 1;
            self.message(v, me);
        }
        self.procs[me].stats.updates_sent += sharers.len() as u64;
        sharers.len() as u64
    }

    /// The fill of a read miss by `me`: Exclusive when no other cache
    /// holds the line (MESI and Dragon), Shared otherwise. An exclusive
    /// owner elsewhere gives up exclusivity: a Modified owner under
    /// Dragon keeps the dirty data as SharedDirty, any other owner drops
    /// to Shared.
    fn read_fill(&mut self, line: u64, me: usize) -> State {
        let sharers = self.sharers(line, me);
        if sharers.is_empty() && self.protocol() != Protocol::Wi {
            return State::Exclusive;
        }
        for v in sharers {
            let demoted = match (self.protocol(), self.caches[v].state(line)) {
                (Protocol::Dragon, Some(State::Modified)) => State::SharedDirty,
                (_, Some(State::Modified | State::Exclusive)) => State::Shared,
                _ => continue,
            };
            self.caches[v].set_state(line, demoted);
        }
        State::Shared
    }

    /// The fill of a write miss by `me`.
    fn write_fill(&mut self, line: u64, me: usize) -> State {
        match self.protocol() {
            Protocol::Wi | Protocol::Mesi => {
                self.invalidate_others(line, me);
                State::Modified
            }
            Protocol::Dragon if self.update_others(line, me) > 0 => State::SharedDirty,
            Protocol::Dragon => State::Modified,
        }
    }

    /// Processor `pi` issues its current context's next reference at
    /// cycle `t`.
    fn step(&mut self, pi: usize, t: u64) {
        let ci = self.procs[pi].current;
        let ctx = &mut self.procs[pi].contexts[ci];
        assert!(ctx.ready_at <= t, "dispatched before ready");
        let r = ctx.refs[ctx.next];
        ctx.next += 1;
        let thread = ctx.thread;
        let exhausted = ctx.done();
        self.procs[pi].stats.busy += 1;
        self.procs[pi].stats.finish_time = t + 1;
        if r.kind == RefKind::Barrier {
            self.barrier(pi, t + 1, exhausted);
            return;
        }
        let line = r.addr.raw() / self.config.line_size();
        let is_write = r.kind.is_write();
        // Whether the context waits for memory: a miss, or an upgrade or
        // update that stalls the writer.
        let waits = match self.caches[pi].state(line) {
            Some(state) => {
                self.caches[pi].touch(line);
                self.procs[pi].stats.hits += 1;
                let remote = match (is_write, self.protocol(), state) {
                    (false, _, _) | (true, _, State::Modified) => 0,
                    (true, Protocol::Mesi | Protocol::Dragon, State::Exclusive) => {
                        self.caches[pi].set_state(line, State::Modified);
                        0
                    }
                    (true, Protocol::Wi | Protocol::Mesi, State::Shared) => {
                        self.procs[pi].stats.upgrades += 1;
                        self.caches[pi].set_state(line, State::Modified);
                        self.invalidate_others(line, pi)
                    }
                    (true, Protocol::Dragon, State::Shared | State::SharedDirty) => {
                        let n = self.update_others(line, pi);
                        let next = if n > 0 {
                            State::SharedDirty
                        } else {
                            State::Modified
                        };
                        self.caches[pi].set_state(line, next);
                        n
                    }
                    (true, protocol, state) => panic!("{state:?} under {protocol}"),
                };
                self.config.upgrade_stalls() && remote > 0
            }
            None => {
                let (kind, source) = self.caches[pi].classify(line, thread);
                self.procs[pi].stats.misses.record(kind);
                if let Some(src) = source {
                    self.message(pi, src);
                }
                let state = if is_write {
                    self.write_fill(line, pi)
                } else {
                    self.read_fill(line, pi)
                };
                self.caches[pi].fill(line, state, thread);
                true
            }
        };
        let proc = &mut self.procs[pi];
        let issue_end = t + 1;
        if waits {
            let start = match self.config.memory_occupancy() {
                0 => t,
                occupancy => {
                    let start = self.channel_free_at.max(t);
                    self.channel_free_at = start + occupancy;
                    start
                }
            };
            proc.contexts[ci].ready_at = start + self.config.memory_latency();
            // Switching away after a miss drains the pipeline; switching
            // away from a finished thread is free.
            let drain = self.config.context_switch();
            if proc.switch(issue_end + drain) {
                proc.stats.switching += drain;
            }
        } else if exhausted {
            proc.switch(issue_end);
        } else {
            proc.issue = Some(issue_end);
        }
    }

    /// Processor `pi`'s current context arrives at a global barrier and
    /// completes the arrival at `end`. The last arrival releases every
    /// waiting context, which is ready at `end`. A processor whose every
    /// context waits is parked, idle, until the release.
    fn barrier(&mut self, pi: usize, end: u64, exhausted: bool) {
        self.procs[pi].stats.barrier_ops += 1;
        self.arrivals += 1;
        if self.arrivals == self.threads {
            self.arrivals = 0;
            for proc in &mut self.procs {
                let mut woke = false;
                for ctx in proc.contexts.iter_mut().filter(|c| c.waiting) {
                    ctx.waiting = false;
                    ctx.ready_at = end;
                    woke = true;
                }
                if let (true, Some(since)) = (woke, proc.parked.take()) {
                    // The wait since parking is idle time.
                    proc.stats.idle += end - since;
                    proc.switch(end);
                }
            }
        } else if !exhausted {
            let proc = &mut self.procs[pi];
            let ci = proc.current;
            proc.contexts[ci].waiting = true;
        }
        // A barrier is synchronisation, not a miss: no drain.
        let proc = &mut self.procs[pi];
        if !proc.switch(end) && proc.contexts.iter().any(|c| c.waiting) {
            proc.parked = Some(end);
        }
    }
}
