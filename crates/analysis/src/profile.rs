//! Per-address, per-thread reference counting: the base pass all static
//! sharing metrics derive from.

use placesim_trace::hash::FastMap;
use placesim_trace::{ProgramTrace, ThreadId};

type AddrMap<V> = FastMap<u64, V>;

/// Reference counts of one thread at one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerThreadCount {
    /// The thread.
    pub thread: ThreadId,
    /// Loads issued by `thread` to this address.
    pub reads: u32,
    /// Stores issued by `thread` to this address.
    pub writes: u32,
}

impl PerThreadCount {
    /// Total references (loads + stores).
    pub fn total(&self) -> u64 {
        self.reads as u64 + self.writes as u64
    }
}

/// All per-thread counts at one address, ordered by thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerAddress {
    counts: Vec<PerThreadCount>,
}

impl PerAddress {
    /// Number of distinct threads that touched the address.
    pub fn sharer_count(&self) -> usize {
        self.counts.len()
    }

    /// `true` if at least two threads touched the address.
    pub fn is_shared(&self) -> bool {
        self.counts.len() >= 2
    }

    /// `true` if the address is shared and at least one access is a write
    /// (i.e. the address can generate invalidations).
    pub fn is_write_shared(&self) -> bool {
        self.is_shared() && self.counts.iter().any(|c| c.writes > 0)
    }

    /// Total references by all threads.
    pub fn total_refs(&self) -> u64 {
        self.counts.iter().map(PerThreadCount::total).sum()
    }

    /// Per-thread counts, ascending by thread id.
    pub fn counts(&self) -> &[PerThreadCount] {
        &self.counts
    }

    fn bump(&mut self, thread: ThreadId, is_write: bool) {
        // Fast path: `build` scans threads in ascending id order, so a
        // repeated reference hits the last slot and a new sharer always
        // appends — no binary search, no mid-vector `insert`, and no
        // quadratic behaviour on heavily-shared addresses.
        let slot = match self.counts.last_mut() {
            Some(last) if last.thread == thread => self.counts.last_mut().expect("non-empty"),
            Some(last) if last.thread < thread => {
                self.counts.push(PerThreadCount {
                    thread,
                    reads: 0,
                    writes: 0,
                });
                self.counts.last_mut().expect("just pushed")
            }
            None => {
                self.counts.push(PerThreadCount {
                    thread,
                    reads: 0,
                    writes: 0,
                });
                self.counts.last_mut().expect("just pushed")
            }
            // Out-of-order callers (tests, future incremental updates)
            // still get the ordered-insert slow path.
            Some(_) => match self.counts.binary_search_by_key(&thread, |c| c.thread) {
                Ok(i) => &mut self.counts[i],
                Err(i) => {
                    self.counts.insert(
                        i,
                        PerThreadCount {
                            thread,
                            reads: 0,
                            writes: 0,
                        },
                    );
                    &mut self.counts[i]
                }
            },
        };
        if is_write {
            slot.writes += 1;
        } else {
            slot.reads += 1;
        }
    }
}

/// Per-address, per-thread reference counts over a whole program.
///
/// One linear pass over every thread's data references;
/// [`crate::SharingAnalysis::measure_reference`] derives every sharing
/// metric from it. Instruction references are excluded — the paper's
/// sharing metrics are over data.
///
/// # Example
///
/// ```
/// use placesim_trace::{Address, MemRef, ProgramTrace, ThreadTrace};
/// use placesim_analysis::AddressProfile;
///
/// let t0: ThreadTrace = [MemRef::read(Address::new(0x10))].into_iter().collect();
/// let t1: ThreadTrace = [MemRef::write(Address::new(0x10))].into_iter().collect();
/// let prog = ProgramTrace::new("p", vec![t0, t1]);
///
/// let profile = AddressProfile::build(&prog);
/// assert_eq!(profile.address_count(), 1);
/// assert!(profile.get(0x10).unwrap().is_write_shared());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AddressProfile {
    map: AddrMap<PerAddress>,
    threads: usize,
}

impl AddressProfile {
    /// Builds the profile by scanning every thread's data references.
    ///
    /// One hash-map probe per reference. This is the reference the
    /// sharded scan behind [`crate::SharingAnalysis::measure`] is tested
    /// against: its proptests check that each of the scan's sources
    /// visits exactly this profile's addresses and per-thread counts.
    pub fn build(prog: &ProgramTrace) -> Self {
        let mut map: AddrMap<PerAddress> = AddrMap::default();
        for (tid, trace) in prog.iter() {
            for r in trace.iter() {
                if r.kind.is_data() {
                    map.entry(r.addr.raw())
                        .or_default()
                        .bump(tid, r.kind.is_write());
                }
            }
        }
        AddressProfile {
            map,
            threads: prog.thread_count(),
        }
    }

    /// Number of threads in the profiled program.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Number of distinct data addresses referenced.
    pub fn address_count(&self) -> usize {
        self.map.len()
    }

    /// Number of distinct shared (≥ 2 sharers) addresses.
    pub fn shared_address_count(&self) -> usize {
        self.map.values().filter(|a| a.is_shared()).count()
    }

    /// Looks up the counts at one raw address.
    pub fn get(&self, addr: u64) -> Option<&PerAddress> {
        self.map.get(&addr)
    }

    /// Iterates over `(address, counts)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PerAddress)> + '_ {
        self.map.iter().map(|(&a, p)| (a, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_trace::{Address, MemRef, ThreadTrace};

    fn prog() -> ProgramTrace {
        // T0: reads X twice, writes P0 once. T1: writes X once, reads Y.
        // T2: reads Y. X is write-shared, Y is read-shared, P0 private.
        let t0: ThreadTrace = [
            MemRef::read(Address::new(0x100)),
            MemRef::read(Address::new(0x100)),
            MemRef::write(Address::new(0x900)),
            MemRef::instr(Address::new(0x4)), // ignored by the profile
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::write(Address::new(0x100)),
            MemRef::read(Address::new(0x200)),
        ]
        .into_iter()
        .collect();
        let t2: ThreadTrace = [MemRef::read(Address::new(0x200))].into_iter().collect();
        ProgramTrace::new("p", vec![t0, t1, t2])
    }

    #[test]
    fn counts_per_thread() {
        let p = AddressProfile::build(&prog());
        let x = p.get(0x100).unwrap();
        assert_eq!(x.sharer_count(), 2);
        assert!(x.is_shared());
        assert!(x.is_write_shared());
        assert_eq!(x.total_refs(), 3);
        assert_eq!(x.counts()[0].reads, 2);
        assert_eq!(x.counts()[1].writes, 1);

        let y = p.get(0x200).unwrap();
        assert!(y.is_shared());
        assert!(!y.is_write_shared());

        let p0 = p.get(0x900).unwrap();
        assert!(!p0.is_shared());
        assert!(!p0.is_write_shared());
    }

    #[test]
    fn aggregate_counts() {
        let p = AddressProfile::build(&prog());
        assert_eq!(p.thread_count(), 3);
        assert_eq!(p.address_count(), 3);
        assert_eq!(p.shared_address_count(), 2);
        assert!(p.get(0x4).is_none(), "instruction addresses are excluded");
    }

    #[test]
    fn per_address_orders_threads() {
        // Insert out of thread order and check the invariant.
        let mut pa = PerAddress::default();
        pa.bump(ThreadId::new(5), false);
        pa.bump(ThreadId::new(1), true);
        pa.bump(ThreadId::new(5), true);
        let ids: Vec<u16> = pa.counts().iter().map(|c| c.thread.raw()).collect();
        assert_eq!(ids, vec![1, 5]);
        assert_eq!(pa.counts()[1].reads, 1);
        assert_eq!(pa.counts()[1].writes, 1);
    }
}
