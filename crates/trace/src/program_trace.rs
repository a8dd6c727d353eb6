//! All per-thread traces of one application, plus metadata.

use crate::record::ThreadId;
use crate::thread_trace::ThreadTrace;

/// The complete trace of one explicitly parallel application: one
/// [`ThreadTrace`] per thread plus a human-readable name.
///
/// Thread ids are dense: thread `i`'s trace is at index `i`.
///
/// # Example
///
/// ```
/// use placesim_trace::{Address, MemRef, ProgramTrace, ThreadId, ThreadTrace};
///
/// let t0: ThreadTrace = [MemRef::read(Address::new(0x10))].into_iter().collect();
/// let t1: ThreadTrace = [MemRef::write(Address::new(0x10))].into_iter().collect();
/// let prog = ProgramTrace::new("demo", vec![t0, t1]);
/// assert_eq!(prog.thread_count(), 2);
/// assert_eq!(prog.thread(ThreadId::new(1)).write_len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramTrace {
    name: String,
    threads: Vec<ThreadTrace>,
}

impl ProgramTrace {
    /// Creates a program trace from per-thread traces.
    pub fn new(name: impl Into<String>, threads: Vec<ThreadTrace>) -> Self {
        ProgramTrace {
            name: name.into(),
            threads,
        }
    }

    /// The application name (e.g. `"locusroute"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads, `t` in the paper's notation.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// All valid thread ids, `0..t`.
    pub fn thread_ids(&self) -> impl ExactSizeIterator<Item = ThreadId> + '_ {
        (0..self.threads.len()).map(ThreadId::from_index)
    }

    /// The trace of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn thread(&self, id: ThreadId) -> &ThreadTrace {
        &self.threads[id.index()]
    }

    /// The trace of one thread, if `id` is in range.
    pub fn get_thread(&self, id: ThreadId) -> Option<&ThreadTrace> {
        self.threads.get(id.index())
    }

    /// Iterates over `(id, trace)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ThreadId, &ThreadTrace)> + '_ {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| (ThreadId::from_index(i), t))
    }

    /// Borrows all thread traces in id order.
    pub fn threads(&self) -> &[ThreadTrace] {
        &self.threads
    }

    /// Total references across all threads (instruction + data).
    pub fn total_refs(&self) -> u64 {
        self.threads.iter().map(|t| t.len() as u64).sum()
    }

    /// Total instruction references across all threads.
    pub fn total_instrs(&self) -> u64 {
        self.threads.iter().map(ThreadTrace::instr_len).sum()
    }

    /// Total data references across all threads.
    pub fn total_data_refs(&self) -> u64 {
        self.threads.iter().map(ThreadTrace::data_len).sum()
    }

    /// Consumes the program trace and returns its thread traces.
    pub fn into_threads(self) -> Vec<ThreadTrace> {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Address, MemRef};

    fn prog() -> ProgramTrace {
        let t0: ThreadTrace = [
            MemRef::instr(Address::new(0)),
            MemRef::read(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        let t1: ThreadTrace = [
            MemRef::instr(Address::new(4)),
            MemRef::instr(Address::new(8)),
            MemRef::write(Address::new(0x100)),
        ]
        .into_iter()
        .collect();
        ProgramTrace::new("demo", vec![t0, t1])
    }

    #[test]
    fn aggregate_counts() {
        let p = prog();
        assert_eq!(p.thread_count(), 2);
        assert_eq!(p.total_refs(), 5);
        assert_eq!(p.total_instrs(), 3);
        assert_eq!(p.total_data_refs(), 2);
        assert_eq!(p.name(), "demo");
    }

    #[test]
    fn thread_lookup() {
        let p = prog();
        assert_eq!(p.thread(ThreadId::new(0)).len(), 2);
        assert!(p.get_thread(ThreadId::new(2)).is_none());
        let ids: Vec<ThreadId> = p.thread_ids().collect();
        assert_eq!(ids, vec![ThreadId::new(0), ThreadId::new(1)]);
    }

    #[test]
    fn iter_pairs() {
        let p = prog();
        let lens: Vec<(usize, usize)> = p.iter().map(|(id, t)| (id.index(), t.len())).collect();
        assert_eq!(lens, vec![(0, 2), (1, 3)]);
    }
}
