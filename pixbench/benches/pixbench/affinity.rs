//! Pinning the calling thread to one CPU, through the C library's
//! `sched_getaffinity`/`sched_setaffinity` (Linux; elsewhere a no-op).
//!
//! On a shared host each CPU has slow spells of its own, lasting seconds
//! to minutes, when a neighbour loads the core under it. A thread that
//! stays on one CPU for a whole run then reads slow throughout. The
//! compute phase therefore moves its thread across the allowed CPUs
//! round by round, so its fastest samples come from whichever CPU was
//! not in a slow spell.

/// Words of a CPU mask: room for 1024 CPUs.
const WORDS: usize = 16;

/// A set of CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The set's CPUs other than `cpu`, or the set itself if that
    /// leaves none.
    pub fn without(&self, cpu: usize) -> Self {
        let mut words = self.0;
        if let Some(w) = words.get_mut(cpu / 64) {
            *w &= !(1 << (cpu % 64));
        }
        if words.iter().all(|&w| w == 0) {
            *self
        } else {
            Self(words)
        }
    }

    /// The set holding only `cpu`.
    pub fn only(cpu: usize) -> Self {
        let mut words = [0u64; WORDS];
        if let Some(w) = words.get_mut(cpu / 64) {
            *w = 1 << (cpu % 64);
        }
        Self(words)
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{CpuSet, WORDS};

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut words = [0u64; WORDS];
        // SAFETY: `words` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&words), words.as_mut_ptr()) };
        (rc == 0).then_some(CpuSet(words))
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: the mask is a live buffer of exactly the size passed,
        // only read by the call; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, size_of_val(&set.0), set.0.as_ptr()) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The calling thread's CPUs at creation, handed out in turn.
#[derive(Debug, Clone)]
pub struct Rotation {
    home: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The calling thread's current CPUs.
    pub fn new() -> Self {
        let home = current();
        Self {
            cpus: home.map(|h| h.cpus()).unwrap_or_default(),
            home,
        }
    }

    fn cpu(&self, turn: usize) -> Option<usize> {
        self.cpus.get(turn % self.cpus.len().max(1)).copied()
    }

    /// Pins the calling thread to the `turn`-th CPU, round robin.
    pub fn pin_turn(&self, turn: usize) {
        if let Some(cpu) = self.cpu(turn) {
            pin(&CpuSet::only(cpu));
        }
    }

    /// Gives the calling thread back all its original CPUs.
    pub fn unpin(&self) {
        if let Some(home) = &self.home {
            pin(home);
        }
    }

    /// The `turn`-th CPU alone, and the other original CPUs (all of them
    /// if there is no other).
    pub fn split(&self, turn: usize) -> Option<(CpuSet, CpuSet)> {
        let cpu = self.cpu(turn)?;
        let home = self.home?;
        Some((CpuSet::only(cpu), home.without(cpu)))
    }
}

/// The calling thread's CPU set, if the platform reports one.
pub fn current() -> Option<CpuSet> {
    sys::get()
}

/// Restricts the calling thread to `set`; false if that failed (the
/// thread then keeps its previous set). Threads it spawns inherit the set.
pub fn pin(set: &CpuSet) -> bool {
    sys::set(set)
}
