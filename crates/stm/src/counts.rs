//! Per-thread event counts that a snapshot sums: the commit counts of the
//! STM and of the emulated HTM.

use std::array;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One thread's `N` counts, on a cache line of its own: only its thread
/// writes them, with a load and a store (no locked read-modify-write on a
/// line every thread shares), and [`PerThreadCounts::sum`] sums them.
#[repr(align(64))]
#[derive(Debug)]
pub struct ThreadCounts<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for ThreadCounts<N> {
    fn default() -> Self {
        ThreadCounts(array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> ThreadCounts<N> {
    /// Counts one event of kind `i`; called by the owning thread only.
    pub fn count(&self, i: usize) {
        let cell = &self.0[i];
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// The counts of the registered threads, and `retired`, the sum of those
/// that left.
#[derive(Debug, Default)]
pub struct PerThreadCounts<const N: usize> {
    threads: Mutex<Vec<Arc<ThreadCounts<N>>>>,
    retired: ThreadCounts<N>,
}

impl<const N: usize> PerThreadCounts<N> {
    /// A new thread's counts, summed from now on.
    pub fn join(&self) -> Arc<ThreadCounts<N>> {
        let counts = Arc::<ThreadCounts<N>>::default();
        self.threads().push(Arc::clone(&counts));
        counts
    }

    /// Moves a departing thread's counts into `retired`, under the same
    /// lock [`PerThreadCounts::sum`] sums under, so no sum counts them
    /// twice or misses them.
    pub fn leave(&self, counts: &Arc<ThreadCounts<N>>) {
        let mut threads = self.threads();
        for (from, to) in counts.0.iter().zip(&self.retired.0) {
            to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        threads.retain(|c| !Arc::ptr_eq(c, counts));
    }

    /// Each kind's total over the live threads and the retired ones.
    pub fn sum(&self) -> [u64; N] {
        let threads = self.threads();
        array::from_fn(|i| {
            std::iter::once(&self.retired)
                .chain(threads.iter().map(|c| &**c))
                .map(|c| c.0[i].load(Ordering::Relaxed))
                .sum()
        })
    }

    fn threads(&self) -> std::sync::MutexGuard<'_, Vec<Arc<ThreadCounts<N>>>> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
