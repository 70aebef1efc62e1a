//! The one wait primitive (DESIGN.md §6, *Waits*): a monotonic `u64` that
//! threads park on until it reaches their target — a higher value implies
//! every lower one. The redo ring's producer park, lifted: a waiter stores
//! its target, re-reads the value, then parks; an advancer stores the value,
//! then wakes only if it reaches the lowest target — else one load. Each
//! reads what the other wrote first, so no wake is lost; only a waiter edits
//! its registration, so a stale advancer cannot strand a later park.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::thread::Thread;

use dude_nvm::thread;
use parking_lot::Mutex;

/// A monotonic value and its parked waiters, on a cache line of its own.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct Watermark {
    value: AtomicU64,
    /// The lowest registered target (0: none — no target is 0).
    next: AtomicU64,
    /// Each registered waiter's target and thread.
    parked: Mutex<Vec<(u64, Thread)>>,
}

impl Watermark {
    pub(crate) fn get(&self) -> u64 {
        self.value.load(SeqCst)
    }

    pub(crate) fn has_waiters(&self) -> bool {
        self.next.load(SeqCst) != 0
    }

    /// Raises the value to `v`, never lower, and wakes the waiters it
    /// satisfies; returns the value it replaced. One advancer at a time.
    pub(crate) fn advance(&self, v: u64) -> u64 {
        let was = self.value.swap(v, SeqCst);
        if (1..=v).contains(&self.next.load(SeqCst)) {
            self.wake(v);
        }
        was
    }

    /// Wakes the registered waiters `v` satisfies, editing no registration.
    fn wake(&self, v: u64) {
        for (_, waiter) in self.parked.lock().iter().filter(|w| w.0 <= v) {
            thread::unpark(waiter);
        }
    }

    /// Parks until the value reaches `target`; whether it found it below.
    pub(crate) fn wait(&self, target: u64) -> bool {
        if self.get() >= target {
            return false;
        }
        let me = std::thread::current();
        self.register(|parked| parked.push((target, me.clone())));
        while self.get() < target {
            thread::park();
        }
        self.register(|parked| parked.retain(|w| w.1.id() != me.id()));
        true
    }

    /// Edits the registrations, then stores the lowest target (0: none).
    fn register(&self, edit: impl FnOnce(&mut Vec<(u64, Thread)>)) {
        let mut parked = self.parked.lock();
        edit(&mut parked);
        let lowest = parked.iter().map(|w| w.0).min().unwrap_or(0);
        self.next.store(lowest, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// Spins until `done`, failing after ten seconds instead of hanging.
    fn within_10s(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// The registered targets, in any order.
    fn targets(wm: &Watermark) -> Vec<u64> {
        let mut t: Vec<u64> = wm.parked.lock().iter().map(|&(t, _)| t).collect();
        t.sort_unstable();
        t
    }

    /// A thread waiting on `wm` for `target`; returns whether it found the
    /// value below.
    fn waiter(wm: &Arc<Watermark>, target: u64) -> JoinHandle<bool> {
        let wm = Arc::clone(wm);
        std::thread::spawn(move || wm.wait(target))
    }

    /// `n` waiters registered, the lowest for `lowest`: an advance from
    /// here on sees them.
    fn registered(wm: &Watermark, n: usize, lowest: u64) -> bool {
        wm.parked.lock().len() == n && wm.next.load(SeqCst) == lowest
    }

    /// A waiter below its target parks, and the advance that reaches the
    /// target wakes it.
    #[test]
    fn a_waiter_parks_until_an_advance_reaches_its_target() {
        let wm = Arc::new(Watermark::default());
        assert!(!wm.wait(0), "a reached target returns at once");
        let w = waiter(&wm, 1);
        within_10s("the wait for 1 parks", || registered(&wm, 1, 1));
        assert!(!w.is_finished() && wm.has_waiters());
        assert_eq!(wm.advance(1), 0);
        assert!(w.join().unwrap(), "the waiter found 1 below");
        assert!(!wm.has_waiters() && targets(&wm).is_empty());
    }

    /// An advancer that stored a value and saw a waiter, then stalled
    /// before its wake, must not strand that waiter's next park: the stale
    /// wake may neither clear the new target nor leave it cleared, or every
    /// later advance would find no one to wake.
    #[test]
    fn a_stale_advancer_does_not_strand_a_reparked_waiter() {
        let wm = Arc::new(Watermark::default());
        let w = {
            let wm = Arc::clone(&wm);
            std::thread::spawn(move || {
                wm.wait(1);
                wm.wait(2);
            })
        };
        within_10s("the wait for 1 parks", || registered(&wm, 1, 1));
        // The advancer stores 1, reads target 1 and stalls before its wake.
        wm.value.swap(1, SeqCst);
        assert_eq!(wm.next.load(SeqCst), 1);
        // The waiter sees the value on its own (a spurious wake-up stands in
        // for the race) and parks again, for 2.
        w.thread().unpark();
        within_10s("the wait for 2 parks", || registered(&wm, 1, 2));
        // Only now does the stale advancer wake, for the 1 it stored.
        wm.wake(1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!w.is_finished(), "a stale wake released a later target");
        assert!(
            registered(&wm, 1, 2),
            "a stale wake moved the lowest target"
        );
        wm.advance(2);
        within_10s("the advance to 2 wakes the waiter", || w.is_finished());
        w.join().unwrap();
    }

    /// Waiters on different targets: each returns once the value reaches
    /// its own target, and not before — also when an advance jumps past it.
    #[test]
    fn waiters_on_different_targets_each_return_at_their_own() {
        let wm = Arc::new(Watermark::default());
        let ws: Vec<_> = [3, 1, 2, 2, 5]
            .iter()
            .map(|&t| (t, waiter(&wm, t)))
            .collect();
        within_10s("five waiters park", || registered(&wm, 5, 1));
        for v in [1, 2, 4, 6] {
            wm.advance(v);
            within_10s("the reached waiters return", || {
                ws.iter().all(|(t, w)| *t > v || w.is_finished())
            });
            std::thread::sleep(Duration::from_millis(20));
            for (t, w) in &ws {
                assert_eq!(w.is_finished(), *t <= v, "target {t} at value {v}");
            }
            // The lowest target left is what the next advance must reach.
            let left: Vec<u64> = ws.iter().map(|w| w.0).filter(|&t| t > v).collect();
            let lowest = left.iter().copied().min().unwrap_or(0);
            assert!(registered(&wm, left.len(), lowest), "after {v}");
        }
        for (_, w) in ws {
            assert!(w.join().unwrap());
        }
        assert!(!wm.has_waiters() && targets(&wm).is_empty());
    }

    /// A waiter parked before an advance and one arriving after it both
    /// return; the late one at once.
    #[test]
    fn waiters_before_and_after_an_advance_both_return() {
        let wm = Arc::new(Watermark::default());
        wm.advance(4);
        let early = waiter(&wm, 5);
        within_10s("the early waiter parks", || registered(&wm, 1, 5));
        assert_eq!(wm.advance(5), 4);
        let late = waiter(&wm, 5);
        assert!(!late.join().unwrap(), "the late waiter finds 5 reached");
        assert!(early.join().unwrap());
        assert_eq!(wm.get(), 5);
    }
}
