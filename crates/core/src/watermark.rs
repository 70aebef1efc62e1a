//! The one wait primitive (DESIGN.md §6, *Waits*): a monotonic `u64` that
//! threads park on until it reaches their target — a higher value implies
//! every lower one. The redo ring's producer park, lifted: a waiter stores
//! its target, re-reads the value, then parks; an advancer stores the value,
//! then wakes only if it reaches the lowest target — else one load. Each
//! reads what the other wrote first, so no wake is lost. A waker drops the
//! registrations it wakes, under the lock, so the advances after it cost one
//! load again — one wake per park, however many advances reach the target
//! before the waiter runs — and it drops only targets it reached, each with
//! a wake, so a stale advancer cannot strand a later park. A thread that
//! waits on several values at once registers on each ([`park_on`]).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::thread::Thread;
use std::time::Duration;

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

    /// Raises the value to `v`, never lower, and wakes the waiters it
    /// satisfies; returns the value it replaced. One advancer at a time.
    pub(crate) fn advance(&self, v: u64) -> u64 {
        let was = self.value.swap(v, SeqCst);
        self.notify(v);
        was
    }

    /// Raises the value to at least `v` — any number of raisers at once —
    /// and wakes the waiters it satisfies. One load when the value is
    /// already there.
    pub(crate) fn raise(&self, v: u64) {
        if self.get() < v && self.value.fetch_max(v, SeqCst) < v {
            self.notify(v);
        }
    }

    /// Wakes the registered waiters whose target `v` reaches: one load
    /// while no one waits for as little as `v`.
    fn notify(&self, v: u64) {
        if (1..=v).contains(&self.next.load(SeqCst)) {
            self.wake(v);
        }
    }

    /// Wakes the registered waiters `v` satisfies and drops their
    /// registrations.
    fn wake(&self, v: u64) {
        self.register(|parked| {
            parked.retain(|(target, waiter)| {
                let reached = *target <= v;
                if reached {
                    thread::unpark(waiter);
                }
                !reached
            })
        });
    }

    /// Parks until the value reaches `target`; whether it found it below.
    pub(crate) fn wait(&self, target: u64) -> bool {
        if self.get() >= target {
            return false;
        }
        while self.get() < target {
            park_on(&[(self, target)], None);
        }
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

/// Parks once on every `(watermark, target)` in `on` — until an advance or
/// raise reaches one of the targets, `timeout` passes, or spuriously —
/// unless one is reached already, read after registering, so nothing that
/// happens between the caller's last look and the park is lost. The caller
/// re-checks its own condition in a loop.
pub(crate) fn park_on(on: &[(&Watermark, u64)], timeout: Option<Duration>) {
    let me = std::thread::current();
    for &(wm, target) in on {
        wm.register(|parked| parked.push((target, me.clone())));
    }
    if on.iter().all(|&(wm, target)| wm.get() < target) {
        match timeout {
            Some(timeout) => thread::park_timeout(timeout),
            None => thread::park(),
        }
    }
    for &(wm, _) in on {
        wm.register(|parked| parked.retain(|w| w.1.id() != me.id()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    impl Watermark {
        pub(crate) fn has_waiters(&self) -> bool {
            self.next.load(SeqCst) != 0
        }
    }

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

    /// Raisers racing each other leave the highest value — a lower raise
    /// after a higher one changes nothing — and wake what they reach.
    #[test]
    fn raises_keep_the_highest_value_and_wake_what_they_reach() {
        let wm = Arc::new(Watermark::default());
        let w = waiter(&wm, 3);
        within_10s("the wait for 3 parks", || registered(&wm, 1, 3));
        wm.raise(2);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!w.is_finished(), "a raise below the target woke it");
        wm.raise(4);
        assert!(w.join().unwrap());
        wm.raise(1);
        assert_eq!(wm.get(), 4);
    }

    /// `park_on` registers one thread on several watermarks and returns
    /// for whichever reaches its target first — a raise or an advance — or
    /// at its timeout, and never parks for a target already reached. Every
    /// registration is gone afterwards.
    #[test]
    fn park_on_returns_for_the_first_target_reached_or_its_timeout() {
        let (a, b) = (
            Arc::new(Watermark::default()),
            Arc::new(Watermark::default()),
        );
        let parker = |on_a: u64| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || park_on(&[(&a, on_a), (&b, 2)], None))
        };
        b.advance(1);
        park_on(&[(&a, 5), (&b, 1)], None);
        // Nothing will reach either target: only the timeout ends this one.
        park_on(&[(&a, 5), (&b, 2)], Some(Duration::from_millis(20)));
        let p = parker(5);
        within_10s("it parks on both", || {
            registered(&a, 1, 5) && registered(&b, 1, 2)
        });
        a.raise(4);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!p.is_finished(), "a raise below the target woke it");
        a.raise(5);
        p.join().unwrap();
        let p = parker(6);
        within_10s("it parks again", || {
            registered(&a, 1, 6) && registered(&b, 1, 2)
        });
        b.advance(2);
        p.join().unwrap();
        assert!(!a.has_waiters() && !b.has_waiters());
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
