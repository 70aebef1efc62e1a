//! Thread helpers shared by the pipeline stages, sim-aware.
//!
//! The pipeline spawns its background workers and parks in condition-poll
//! loops through these wrappers instead of `std::thread` directly. On a
//! native run they are thin veneers over `std`; under `cfg(feature =
//! "sim")` (and inside an active simulated run) spawning registers the
//! worker as a task of the `dude-sim` virtual scheduler and the waits
//! park on virtual time, so every pipeline hand-off is deterministic and
//! schedule-explorable. Threads spawned outside a simulated run behave
//! natively even in `sim` builds.

use std::time::Duration;

/// A join handle over either a native thread or a simulated task.
#[derive(Debug)]
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

#[derive(Debug)]
enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    #[cfg(feature = "sim")]
    Sim(dude_sim::SimJoinHandle<T>),
}

impl<T> JoinHandle<T> {
    /// Waits for the thread/task to finish, like
    /// [`std::thread::JoinHandle::join`]. Inside a simulated run the wait
    /// parks on the virtual scheduler, so joining never wedges the
    /// single-task-at-a-time token.
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Std(h) => h.join(),
            #[cfg(feature = "sim")]
            Inner::Sim(h) => h.join(),
        }
    }

    /// Whether the thread/task has finished running.
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            Inner::Std(h) => h.is_finished(),
            #[cfg(feature = "sim")]
            Inner::Sim(h) => h.is_finished(),
        }
    }
}

/// Spawns a named worker thread. Inside a simulated run the worker
/// becomes a scheduler task; otherwise a plain named OS thread.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread (the pipeline cannot run
/// degraded).
pub fn spawn_named<T, F>(name: &str, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        return JoinHandle {
            inner: Inner::Sim(dude_sim::spawn(name, f)),
        };
    }
    let h = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(f)
        .expect("worker thread spawn failed");
    JoinHandle {
        inner: Inner::Std(h),
    }
}

/// Releases the processor in a condition-poll loop. Inside a simulated
/// run this parks the task as an event waiter on the virtual scheduler
/// (woken by the next lock release / channel operation, or a short
/// virtual poll interval) — a raw `std::thread::yield_now` loop would
/// spin forever under one-task-at-a-time scheduling.
pub fn yield_now() {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        dude_sim::block(dude_sim::YieldKind::Poll);
        return;
    }
    std::thread::yield_now();
}

/// Parks the calling thread until [`unpark`] wakes it, or spuriously: the
/// caller re-checks its condition in a loop. Inside a simulated run this is
/// the same event wait as [`yield_now`].
pub fn park() {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        dude_sim::block(dude_sim::YieldKind::Poll);
        return;
    }
    std::thread::park();
}

/// [`park`], returning by `dur` at the latest: inside a simulated run an
/// event wait with a virtual deadline.
pub fn park_timeout(dur: Duration) {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let deadline = dude_sim::now_ns().saturating_add(ns);
        dude_sim::block_until(deadline, dude_sim::YieldKind::Poll);
        return;
    }
    std::thread::park_timeout(dur);
}

/// Wakes `thread` from [`park`]; inside a simulated run, every event-waiting
/// task.
pub fn unpark(thread: &std::thread::Thread) {
    thread.unpark();
    #[cfg(feature = "sim")]
    dude_sim::wake_all();
}

/// Sleeps for `dur`: virtual time inside a simulated run (exact and
/// instant in wall-clock terms), wall-clock time otherwise.
pub fn sleep(dur: Duration) {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        dude_sim::sleep_ns(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
        return;
    }
    std::thread::sleep(dur);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_spawn_join_roundtrip() {
        let h = spawn_named("probe", || 7u32);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn native_helpers_do_not_block() {
        yield_now();
        sleep(Duration::from_millis(1));
        park_timeout(Duration::from_millis(1));
    }
}
