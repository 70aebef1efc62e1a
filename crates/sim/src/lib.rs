//! `dude-sim`: a deterministic virtual scheduler for schedule-exploration
//! testing.
//!
//! The simulator runs a set of *logical tasks* (each backed by a real OS
//! thread) under a cooperative token-passing protocol: exactly one task
//! runs at a time, and every instrumented synchronization operation — lock
//! acquisition, channel send/recv, park, clock read — is a *yield point*
//! where the running task hands the token to a scheduler. The scheduler
//! picks the next task with a seeded PRNG, so the whole interleaving is a
//! deterministic function of the seed, recorded as a replayable trace.
//!
//! Wall-clock time is replaced by a *virtual clock*: each scheduling step
//! advances it by a small fixed tick, a deadline it passes fires at that
//! step however many tasks are runnable, and when no task is runnable the
//! clock jumps straight to the earliest pending deadline. Modeled NVM
//! persist delays and background parks therefore cost simulation steps,
//! not real time, and timer-dependent code paths (`recv_timeout` polls,
//! event waits' poll deadlines) fire deterministically.
//!
//! Schedule exploration is *preemption-bounded*: at a preemption
//! opportunity (a yield point where the running task could continue) the
//! scheduler switches away with probability `100 - stay_bias` percent,
//! but only while the run's preemption budget lasts; voluntary switches
//! (blocking, sleeping, exiting) are always free. Bounding preemptions is
//! the classic systematic-concurrency-testing trick: most ordering bugs
//! are triggered by a handful of preemptions, so spending the budget
//! sparingly explores the interesting corner of the schedule space far
//! faster than uniform interleaving.
//!
//! The crate is dependency-free; the vendored `parking_lot`/`crossbeam`
//! shims and `dude_nvm::timing` call into it behind `cfg(feature =
//! "sim")`. Threads that were not spawned through [`spawn`] (or as the
//! [`run`] root) are invisible to the simulator: [`on_sim_task`] returns
//! `false` for them and the shims fall through to their native paths.

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// The kind of yield point a task hit, recorded in the schedule trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum YieldKind {
    /// A new task was registered (the spawner yields right after).
    Spawn = 1,
    /// A task finished (normally or by panic).
    Exit = 2,
    /// Lock acquisition (mutex or rwlock).
    Lock = 3,
    /// Channel operation (send/recv/try variants).
    Chan = 4,
    /// Virtual-clock read (`monotonic_ns`).
    Time = 5,
    /// Virtual sleep / modeled persist delay.
    Sleep = 6,
    /// Condition-poll wait (`yield_now` loops, ring-full parks).
    Poll = 7,
    /// Contention backoff (STM/HTM abort-retry paths).
    Backoff = 8,
    /// Waiting for another task to finish.
    Join = 9,
}

/// Virtual nanoseconds an event-wait sleeps before re-polling when nothing
/// wakes it explicitly. Every blocking wait in the simulator is an
/// event-*or*-deadline wait with this poll interval, which makes a missed
/// [`wake_all`] cost bounded virtual time instead of a livelock.
const EVENT_POLL_NS: u64 = 100_000;

/// Configuration of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// PRNG seed; the schedule is a deterministic function of it.
    pub seed: u64,
    /// Percent chance (0..=100) of *staying* with the current task at a
    /// preemption opportunity. Higher values mean longer uninterrupted
    /// runs punctuated by a few context switches.
    pub stay_bias: u32,
    /// Maximum number of preemptive (involuntary) context switches per
    /// run; `None` is unbounded. Voluntary switches (block/sleep/exit)
    /// are always free.
    pub preemption_bound: Option<u32>,
    /// Scheduling-step budget; exceeding it poisons the run with a
    /// livelock diagnostic.
    pub max_steps: u64,
    /// Virtual nanoseconds the clock advances per scheduling step.
    pub step_ns: u64,
}

impl SimConfig {
    /// A configuration with every exploration knob derived
    /// deterministically from `seed`, so a seed sweep also sweeps the
    /// stay bias and the preemption bound.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = SplitMix64::new(seed ^ 0x5EED_0DE5_CEDE_D5EE);
        let stay_bias = 35 + (r.next() % 46) as u32; // 35..=80
        const BOUNDS: [Option<u32>; 8] = [
            None,
            Some(2),
            Some(3),
            Some(4),
            Some(8),
            Some(16),
            Some(64),
            None,
        ];
        let preemption_bound = BOUNDS[(r.next() % BOUNDS.len() as u64) as usize];
        SimConfig {
            seed,
            stay_bias,
            preemption_bound,
            max_steps: 4_000_000,
            step_ns: 40,
        }
    }
}

/// Result of a simulated run: the root closure's return value, the first
/// panic (if any task panicked or the scheduler aborted), and the recorded
/// schedule trace.
#[derive(Debug)]
pub struct SimReport<R> {
    /// The root closure's return value; `None` if it panicked.
    pub result: Option<R>,
    /// First failure recorded during the run (task panic, deadlock, or
    /// step-budget exhaustion), with the offending task named.
    pub panic: Option<String>,
    /// Encoded schedule trace: 5 bytes per decision (`kind`, `task` LE).
    /// Identical seeds yield byte-identical traces.
    pub trace: Vec<u8>,
    /// Total scheduling decisions taken.
    pub steps: u64,
    /// Preemptive context switches charged against the bound.
    pub preemptions: u64,
    /// Final virtual-clock reading in nanoseconds.
    pub virtual_ns: u64,
}

// ---------------------------------------------------------------------------
// PRNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, and plenty for schedule choice.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// What a task is waiting for, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Eligible to run.
    Runnable,
    /// Event-or-deadline wait: woken by [`wake_all`] or when the virtual
    /// clock reaches the deadline, whichever first.
    Until(u64),
    /// Deadline-only wait (virtual sleep): *not* woken by [`wake_all`],
    /// so modeled delays keep their exact virtual duration.
    SleepUntil(u64),
    /// Finished (normally or by panic).
    Finished,
}

/// Per-task handshake: the task parks on its own condvar until a granter
/// sets the flag.
#[derive(Debug, Default)]
struct TaskSignal {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl TaskSignal {
    fn grant(&self) {
        *self.granted.lock().unwrap() = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut g = self.granted.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
        *g = false;
    }
}

#[derive(Debug)]
struct TaskSlot {
    name: String,
    state: TaskState,
    signal: Arc<TaskSignal>,
}

#[derive(Debug)]
struct SchedState {
    cfg: SimConfig,
    rng: SplitMix64,
    tasks: Vec<TaskSlot>,
    /// Task currently holding the run token.
    current: u32,
    now_ns: u64,
    steps: u64,
    preemptions: u64,
    /// First failure; once set the run is poisoned and free-runs to exit.
    poisoned: Option<String>,
    tasks_alive: usize,
    trace: Vec<u8>,
}

impl SchedState {
    fn record(&mut self, kind: YieldKind, chosen: u32) {
        self.trace.push(kind as u8);
        self.trace.extend_from_slice(&chosen.to_le_bytes());
    }

    /// Grants every live task so it can run to its next yield point, see
    /// the poison, and unwind. Idempotent.
    fn free_run_all(&mut self) {
        for t in &self.tasks {
            if t.state != TaskState::Finished {
                t.signal.grant();
            }
        }
    }
}

struct GlobalSim {
    state: Mutex<Option<SchedState>>,
    /// Signalled when `tasks_alive` reaches zero.
    completion: Condvar,
}

static GLOBAL: OnceLock<GlobalSim> = OnceLock::new();
static RUN_LOCK: Mutex<()> = Mutex::new(());
/// Fast-path gate so uninstrumented threads skip the simulator entirely.
static ACTIVE: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
}

fn global() -> &'static GlobalSim {
    GLOBAL.get_or_init(|| GlobalSim {
        state: Mutex::new(None),
        completion: Condvar::new(),
    })
}

/// Takes the scheduler lock, shrugging off std poisoning (a panicking sim
/// task must still be able to reach the scheduler to unwind cleanly).
fn lock_state(g: &GlobalSim) -> MutexGuard<'_, Option<SchedState>> {
    g.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the calling thread is a registered task of an active simulated
/// run. The shims check this before taking their `sim` paths; threads
/// outside the simulation always run natively.
#[inline]
pub fn on_sim_task() -> bool {
    ACTIVE.load(Ordering::Relaxed) && CURRENT.with(|c| c.get().is_some())
}

fn current_task() -> u32 {
    CURRENT
        .with(|c| c.get())
        .expect("dude-sim API called off a sim task")
}

// ---------------------------------------------------------------------------
// The scheduling step
// ---------------------------------------------------------------------------

/// How the task re-enters the scheduler at a yield point.
enum Reentry {
    /// Still runnable: a preemption opportunity.
    Yield,
    /// Event-or-deadline wait.
    Until(u64),
    /// Deadline-only wait.
    Sleep(u64),
    /// Task is done.
    Exit,
}

/// The heart of the simulator: the running task declares its new state,
/// the scheduler picks who runs next, and (unless the task keeps the
/// token) hands it over and parks.
fn reschedule(kind: YieldKind, reentry: Reentry) {
    let me = current_task();
    let g = global();
    let mut guard = lock_state(g);

    let st = match guard.as_mut() {
        Some(st) => st,
        // The run was torn down while this task was unwinding.
        None => return,
    };

    if matches!(reentry, Reentry::Exit) {
        // An exiting task ALWAYS retires its slot — even in a poisoned
        // run — or `run()` would wait on `tasks_alive` forever.
        st.tasks[me as usize].state = TaskState::Finished;
        st.tasks_alive -= 1;
        // A finishing task is an event: joiners and channel peers
        // re-check their conditions.
        wake_event_waiters(st);
        if st.poisoned.is_some() || st.tasks_alive == 0 {
            g.completion.notify_all();
            return;
        }
    } else if st.poisoned.is_some() {
        drop(guard);
        abort_current_task();
        return;
    }

    st.steps += 1;
    st.now_ns += st.cfg.step_ns;
    if st.steps > st.cfg.max_steps {
        let msg = format!(
            "step budget exceeded ({} steps): livelock or runaway schedule\n{}",
            st.cfg.max_steps,
            task_table(st)
        );
        poison(st, &g.completion, msg);
        if matches!(reentry, Reentry::Exit) {
            return;
        }
        drop(guard);
        abort_current_task();
        return;
    }

    st.tasks[me as usize].state = match reentry {
        Reentry::Yield => TaskState::Runnable,
        Reentry::Until(d) => TaskState::Until(d),
        Reentry::Sleep(d) => TaskState::SleepUntil(d),
        Reentry::Exit => TaskState::Finished,
    };
    // A deadline the clock has passed fires even while other tasks stay
    // runnable: tasks that keep waking each other must not starve a
    // sleeper forever (a background worker's idle sleep, say).
    let now = st.now_ns;
    for t in st.tasks.iter_mut() {
        if let TaskState::Until(d) | TaskState::SleepUntil(d) = t.state {
            if d <= now {
                t.state = TaskState::Runnable;
            }
        }
    }

    let chosen = loop {
        let runnable: Vec<u32> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TaskState::Runnable)
            .map(|(i, _)| i as u32)
            .collect();
        if !runnable.is_empty() {
            break pick(st, me, &runnable, matches!(reentry, Reentry::Yield));
        }
        // Nobody runnable: jump the virtual clock to the earliest
        // deadline and wake whoever it belongs to.
        let min_deadline = st
            .tasks
            .iter()
            .filter_map(|t| match t.state {
                TaskState::Until(d) | TaskState::SleepUntil(d) => Some(d),
                _ => None,
            })
            .min();
        match min_deadline {
            Some(d) => {
                st.now_ns = st.now_ns.max(d);
                let now = st.now_ns;
                for t in st.tasks.iter_mut() {
                    match t.state {
                        TaskState::Until(dl) | TaskState::SleepUntil(dl) if dl <= now => {
                            t.state = TaskState::Runnable;
                        }
                        _ => {}
                    }
                }
            }
            None => {
                let msg = format!(
                    "deadlock: no runnable task, no deadline\n{}",
                    task_table(st)
                );
                poison(st, &g.completion, msg);
                if matches!(reentry, Reentry::Exit) {
                    return;
                }
                drop(guard);
                abort_current_task();
                return;
            }
        }
    };

    st.record(kind, chosen);
    st.current = chosen;
    if chosen == me {
        return; // keep the token
    }
    st.tasks[chosen as usize].signal.grant();
    drop(guard);

    if matches!(reentry, Reentry::Exit) {
        return; // the OS thread is about to terminate
    }
    wait_for_grant(me);
}

/// Chooses the next task. `voluntary_stay_possible` is true when the
/// current task is itself runnable (a preemption opportunity); switching
/// away then costs preemption budget.
fn pick(st: &mut SchedState, me: u32, runnable: &[u32], preemption_opportunity: bool) -> u32 {
    if preemption_opportunity {
        let others: Vec<u32> = runnable.iter().copied().filter(|&t| t != me).collect();
        if others.is_empty() {
            return me;
        }
        let budget_left = match st.cfg.preemption_bound {
            Some(b) => st.preemptions < b as u64,
            None => true,
        };
        if !budget_left {
            return me;
        }
        if st.rng.next() % 100 < st.cfg.stay_bias as u64 {
            return me;
        }
        st.preemptions += 1;
        others[(st.rng.next() % others.len() as u64) as usize]
    } else {
        runnable[(st.rng.next() % runnable.len() as u64) as usize]
    }
}

/// Marks every event-waiter runnable. Deadline-only sleepers keep
/// sleeping: modeled delays are not interruptible events.
fn wake_event_waiters(st: &mut SchedState) {
    for t in st.tasks.iter_mut() {
        if matches!(t.state, TaskState::Until(_)) {
            t.state = TaskState::Runnable;
        }
    }
}

fn poison(st: &mut SchedState, completion: &Condvar, msg: String) {
    if st.poisoned.is_none() {
        st.poisoned = Some(msg);
    }
    st.free_run_all();
    completion.notify_all();
}

/// Called at a yield point once the run is poisoned. During unwinding the
/// task free-runs (so drop glue passes straight through the shims);
/// otherwise it panics to start unwinding.
fn abort_current_task() {
    if std::thread::panicking() {
        // Free-running alongside other unwinding tasks: give the OS
        // scheduler a chance so retry loops don't spin hard.
        std::thread::yield_now();
        return;
    }
    let msg = {
        let guard = lock_state(global());
        guard
            .as_ref()
            .and_then(|st| st.poisoned.clone())
            .unwrap_or_else(|| "run poisoned".to_owned())
    };
    panic!("dude-sim: schedule aborted: {msg}");
}

fn wait_for_grant(me: u32) {
    let signal = {
        let guard = lock_state(global());
        match guard.as_ref() {
            Some(st) => Arc::clone(&st.tasks[me as usize].signal),
            None => return,
        }
    };
    signal.wait();
}

fn task_table(st: &SchedState) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, t) in st.tasks.iter().enumerate() {
        let _ = writeln!(out, "  task {i} [{}]: {:?}", t.name, t.state);
    }
    out
}

// ---------------------------------------------------------------------------
// Public yield-point API (called by the shims)
// ---------------------------------------------------------------------------

/// A preemption-opportunity yield point: the task stays runnable and may
/// keep the token.
pub fn yield_point(kind: YieldKind) {
    reschedule(kind, Reentry::Yield);
}

/// Event wait: parks until [`wake_all`] or a short virtual poll interval,
/// whichever first. The caller re-checks its condition in a loop.
pub fn block(kind: YieldKind) {
    let deadline = raw_now().saturating_add(EVENT_POLL_NS);
    reschedule(kind, Reentry::Until(deadline));
}

/// Event-or-deadline wait: parks until [`wake_all`] or the virtual clock
/// reaches `deadline_ns`, whichever first.
pub fn block_until(deadline_ns: u64, kind: YieldKind) {
    reschedule(kind, Reentry::Until(deadline_ns));
}

/// Virtual sleep: parks for exactly `ns` virtual nanoseconds. Not woken
/// by [`wake_all`], so modeled delays keep their duration.
pub fn sleep_ns(ns: u64) {
    let deadline = raw_now().saturating_add(ns);
    reschedule(YieldKind::Sleep, Reentry::Sleep(deadline));
}

/// Current virtual-clock reading, without yielding. Instrumented clock
/// reads should call [`yield_point`] first (see `dude_nvm::monotonic_ns`).
pub fn now_ns() -> u64 {
    raw_now()
}

fn raw_now() -> u64 {
    let guard = lock_state(global());
    guard.as_ref().map_or(0, |st| st.now_ns)
}

/// Marks every event-waiting task runnable. The shims call this after any
/// state change another task might be waiting on: a mutex/rwlock guard
/// drop, a successful channel operation, a channel endpoint disconnect.
/// Never panics; a no-op off the simulator.
pub fn wake_all() {
    if !on_sim_task() {
        return;
    }
    let mut guard = lock_state(global());
    if let Some(st) = guard.as_mut() {
        wake_event_waiters(st);
    }
}

// ---------------------------------------------------------------------------
// Tasks: spawn / join / run
// ---------------------------------------------------------------------------

/// Join handle for a simulated task: a sim-aware wrapper over the OS
/// thread handle.
#[derive(Debug)]
pub struct SimJoinHandle<T> {
    id: u32,
    inner: std::thread::JoinHandle<T>,
}

impl<T> SimJoinHandle<T> {
    /// Waits for the task to finish and returns its result, like
    /// [`std::thread::JoinHandle::join`]. When called from a sim task this
    /// parks on the virtual scheduler until the target exits, so joining
    /// never wedges the token.
    pub fn join(self) -> std::thread::Result<T> {
        if on_sim_task() {
            loop {
                let finished = {
                    let guard = lock_state(global());
                    match guard.as_ref() {
                        Some(st) => st.tasks[self.id as usize].state == TaskState::Finished,
                        None => true,
                    }
                };
                if finished {
                    break;
                }
                block(YieldKind::Join);
            }
        }
        // The target's OS thread is past its last yield point; the real
        // join below is a brief, bounded wait.
        self.inner.join()
    }

    /// Whether the task has finished running.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Registers a new task slot and returns its id. The caller must already
/// hold no scheduler lock.
fn register_task(name: &str) -> u32 {
    let mut guard = lock_state(global());
    let st = guard
        .as_mut()
        .expect("dude-sim: spawn outside an active run");
    let id = st.tasks.len() as u32;
    st.tasks.push(TaskSlot {
        name: name.to_owned(),
        state: TaskState::Runnable,
        signal: Arc::new(TaskSignal::default()),
    });
    st.tasks_alive += 1;
    if st.poisoned.is_some() {
        // Spawned into a poisoned run: free-run it straight to its abort
        // so `tasks_alive` still drains to zero.
        st.tasks[id as usize].signal.grant();
    }
    id
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The body every task OS thread runs: wait for the first grant, run the
/// closure under `catch_unwind`, record the outcome, and exit through the
/// scheduler.
fn task_main<T, F: FnOnce() -> T>(id: u32, f: F) -> T {
    CURRENT.with(|c| c.set(Some(id)));
    wait_for_grant(id);
    let result = catch_unwind(AssertUnwindSafe(f));
    if let Err(payload) = &result {
        let g = global();
        let mut guard = lock_state(g);
        if let Some(st) = guard.as_mut() {
            let msg = format!(
                "task {id} [{}] panicked: {}",
                st.tasks[id as usize].name,
                panic_message(payload.as_ref())
            );
            poison(st, &g.completion, msg);
        }
    }
    reschedule(YieldKind::Exit, Reentry::Exit);
    match result {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    }
}

/// Spawns a new simulated task. Must be called from a sim task; the
/// spawner yields right after registration so the scheduler can explore
/// start orders.
pub fn spawn<T, F>(name: &str, f: F) -> SimJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    assert!(on_sim_task(), "dude-sim: spawn off a sim task");
    let id = register_task(name);
    let inner = std::thread::Builder::new()
        .name(format!("sim-{id}-{name}"))
        .spawn(move || task_main(id, f))
        .expect("dude-sim: OS thread spawn failed");
    yield_point(YieldKind::Spawn);
    SimJoinHandle { id, inner }
}

/// Runs `f` as the root task of a fresh simulated schedule and reports
/// the outcome. Runs are serialized process-wide; nesting panics.
pub fn run<R, F>(cfg: SimConfig, f: F) -> SimReport<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    assert!(!on_sim_task(), "dude-sim: nested run");
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = global();

    {
        let mut guard = lock_state(g);
        assert!(guard.is_none(), "dude-sim: concurrent run");
        *guard = Some(SchedState {
            rng: SplitMix64::new(cfg.seed),
            cfg,
            tasks: Vec::new(),
            current: 0,
            now_ns: 0,
            steps: 0,
            preemptions: 0,
            poisoned: None,
            tasks_alive: 0,
            trace: Vec::new(),
        });
    }
    ACTIVE.store(true, Ordering::SeqCst);

    let root_id = register_task("root");
    debug_assert_eq!(root_id, 0);
    let root = std::thread::Builder::new()
        .name("sim-0-root".to_owned())
        .spawn(move || task_main(0, f))
        .expect("dude-sim: OS thread spawn failed");

    // Hand the token to the root task and wait for the run to drain.
    {
        let mut guard = lock_state(g);
        {
            let st = guard.as_mut().unwrap();
            st.record(YieldKind::Spawn, 0);
            st.tasks[0].signal.grant();
        }
        while guard.as_ref().is_some_and(|st| st.tasks_alive > 0) {
            guard = g.completion.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    let result = root.join();
    ACTIVE.store(false, Ordering::SeqCst);
    let st = lock_state(g).take().expect("dude-sim: run state vanished");

    SimReport {
        result: result.ok(),
        panic: st.poisoned,
        trace: st.trace,
        steps: st.steps,
        preemptions: st.preemptions,
        virtual_ns: st.now_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::from_seed(seed)
    }

    #[test]
    fn same_seed_replays_identical_trace() {
        let body = || {
            let n = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..3)
                .map(|i| {
                    let n = Arc::clone(&n);
                    spawn(&format!("w{i}"), move || {
                        for _ in 0..10 {
                            yield_point(YieldKind::Poll);
                            n.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            n.load(Ordering::Relaxed)
        };
        let a = run(cfg(42), body);
        let b = run(cfg(42), body);
        assert_eq!(a.result, Some(30));
        assert_eq!(b.result, Some(30));
        assert!(!a.trace.is_empty());
        assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
        let c = run(cfg(43), body);
        // Different seeds *may* coincide, but for this workload shape they
        // should not; treat coincidence as a bug in seed plumbing.
        assert_ne!(a.trace, c.trace, "different seed produced identical trace");
    }

    #[test]
    fn virtual_sleep_orders_by_deadline() {
        let report = run(cfg(7), || {
            let order = Arc::new(Mutex::new(Vec::new()));
            let o1 = Arc::clone(&order);
            let long = spawn("long", move || {
                sleep_ns(1_000_000);
                o1.lock().unwrap().push("long");
            });
            let o2 = Arc::clone(&order);
            let short = spawn("short", move || {
                sleep_ns(10_000);
                o2.lock().unwrap().push("short");
            });
            long.join().unwrap();
            short.join().unwrap();
            Arc::try_unwrap(order).unwrap().into_inner().unwrap()
        });
        assert_eq!(report.panic, None);
        assert_eq!(report.result.unwrap(), vec!["short", "long"]);
    }

    #[test]
    fn virtual_clock_jumps_past_idle_time() {
        let report = run(cfg(9), || {
            sleep_ns(50_000_000); // 50 virtual ms
        });
        assert_eq!(report.panic, None);
        assert!(report.virtual_ns >= 50_000_000);
        // Jumping (not ticking) through the sleep keeps the step count
        // tiny.
        assert!(report.steps < 1000, "steps = {}", report.steps);
    }

    #[test]
    fn child_panic_is_reported_with_task_name() {
        let report = run(cfg(3), || {
            let h = spawn("boomer", || panic!("boom"));
            let _ = h.join();
            "root survived?"
        });
        let msg = report.panic.expect("panic must be recorded");
        assert!(msg.contains("boomer"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn step_budget_exhaustion_poisons_run() {
        let mut c = cfg(5);
        c.max_steps = 500;
        let report = run(c, || loop {
            yield_point(YieldKind::Poll);
        });
        let msg = report.panic.expect("budget exhaustion must poison");
        assert!(msg.contains("step budget"), "{msg}");
        assert!(report.result.is_none());
    }

    #[test]
    fn preemption_bound_zero_never_preempts() {
        let mut c = cfg(11);
        c.preemption_bound = Some(0);
        let report = run(c, || {
            let hs: Vec<_> = (0..3)
                .map(|i| {
                    spawn(&format!("w{i}"), move || {
                        for _ in 0..20 {
                            yield_point(YieldKind::Poll);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        });
        assert_eq!(report.panic, None);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn event_wait_is_woken_by_wake_all() {
        let report = run(cfg(13), || {
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = Arc::clone(&flag);
            let waiter = spawn("waiter", move || {
                let mut polls = 0u64;
                while !f2.load(Ordering::Relaxed) {
                    polls += 1;
                    block(YieldKind::Poll);
                }
                polls
            });
            let f3 = Arc::clone(&flag);
            let setter = spawn("setter", move || {
                f3.store(true, Ordering::Relaxed);
                wake_all();
            });
            setter.join().unwrap();
            waiter.join().unwrap()
        });
        assert_eq!(report.panic, None);
        assert!(report.result.is_some());
    }

    #[test]
    fn from_seed_varies_exploration_knobs() {
        let knobs: std::collections::BTreeSet<(u32, Option<u32>)> = (0..64)
            .map(|s| {
                let c = SimConfig::from_seed(s);
                (c.stay_bias, c.preemption_bound)
            })
            .collect();
        assert!(
            knobs.len() > 8,
            "knob derivation looks degenerate: {knobs:?}"
        );
    }
}
