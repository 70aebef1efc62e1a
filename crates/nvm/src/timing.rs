//! The paper's NVM persistence-cost model (§5.1).
//!
//! * A single persisted write (or a persist barrier over a small range)
//!   costs a fixed `latency`. The paper uses 3500 cycles (≈ 1 µs on its
//!   3.4 GHz Xeon) for PCM-class writes and 1000 cycles (≈ 300 ns) for a
//!   projected faster device.
//! * A persist barrier over a large range costs
//!   `max(latency, bytes / bandwidth)`.
//!
//! Delays are realized by busy-waiting on the monotonic clock, the same
//! technique as the paper's RDTSC loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Frequency the paper's cycle counts are quoted at (3.4 GHz Xeon E5-2643).
pub const PAPER_GHZ: f64 = 3.4;

/// Process-wide monotonic epoch for observability timestamps (first call
/// wins).
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the process-wide trace epoch (the first call
/// to this function). This is the shared clock every pipeline stage times
/// its histogram samples and stamps metrics frames and commit histories
/// with: one origin, monotonic, and the same source the timing model's
/// busy-waits run on, so timings and modeled persist delays are directly
/// comparable on one axis.
///
/// The epoch is lazily initialized; call once early if a zero-based origin
/// matters.
pub fn monotonic_ns() -> u64 {
    #[cfg(feature = "sim")]
    if dude_sim::on_sim_task() {
        // Clock reads are yield points: timer-driven control flow (the
        // metrics sampler's interval, tracing's clock reads) is
        // schedule-explorable, and the returned time is the deterministic
        // virtual clock.
        dude_sim::yield_point(dude_sim::YieldKind::Time);
        return dude_sim::now_ns();
    }
    let epoch = TRACE_EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Configuration of the persistence-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Fixed persist-barrier latency in nanoseconds.
    pub latency_ns: u64,
    /// Sustained NVM write bandwidth in bytes per second. `0` disables the
    /// bandwidth term.
    pub bandwidth_bytes_per_sec: u64,
    /// Master switch: when `false` no delays are injected (unit tests).
    pub enabled: bool,
}

impl TimingConfig {
    /// The paper's default configuration: 1000-cycle latency at 3.4 GHz and
    /// 1 GB/s bandwidth.
    pub fn paper_default() -> Self {
        TimingConfig {
            latency_ns: Self::cycles_to_ns(1000),
            bandwidth_bytes_per_sec: 1 << 30,
            enabled: true,
        }
    }

    /// A configuration with all delays disabled (functional testing).
    pub fn disabled() -> Self {
        TimingConfig {
            latency_ns: 0,
            bandwidth_bytes_per_sec: 0,
            enabled: false,
        }
    }

    /// Converts a cycle count at the paper's 3.4 GHz into nanoseconds.
    pub fn cycles_to_ns(cycles: u64) -> u64 {
        (cycles as f64 / PAPER_GHZ) as u64
    }

    /// Sets the latency from a cycle count at the paper's clock frequency.
    #[must_use]
    pub fn with_latency_cycles(mut self, cycles: u64) -> Self {
        self.latency_ns = Self::cycles_to_ns(cycles);
        self
    }

    /// Sets the bandwidth in GB/s (the unit of Figure 2's sweep).
    #[must_use]
    pub fn with_bandwidth_gb(mut self, gb_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = gb_per_sec << 30;
        self
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

std::thread_local! {
    /// Marks the current thread as a background pipeline stage (Persist /
    /// Reproduce). See [`set_background_stage`].
    static BACKGROUND_STAGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Declares whether the calling thread is a *background* pipeline stage.
///
/// Foreground persist barriers (a transaction waiting for durability on
/// its critical path) busy-wait with cycle accuracy, like the paper's RDTSC
/// loop. Background stages — DudeTM's Persist workers, which also run the
/// Reproduce step, and on the paper's 12-core machine wait out NVM latency
/// on *their own* cores — must not burn the CPU that the Perform threads need, especially
/// on machines with few cores. Marking a thread as background makes its
/// modeled delays yield the processor while the wall-clock delay elapses,
/// which is exactly what dedicating a core to the stage would look like.
pub fn set_background_stage(background: bool) {
    BACKGROUND_STAGE.with(|b| b.set(background));
}

/// Whether the calling thread is currently marked as a background stage
/// (see [`set_background_stage`]). Used by the device's crash-plan event
/// accounting to attribute persistence events to pipeline stages.
pub fn is_background_stage() -> bool {
    BACKGROUND_STAGE.with(|b| b.get())
}

/// Runtime delay injector for persist barriers.
///
/// Also accumulates the total modeled delay so experiments can report how
/// much wall time went to persistence.
#[derive(Debug)]
pub struct TimingModel {
    config: TimingConfig,
    total_delay_ns: AtomicU64,
}

impl TimingModel {
    /// Creates a model from a configuration.
    pub fn new(config: TimingConfig) -> Self {
        TimingModel {
            config,
            total_delay_ns: AtomicU64::new(0),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> TimingConfig {
        self.config
    }

    /// Nanoseconds a persist barrier over `bytes` bytes costs:
    /// `max(latency, bytes / bandwidth)`.
    pub fn persist_cost_ns(&self, bytes: u64) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        let bw = self.config.bandwidth_bytes_per_sec;
        let bw_ns = if bw == 0 {
            0
        } else {
            // bytes / (bw / 1e9) without overflow for realistic sizes.
            ((bytes as u128 * 1_000_000_000u128) / bw as u128) as u64
        };
        self.config.latency_ns.max(bw_ns)
    }

    /// Busy-waits for the cost of a persist barrier over `bytes` bytes.
    pub fn delay_persist(&self, bytes: u64) {
        let ns = self.persist_cost_ns(bytes);
        if ns == 0 {
            return;
        }
        self.total_delay_ns.fetch_add(ns, Ordering::Relaxed);
        #[cfg(feature = "sim")]
        if dude_sim::on_sim_task() {
            // Modeled device time becomes virtual time: the delay is
            // exact, deterministic, and free of wall-clock waiting.
            dude_sim::sleep_ns(ns);
            return;
        }
        if BACKGROUND_STAGE.with(|b| b.get()) {
            wait_yielding(Duration::from_nanos(ns));
        } else {
            spin_for(Duration::from_nanos(ns));
        }
    }

    /// Total modeled delay injected so far, in nanoseconds.
    pub fn total_delay_ns(&self) -> u64 {
        self.total_delay_ns.load(Ordering::Relaxed)
    }
}

/// Busy-wait for `dur` on the monotonic clock (the paper's RDTSC loop).
///
/// The loop compares each clock read with a deadline taken once and does
/// nothing else (no `pause`), so the wait overshoots `dur` by at most about
/// one clock read (≈ 50 ns on the 2-vCPU reference host).
fn spin_for(dur: Duration) {
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline {}
}

/// Waits out `dur` while releasing the CPU to runnable threads — the
/// background-stage delay (see [`set_background_stage`]).
///
/// Long waits park the thread outright instead of yielding: a yield loop
/// keeps the thread runnable for the whole window, so on hosts with few
/// cores every "waiting" background stage still consumes a fair-share
/// scheduler slice and starves the compute threads it was supposed to get
/// out of the way of. Parking frees the core entirely — which is exactly
/// what a stage waiting out device time on dedicated hardware looks like —
/// and the trailing yield loop restores sub-quantum precision.
fn wait_yielding(dur: Duration) {
    const PARK_FLOOR: Duration = Duration::from_micros(200);
    const PARK_SLACK: Duration = Duration::from_micros(100);
    let start = Instant::now();
    if dur >= PARK_FLOOR {
        std::thread::sleep(dur - PARK_SLACK);
    }
    while start.elapsed() < dur {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion_matches_paper_clock() {
        // 3400 cycles at 3.4 GHz is exactly 1 µs.
        assert_eq!(TimingConfig::cycles_to_ns(3400), 1000);
        // The paper's 3500-cycle PCM latency is about 1 µs.
        let ns = TimingConfig::cycles_to_ns(3500);
        assert!((1000..=1060).contains(&ns), "{ns}");
    }

    #[test]
    fn latency_dominates_small_persists() {
        let m = TimingModel::new(TimingConfig::paper_default());
        // 64 bytes at 1 GB/s is ~60 ns, below the ~294 ns latency.
        assert_eq!(m.persist_cost_ns(64), m.config().latency_ns);
    }

    #[test]
    fn bandwidth_dominates_large_persists() {
        let m = TimingModel::new(TimingConfig::paper_default().with_bandwidth_gb(1));
        // 1 MiB at 1 GiB/s is ~976 µs, far above latency.
        let ns = m.persist_cost_ns(1 << 20);
        assert!(ns > 900_000, "{ns}");
    }

    #[test]
    fn disabled_model_costs_nothing() {
        let m = TimingModel::new(TimingConfig::disabled());
        assert_eq!(m.persist_cost_ns(1 << 30), 0);
        m.delay_persist(1 << 30); // returns immediately
        assert_eq!(m.total_delay_ns(), 0);
    }

    #[test]
    fn delay_accumulates_total() {
        let cfg = TimingConfig {
            latency_ns: 1000,
            bandwidth_bytes_per_sec: 0,
            enabled: true,
        };
        let m = TimingModel::new(cfg);
        m.delay_persist(8);
        m.delay_persist(8);
        assert_eq!(m.total_delay_ns(), 2000);
    }

    #[test]
    fn delay_actually_waits() {
        let cfg = TimingConfig {
            latency_ns: 2_000_000, // 2 ms, comfortably measurable
            bandwidth_bytes_per_sec: 0,
            enabled: true,
        };
        let m = TimingModel::new(cfg);
        let start = Instant::now();
        m.delay_persist(8);
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn bandwidth_setter_uses_gb() {
        let cfg = TimingConfig::paper_default().with_bandwidth_gb(16);
        assert_eq!(cfg.bandwidth_bytes_per_sec, 16u64 << 30);
    }
}
