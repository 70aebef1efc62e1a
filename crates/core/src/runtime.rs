//! The DudeTM runtime: layout, registration, the `dtm*` API, and pipeline
//! wiring.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use dude_nvm::{Nvm, Region};
use dude_stm::HeapTxn;
use dude_txapi::{TxAbort, TxResult, Txn, TxnOutcome, TxnSystem, TxnThread};
use parking_lot::Mutex;

use crate::check::CommitHistory;
use crate::config::{DudeTmConfig, DurabilityMode};
use crate::engine::{EngineThread, TmEngine};
use crate::metrics::MetricsRegistry;
use crate::pipeline::{
    drain, persist_worker, wait_durable, wait_reproduced, Batch, Persist, Replay, Sequencer, Source,
};
use crate::plog::PlogRing;
use crate::recovery::{wipe_logs, RecoverError};
use crate::redo_ring::{RedoCursor, RedoProducer, RedoRing};
use crate::seqtrack::DenseReorder;
use crate::shadow::ShadowMem;
use crate::stats::{
    counters, snapshot, PipelineSnapshot, PipelineStats, PipelineStatsSnapshot, RecoveryTelemetry,
};
use crate::trace::Trace;
use crate::watermark::Watermark;

/// Magic number identifying a formatted DudeTM device.
pub(crate) const META_MAGIC: u64 = 0xD00D_E7A6_0001_CAFE;
/// On-NVM format version.
pub(crate) const META_VERSION: u64 = 6;
/// Metadata word indices.
pub(crate) const META_MAGIC_WORD: u64 = 0;
pub(crate) const META_VERSION_WORD: u64 = 1;
pub(crate) const META_REPRODUCED: u64 = 2;
pub(crate) const META_THREADS: u64 = 3;
const META_WORDS: u64 = 8;

/// NVM layout: metadata, per-thread persistent log rings, heap.
#[derive(Debug, Clone)]
pub struct NvmLayout {
    /// Runtime metadata block (magic, version, reproduced-ID checkpoint).
    pub meta: Region,
    /// One persistent redo-log ring per Perform thread.
    pub plogs: Vec<Region>,
    /// The persistent heap the application addresses with `PAddr`.
    pub heap: Region,
}

impl NvmLayout {
    /// Lays `config` out over a device of `nvm_bytes`; a device too small
    /// for the result is [`RecoverError::DeviceTooSmall`].
    pub(crate) fn compute(
        nvm_bytes: u64,
        config: &DudeTmConfig,
    ) -> Result<NvmLayout, RecoverError> {
        let mut off = 0u64;
        let meta = Region::new(off, META_WORDS * 8);
        off += META_WORDS * 8;
        let mut plogs = Vec::with_capacity(config.max_threads);
        for _ in 0..config.max_threads {
            plogs.push(Region::new(off, config.plog_bytes_per_thread));
            off += config.plog_bytes_per_thread;
        }
        // Page-align the heap.
        off = off.next_multiple_of(4096);
        let heap = Region::new(off, config.heap_bytes);
        if heap.end() > nvm_bytes {
            return Err(RecoverError::DeviceTooSmall {
                need: heap.end(),
                have: nvm_bytes,
            });
        }
        Ok(NvmLayout { meta, plogs, heap })
    }
}

/// State shared between the API threads and the pipeline workers.
#[derive(Debug)]
pub struct Shared {
    pub(crate) nvm: Arc<Nvm>,
    pub(crate) config: DudeTmConfig,
    pub(crate) meta: Region,
    pub(crate) heap: Region,
    pub(crate) rings: Vec<Arc<PlogRing>>,
    /// One volatile redo ring per thread slot, in every durability mode.
    pub(crate) redo: Vec<Arc<RedoRing>>,
    /// The grouped input, over every redo ring when `persist_group > 1`.
    pub(crate) groups: Mutex<Sequencer>,
    /// Fenced batches parked behind a TID gap; [`crate::pipeline::publish`]
    /// pops them in dense order.
    pub(crate) order: Mutex<DenseReorder<Batch>>,
    /// The Reproduce step's state. Taken after `order` when both are held,
    /// never before it.
    pub(crate) replay: Mutex<Replay>,
    /// The durable ID (§3.3): every transaction at or below it is fenced in
    /// the log. Advanced by `publish` only, holding `order` and `replay`.
    pub(crate) durable: Watermark,
    /// The highest TID some thread waits to see durable, raised before it
    /// parks (DESIGN.md §6, *Waits*): the grouped input cuts a partial group
    /// only once `demand` reaches its first TID.
    pub(crate) demand: Watermark,
    /// The reproduced ID: every transaction at or below it is applied to
    /// the heap. Raised by the Reproduce step only, holding `replay`;
    /// nothing parks on it ([`crate::pipeline::wait_reproduced`] applies
    /// the run instead).
    pub(crate) reproduced: AtomicU64,
    pub(crate) stats: PipelineStats,
    pub(crate) trace: Trace,
    pub(crate) recovery: RecoveryTelemetry,
    /// Committed-TID high-water mark: what the sampler and the scrape
    /// endpoint, which cannot see the TM's commit clock, report as the
    /// Perform frontier. Advanced per commit only while sampling is on, on
    /// a line of its own.
    pub(crate) committed_tid: Padded,
}

/// A Perform-written cell, on a cache line of its own.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct Padded(pub(crate) AtomicU64);

impl Shared {
    /// The pipeline state for `config` over `layout`, with every watermark
    /// at `start_tid`.
    pub(crate) fn new(
        nvm: Arc<Nvm>,
        config: DudeTmConfig,
        layout: &NvmLayout,
        start_tid: u64,
        recovery: RecoveryTelemetry,
    ) -> Shared {
        let rings = layout
            .plogs
            .iter()
            .map(|&r| Arc::new(PlogRing::new(Arc::clone(&nvm), r)))
            .collect();
        let mut replay = Replay::default();
        replay.last_checkpoint = start_tid;
        let grouped = config.persist_group > 1;
        let redo: Vec<_> = (0..config.max_threads)
            .map(|_| Arc::new(RedoRing::new(config.durability)))
            .collect();
        let shared = Shared {
            nvm,
            config,
            meta: layout.meta,
            heap: layout.heap,
            rings,
            groups: Mutex::new(Sequencer::new(
                &redo[..if grouped { redo.len() } else { 0 }],
                start_tid,
            )),
            redo,
            order: Mutex::new(DenseReorder::starting_at(start_tid)),
            replay: Mutex::new(replay),
            durable: Watermark::default(),
            demand: Watermark::default(),
            reproduced: AtomicU64::new(start_tid),
            stats: PipelineStats::default(),
            trace: Trace::new(config.trace, config.persist_flush_workers),
            recovery,
            committed_tid: Padded(AtomicU64::new(start_tid)),
        };
        shared.durable.advance(start_tid);
        shared
    }
}

/// [`dude_stm::TxHooks`] implementation realizing Algorithm 2: `dtmWrite`
/// stages into a reused buffer, `dtmEnd` appends it to the thread's redo
/// ring with the commit timestamp, `dtmAbort` discards it (emitting an
/// abort marker if a timestamp was wasted).
#[derive(Debug)]
pub struct RedoHooks {
    staged: Vec<(u64, u64)>,
    ring: RedoProducer,
    /// `config.metrics.enabled`, copied so that a commit reads no line of
    /// `Shared` that the pipeline's threads write.
    sampling: bool,
    /// DudeTM-Sync (Perform and Persist merged): the committer is its own
    /// ring's Persist worker, or on a grouped runtime one of the grouped
    /// input's. Boxed, off the asynchronous commit's path.
    sync: Option<Box<Persist>>,
    shared: Arc<Shared>,
    shadow: Arc<ShadowMem>,
    /// Commit-history recorder for the durable-linearizability checker
    /// (`None` unless [`DudeTm::attach_history`] was called before this
    /// thread registered).
    history: Option<Arc<CommitHistory>>,
}

impl RedoHooks {
    /// Records `tid` — the staged writes, or an abort marker — and appends
    /// it to the thread's redo ring, leaving the staging buffer empty. A ring
    /// at its cap parks the committer until Reproduce frees space (§3.2's
    /// backpressure), counted as a stall, having demanded the newest TID it
    /// pushed: every record whose free it waits for is at or below it. Under
    /// `Sync` the committer then persists the record itself and returns
    /// once it is durable.
    fn deliver(&mut self, tid: u64, abort: bool) {
        // Sole per-commit metrics cost: one branch when sampling is off. A
        // wasted TID advances the commit clock too.
        if self.sampling {
            self.shared
                .committed_tid
                .0
                .fetch_max(tid, Ordering::Relaxed);
        }
        // A wasted TID is part of the commit order: its abort marker keeps
        // the history dense, so the prefix oracle can account for the hole.
        if let Some(h) = &self.history {
            h.record(tid, abort, &self.staged);
        }
        if !self.ring.try_push(tid, abort, &self.staged) {
            self.shared.trace.stall(|s| &s.perform_log_full);
            self.shared.demand.raise(self.ring.newest());
            self.ring.push(tid, abort, &self.staged);
        }
        self.staged.clear();
        if let Some(persist) = &mut self.sync {
            persist.run_inline(&self.shared, tid);
        }
    }
}

impl dude_stm::TxHooks for RedoHooks {
    fn on_write(&mut self, addr: u64, val: u64) {
        self.staged.push((addr, val));
    }

    fn on_commit(&mut self, tid: Option<u64>) {
        let Some(tid) = tid else {
            debug_assert!(self.staged.is_empty(), "read-only commit with writes");
            self.staged.clear();
            return;
        };
        // Touching IDs must be set while the written pages are still pinned
        // by the running view (§4.3).
        self.shadow.note_commit(tid, &self.staged);
        self.deliver(tid, false);
    }

    fn on_abort(&mut self, wasted_tid: Option<u64>) {
        self.staged.clear();
        let Some(tid) = wasted_tid else { return };
        self.deliver(tid, true);
    }
}

/// A durable, decoupled transaction runtime (the paper's system).
///
/// Generic over the TM engine `E` — [`dude_stm::Stm`] or
/// [`dude_htm::Htm`] — reflecting the paper's out-of-the-box-TM design.
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct DudeTm<E: TmEngine> {
    engine: E,
    shadow: Arc<ShadowMem>,
    shared: Arc<Shared>,
    metrics: Arc<MetricsRegistry>,
    /// Optional commit-history recorder handed to newly registered threads
    /// (see [`DudeTm::attach_history`]).
    history: Mutex<Option<Arc<CommitHistory>>>,
    next_slot: AtomicUsize,
    /// The Persist workers, until [`DudeTm::halt`] drains them.
    persist: Option<Vec<dude_nvm::thread::JoinHandle<()>>>,
    /// Stop signal + handle for the metrics sampler (`None` when metrics
    /// are disabled, or after shutdown).
    sampler: Option<(Sender<()>, dude_nvm::thread::JoinHandle<()>)>,
    name: &'static str,
}

impl<E: TmEngine> DudeTm<E> {
    /// Formats `nvm` and starts a fresh runtime with the given engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the device is too small.
    pub fn create_with(nvm: Arc<Nvm>, config: DudeTmConfig, engine: E) -> Self {
        config.validate();
        let layout =
            NvmLayout::compute(nvm.size_bytes(), &config).unwrap_or_else(|e| panic!("{e}"));
        // Wipe the log regions: a re-formatted device may still carry intact
        // records from a previous generation, and recovery (which trusts any
        // record it can checksum) must never see them alias this generation's
        // transaction IDs after a crash.
        wipe_logs(&nvm, &layout.plogs, &AtomicU64::new(0));
        nvm.fence();
        // Format the metadata block.
        nvm.write_word(layout.meta.start() + META_MAGIC_WORD * 8, META_MAGIC);
        nvm.write_word(layout.meta.start() + META_VERSION_WORD * 8, META_VERSION);
        nvm.write_word(layout.meta.start() + META_REPRODUCED * 8, 0);
        nvm.write_word(
            layout.meta.start() + META_THREADS * 8,
            config.max_threads as u64,
        );
        nvm.persist(layout.meta.start(), META_WORDS * 8);
        Self::start(nvm, config, engine, layout, 0, RecoveryTelemetry::default())
    }

    /// Starts a runtime over an already-recovered device. `start_tid` is the
    /// last reproduced transaction ID (see [`crate::recover_device`]).
    /// `recovery` carries the telemetry cells the recovery pass (if any)
    /// already incremented, so the exposition shows its final counts.
    pub(crate) fn start(
        nvm: Arc<Nvm>,
        config: DudeTmConfig,
        engine: E,
        layout: NvmLayout,
        start_tid: u64,
        recovery: RecoveryTelemetry,
    ) -> Self {
        let shared = Arc::new(Shared::new(
            Arc::clone(&nvm),
            config,
            &layout,
            start_tid,
            recovery,
        ));
        let shadow = Arc::new(ShadowMem::new(
            config.shadow,
            config.heap_bytes,
            Arc::clone(&nvm),
            layout.heap,
            {
                let shared = Arc::clone(&shared);
                move |touching| wait_reproduced(&shared, touching)
            },
        ));
        shadow.populate_from_nvm(&nvm, layout.heap);

        let mut persist = Vec::new();
        if config.durability != DurabilityMode::Sync {
            // Validation capped persist_flush_workers at max_threads, the
            // number of redo rings and of log rings.
            let n = config.persist_flush_workers;
            for w in 0..n {
                // Grouped, every worker takes the next group from the one
                // shared input and stages it into log ring `w`; ungrouped,
                // worker `w` reads redo rings `w, w + n, …`, staging each
                // record into its thread's log ring.
                let inputs = if config.persist_group > 1 {
                    Persist::new([(w, Source::Groups)])
                } else {
                    let rings = (w..config.max_threads).step_by(n);
                    Persist::new(
                        rings.map(|i| (i, Source::Ring(RedoCursor::new(i, &shared.redo[i])))),
                    )
                };
                let shared = Arc::clone(&shared);
                persist.push(dude_nvm::thread::spawn_named(
                    &format!("dude-persist-{w}"),
                    move || persist_worker(shared, w, inputs),
                ));
            }
        }
        // Continuous sampler: one frame per interval into the registry's
        // bounded ring. Runs through the `dude_nvm::thread` facade so it is
        // a deterministic task (with a virtual clock) under `--features
        // sim`; the stop channel doubles as the shutdown signal and the
        // worker captures one final frame on the way out so the series
        // always ends at the drained state.
        let metrics = Arc::new(MetricsRegistry::new(Arc::clone(&shared)));
        let sampler = if config.metrics.enabled {
            let (stop_tx, stop_rx) = bounded::<()>(1);
            let metrics = Arc::clone(&metrics);
            let interval = config.metrics.sample_interval.max(Duration::from_millis(1));
            let handle = dude_nvm::thread::spawn_named("dude-metrics", move || loop {
                match stop_rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => metrics.sample(),
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                        metrics.sample();
                        break;
                    }
                }
            });
            Some((stop_tx, handle))
        } else {
            None
        };

        DudeTm {
            engine,
            shadow,
            shared,
            metrics,
            history: Mutex::new(None),
            next_slot: AtomicUsize::new(0),
            persist: Some(persist),
            sampler,
            name: match config.durability {
                DurabilityMode::Async { .. } => "DudeTM",
                DurabilityMode::AsyncUnbounded => "DudeTM-Inf",
                DurabilityMode::Sync => "DudeTM-Sync",
            },
        }
    }

    /// The underlying emulated NVM device.
    pub fn nvm(&self) -> &Arc<Nvm> {
        &self.shared.nvm
    }

    /// The TM engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The heap region of the device (for building application layouts).
    pub fn heap_region(&self) -> Region {
        self.shared.heap
    }

    /// The global durable transaction ID: every transaction with an ID at or
    /// below this is persistent (§3.3).
    pub fn durable_id(&self) -> u64 {
        self.shared.durable.get()
    }

    /// The reproduced ID: every transaction at or below this has been
    /// applied to the persistent heap image.
    pub fn reproduced_id(&self) -> u64 {
        self.shared.reproduced.load(Ordering::SeqCst)
    }

    /// Pipeline statistics.
    pub fn pipeline_stats(&self) -> PipelineStatsSnapshot {
        counters(&self.shared)
    }

    /// The observability layer: stage-latency histograms and stall
    /// counters (see [`crate::trace`]), exported through [`DudeTm::metrics`].
    /// Always present; records nothing unless [`DudeTmConfig::trace`]
    /// enables it.
    pub fn trace(&self) -> &Trace {
        &self.shared.trace
    }

    /// The metrics registry: catalog snapshots and the Prometheus
    /// exposition on demand, plus the sampled time series (see
    /// [`crate::metrics`]). Always present; the background sampler only
    /// runs when [`DudeTmConfig::metrics`] enables it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Captures one [`MetricsFrame`](crate::MetricsFrame) immediately,
    /// outside the sampler's cadence. No-op when metrics are disabled. Call
    /// after [`DudeTm::quiesce`] to make the series end on exact final
    /// values.
    pub fn sample_metrics_now(&self) {
        if self.metrics.enabled() {
            self.metrics.sample();
        }
    }

    /// Point-in-time view of the whole pipeline: the per-stage counters
    /// plus the committed/durable/reproduced watermarks and per-ring log
    /// occupancy. The watermarks are sampled independently (racily) — use
    /// after [`DudeTm::quiesce`] for exact values, or live to observe lag.
    pub fn stats_snapshot(&self) -> PipelineSnapshot {
        snapshot(&self.shared, self.engine.clock_now())
    }

    /// Shadow paging statistics.
    pub fn shadow_stats(&self) -> crate::shadow::ShadowStats {
        self.shadow.stats()
    }

    /// Attaches a commit-history recorder: every transaction committed (or
    /// TID-wasting abort) by threads registered *after* this call is
    /// recorded into `history` for the durable-linearizability checker
    /// ([`crate::check`]). Threads registered before the call keep running
    /// unrecorded — attach before [`DudeTm::register_thread`] for a
    /// complete history.
    pub fn attach_history(&self, history: Arc<CommitHistory>) {
        *self.history.lock() = Some(history);
    }

    /// Blocks until every transaction committed so far is both durable and
    /// reproduced, applying the pending Reproduce run once it holds them.
    /// Call only when no transactions are concurrently committing.
    pub fn quiesce(&self) {
        wait_reproduced(&self.shared, self.engine.clock_now());
    }

    /// Drains and stops the pipeline, performing a final checkpoint.
    ///
    /// Dropping the runtime does this automatically; `shutdown` exists for
    /// callers that want the drain to happen at a deterministic point. All
    /// [`DtmThread`]s must be dropped first (enforced by the borrow
    /// checker, since they borrow the runtime).
    pub fn shutdown(&mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        // Every Perform thread is gone (they borrow the runtime).
        for ring in &self.shared.redo {
            ring.close();
        }
        if let Some(persist) = self.persist.take() {
            // The Persist workers drain their inputs and publish the rest;
            // then nothing publishes, and the Reproduce step can drain.
            for handle in persist {
                let _ = handle.join();
            }
            drain(&self.shared);
        }
        // Stop the sampler only after the pipeline workers have drained:
        // its shutdown frame then reconciles exactly with the final
        // snapshot instead of racing the last checkpoint.
        if let Some((stop, handle)) = self.sampler.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
    }
}

impl<E: TmEngine> Drop for DudeTm<E> {
    fn drop(&mut self) {
        self.halt();
    }
}

impl<E: TmEngine> TxnSystem for DudeTm<E> {
    type Thread<'a>
        = DtmThread<'a, E>
    where
        Self: 'a;

    fn register_thread(&self) -> DtmThread<'_, E> {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < self.shared.config.max_threads,
            "more threads registered than DudeTmConfig::max_threads ({})",
            self.shared.config.max_threads
        );
        let ring = &self.shared.redo[slot];
        let sync = (self.shared.config.durability == DurabilityMode::Sync).then(|| {
            let source = match self.shared.config.persist_group {
                1 => Source::Ring(RedoCursor::new(slot, ring)),
                _ => Source::Groups,
            };
            Box::new(Persist::new([(slot, source)]))
        });
        DtmThread {
            dude: self,
            heap_bytes: self.shared.config.heap_bytes,
            traced: self.shared.trace.enabled(),
            engine_thread: self.engine.engine_thread(),
            hooks: RedoHooks {
                staged: Vec::new(),
                ring: RedoProducer::new(ring),
                sampling: self.shared.config.metrics.enabled,
                sync,
                shared: Arc::clone(&self.shared),
                shadow: Arc::clone(&self.shadow),
                history: self.history.lock().clone(),
            },
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn heap_words(&self) -> u64 {
        self.shared.config.heap_bytes / 8
    }

    fn quiesce(&self) {
        DudeTm::quiesce(self);
    }
}

/// A registered Perform thread (the paper's `dtmBegin`/`dtmEnd` scope).
pub struct DtmThread<'d, E: TmEngine> {
    dude: &'d DudeTm<E>,
    engine_thread: E::Thread<'d>,
    hooks: RedoHooks,
    /// `config.heap_bytes` and `config.trace.enabled`, copied so that a
    /// transaction reads no line of `Shared` that the pipeline's threads
    /// write.
    heap_bytes: u64,
    traced: bool,
}

impl<E: TmEngine> std::fmt::Debug for DtmThread<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DtmThread").finish_non_exhaustive()
    }
}

impl<'d, E: TmEngine> DtmThread<'d, E> {
    /// Runs a durable transaction; see [`TxnThread::run`].
    pub fn run_txn<T>(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>,
    ) -> TxnOutcome<T> {
        let heap_bytes = self.heap_bytes;
        // Commit latency is wall time from first attempt to commit
        // acknowledgement on this thread — retried aborts of the same
        // transaction are inside the window, exactly what the application
        // experiences. Clock reads are skipped entirely when tracing is off.
        let start_ns = if self.traced {
            dude_nvm::monotonic_ns()
        } else {
            0
        };
        let view = self.dude.shadow.view();
        let outcome = self.engine_thread.run_txn(&view, &mut self.hooks, |acc| {
            body(&mut HeapTxn::new(acc, heap_bytes))
        });
        if self.traced && matches!(outcome, TxnOutcome::Committed { .. }) {
            let dur = dude_nvm::monotonic_ns().saturating_sub(start_ns);
            self.dude.shared.trace.commit_latency_ns.record(dur);
        }
        outcome
    }
}

impl<E: TmEngine> TxnThread for DtmThread<'_, E> {
    fn run<T>(&mut self, body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<T>) -> TxnOutcome<T> {
        self.run_txn(body)
    }

    fn wait_durable(&mut self, tid: u64) {
        wait_durable(&self.dude.shared, tid);
    }

    fn durable_watermark(&self) -> u64 {
        self.dude.durable_id()
    }
}

/// Convenience: user aborts (paper's `dtmAbort`).
pub fn dtm_abort<T>() -> TxResult<T> {
    Err(TxAbort::User)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dude_nvm::NvmConfig;
    use dude_txapi::PAddr;
    use std::mem::{offset_of, size_of};
    use std::ops::Range;

    /// The 64-byte lines `len` bytes at `offset` span.
    fn lines(offset: usize, len: usize) -> Range<usize> {
        offset / 64..(offset + len).div_ceil(64)
    }

    /// No line of `Shared` holds both a cell a Perform thread writes on
    /// every commit and one that a Persist worker or the Reproduce step
    /// writes on every record or run, so a commit never waits for a line
    /// the pipeline just wrote (`Shared` is 64-byte aligned: its
    /// `Watermark`s are). A commit reads nothing else of `Shared`:
    /// `DtmThread` and `RedoHooks` copy the flags it needs, and the
    /// `commits` count lives in the redo ring's producer line.
    #[test]
    fn perform_cells_share_no_line_with_pipeline_cells() {
        assert_eq!(std::mem::align_of::<Shared>() % 64, 0);
        let trace = offset_of!(Shared, trace);
        let hist = size_of::<crate::trace::LatencyHistogram>();
        let perform = [
            (
                "committed_tid",
                lines(offset_of!(Shared, committed_tid), size_of::<Padded>()),
            ),
            (
                "trace.commit_latency_ns",
                lines(trace + offset_of!(Trace, commit_latency_ns), hist),
            ),
        ];
        let pipeline = [
            (
                "durable",
                lines(offset_of!(Shared, durable), size_of::<Watermark>()),
            ),
            ("reproduced", lines(offset_of!(Shared, reproduced), 8)),
            (
                "stats",
                lines(offset_of!(Shared, stats), size_of::<PipelineStats>()),
            ),
            (
                "order",
                lines(
                    offset_of!(Shared, order),
                    size_of::<Mutex<DenseReorder<Batch>>>(),
                ),
            ),
            (
                "replay",
                lines(offset_of!(Shared, replay), size_of::<Mutex<Replay>>()),
            ),
            (
                "groups",
                lines(offset_of!(Shared, groups), size_of::<Mutex<Sequencer>>()),
            ),
            (
                "trace.persist_barrier_ns",
                lines(trace + offset_of!(Trace, persist_barrier_ns), hist),
            ),
            (
                "trace.group_flush_bytes",
                lines(trace + offset_of!(Trace, group_flush_bytes), hist),
            ),
            (
                "trace.combine_ns",
                lines(trace + offset_of!(Trace, combine_ns), hist),
            ),
            (
                "trace.replay_apply_ns",
                lines(trace + offset_of!(Trace, replay_apply_ns), hist),
            ),
        ];
        for (p, pl) in &perform {
            for (q, ql) in &pipeline {
                assert!(
                    pl.end <= ql.start || ql.end <= pl.start,
                    "`{p}` (lines {pl:?}) shares a line with `{q}` (lines {ql:?})"
                );
            }
        }
    }

    /// A `Sync` commit goes through its thread's redo ring like any other:
    /// the committer persists it, the pending run holds it, and its record
    /// stays unfreed until the run is applied.
    #[test]
    fn sync_commits_hold_ring_records_until_reproduced() {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
        let config = DudeTmConfig::small(1 << 16).with_durability(DurabilityMode::Sync);
        let dude = DudeTm::create_stm(nvm, config);
        let k = config.checkpoint_every - 1;
        let mut t = dude.register_thread();
        for i in 0..k {
            t.run(&mut |tx| tx.write_word(PAddr::from_word_index(i), i + 1))
                .expect_committed();
        }
        drop(t);
        let ring = &dude.shared.redo[0];
        assert_eq!(dude.durable_id(), k, "each commit persisted itself");
        assert_eq!(ring.unfreed(), k);
        assert_eq!(dude.reproduced_id(), 0, "the run is still pending");
        dude.quiesce();
        assert_eq!(dude.reproduced_id(), k);
        assert_eq!(ring.unfreed(), 0);
    }
}
