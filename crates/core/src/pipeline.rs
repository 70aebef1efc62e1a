//! The Persist and Reproduce background stages (§3.3, §3.4) — one
//! topology whose degenerate settings are the simple case:
//!
//! ```text
//! Perform → [sequencer iff persist_group > 1] → worker × N → Reproduce [→ shard × M]
//! ```
//!
//! *Persist* drains per-thread volatile redo logs, writes them to the
//! persistent log rings, and publishes them in dense transaction-ID order.
//! Work reaches the `persist_flush_workers` workers as [`Sealed`]
//! units, each last-writer-wins combined as it is sealed. With
//! `persist_group = 1` every record is its own unit — **a commit is a group
//! of one** — and the per-thread channels are partitioned across the
//! workers. With
//! `persist_group > 1` a *sequencer* sits in front: it merges all threads'
//! records into dense global ID order and seals groups of consecutive
//! transactions — the precondition that keeps *cross-transaction log
//! combination* (and compression) safe (§3.3, Figure 3) — and deals them
//! round-robin, so worker `w` has exactly one input and appends to ring
//! `w`. Either way the same [`persist_worker`] runs one [`Sweep`] per pass
//! over its inputs: it stages units, flushes each ring's appended range,
//! fences once, and hands every batch to [`publish`] — **out of commit
//! order** across workers (§3.3), never waiting on another worker.
//!
//! Dense order is established once per leg, in one structure
//! ([`DenseReorder`]): at the sequencer iff grouped, and at [`publish`]
//! always. `publish` parks a fenced batch in `Shared::order` until nothing
//! is missing in front of it, then — under the same lock — advances the
//! durable ID over it and forwards it, so the durable ID only ever covers
//! the contiguous fenced prefix and the Persist→Reproduce channel carries
//! batches in dense ID order. Each ring's append order equals ID order,
//! which is what lets Reproduce recycle spans FIFO.
//!
//! *Reproduce* receives each persisted unit's *volatile copy* through that
//! channel (the paper's "keep the redo log in the volatile region"
//! optimization — without a crash, nothing is ever read back from NVM),
//! applies the writes to the persistent heap, periodically checkpoints the
//! reproduced ID, and only then recycles log space. With `reproduce_threads > 1` the applying is
//! fanned out to `M` *shard workers* by heap shard ([`crate::frontier`]);
//! each applies its shard's writes, fences, and publishes its completed
//! TID. Every heap store goes through [`apply_writes`], which flushes each
//! dirty cache line once per batch (per fenced run in a shard worker). The
//! checkpoint — and therefore log recycling — always keys off the minimum
//! completed TID across shards; one shard is the degenerate case.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use dude_nvm::{Nvm, Region, CACHE_LINE};

use crate::frontier::split_writes;
use crate::log::{
    combine_sorted, serialize_abort, serialize_commit, serialize_group, Combiner, LogRecord,
};
use crate::plog::PlogSpan;
use crate::runtime::Shared;
use crate::seqtrack::DenseReorder;
use crate::trace::{Stage, TraceEventKind};

/// A persisted unit handed from Persist to Reproduce.
#[derive(Debug)]
pub(crate) struct Batch {
    pub first_tid: u64,
    pub last_tid: u64,
    /// Writes to replay (combined when grouping is on; empty for aborts).
    pub writes: Vec<(u64, u64)>,
    /// Log span to recycle once the covering checkpoint is durable, and the
    /// ring it sits in.
    pub ring: usize,
    pub span: PlogSpan,
}

/// One sealed group of consecutive-TID records, handed from the sequencer
/// to a Persist worker.
#[derive(Debug)]
pub(crate) struct GroupWork(pub Vec<LogRecord>);

/// Which on-NVM record a [`Sealed`] unit becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SealedKind {
    Commit,
    Abort,
    Group,
}

/// One unit of Persist work: the TIDs it covers and the combined writes —
/// distinct addresses — to log and replay for them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Sealed {
    first_tid: u64,
    last_tid: u64,
    writes: Vec<(u64, u64)>,
    /// Transactional writes the unit covers, before combination (Table 1's
    /// "# writes" and the Figure 3 combination accounting).
    entries_before: usize,
    kind: SealedKind,
}

/// What a Persist worker's inputs carry: work that becomes one [`Sealed`]
/// unit, combined — once, on the thread that will stage it — with that
/// thread's scratch table.
pub(crate) trait Seal {
    fn seal(self, combiner: &mut Combiner) -> Sealed;
}

impl Seal for LogRecord {
    /// A commit is a group of one: a word it wrote twice is logged, handed
    /// to Reproduce and replayed once, with its last value.
    fn seal(self, combiner: &mut Combiner) -> Sealed {
        let (tid, mut writes, kind) = match self {
            LogRecord::Commit { tid, writes } => (tid, writes, SealedKind::Commit),
            LogRecord::Abort { tid } => (tid, Vec::new(), SealedKind::Abort),
        };
        let entries_before = writes.len();
        combiner.dedup(&mut writes);
        Sealed {
            first_tid: tid,
            last_tid: tid,
            writes,
            entries_before,
            kind,
        }
    }
}

impl Seal for GroupWork {
    fn seal(self, _: &mut Combiner) -> Sealed {
        let GroupWork(records) = self;
        Sealed {
            first_tid: records.first().expect("non-empty group").tid(),
            last_tid: records.last().expect("non-empty group").tid(),
            entries_before: records.iter().map(|r| r.writes().len()).sum(),
            kind: SealedKind::Group,
            writes: combine_sorted(&records),
        }
    }
}

/// Serializes `unit` and stores it in `ring_idx` — not flushed, not fenced;
/// returns the batch to [`publish`] once its span has been flushed and the
/// covering fence issued, or
/// gives the unit back when the ring has no space (a worker parks it and
/// keeps serving its other rings — blocking there would deadlock the
/// pipeline).
pub(crate) fn try_stage(
    shared: &Shared,
    ring_idx: usize,
    unit: Sealed,
    buf: &mut Vec<u64>,
) -> Result<Batch, Sealed> {
    // (raw, stored) payload bytes — the Figure 3 accounting, groups only.
    let (raw, stored) = match unit.kind {
        SealedKind::Commit => {
            serialize_commit(unit.first_tid, &unit.writes, buf);
            (0, 0)
        }
        SealedKind::Abort => {
            serialize_abort(unit.first_tid, buf);
            (0, 0)
        }
        SealedKind::Group => serialize_group(
            unit.first_tid,
            unit.last_tid,
            &unit.writes,
            shared.config.compress_groups,
            buf,
        ),
    };
    let Some(span) = shared.rings[ring_idx].try_append_unflushed(buf) else {
        // Persist is blocked on log space Reproduce has not recycled yet —
        // the stall the bounded NVM log ring exists to make visible.
        shared.trace.stall(|s| &s.persist_ring_full);
        return Err(unit);
    };
    let stats = &shared.stats;
    let add = |cell: &AtomicU64, n: usize| {
        cell.fetch_add(n as u64, Ordering::Relaxed);
    };
    add(&stats.entries_logged, unit.entries_before);
    add(&stats.entries_after_combine, unit.writes.len());
    match unit.kind {
        SealedKind::Group => {
            add(&stats.group_bytes_raw, raw);
            add(&stats.group_bytes_stored, stored);
            add(&stats.groups_persisted, 1);
            if shared.trace.enabled() {
                shared.trace.group_flush_bytes.record(stored as u64);
                shared.trace.event(
                    Stage::Persist,
                    TraceEventKind::GroupFlush,
                    unit.last_tid,
                    stored as u64,
                    0,
                );
            }
        }
        SealedKind::Commit | SealedKind::Abort => add(&stats.records_persisted, 1),
    }
    stats
        .log_bytes_flushed
        .fetch_add(span.words * 8, Ordering::Relaxed);
    Ok(Batch {
        first_tid: unit.first_tid,
        last_tid: unit.last_tid,
        writes: unit.writes,
        ring: ring_idx,
        span,
    })
}

/// Announces a staged batch whose covering fence has returned: parks it in
/// the order buffer, then advances the durable ID over — and hands to
/// Reproduce — every batch that now has no gap in front of it.
///
/// All under the one lock, so the durable ID never covers a TID whose unit
/// (or any earlier unit) is not yet fenced, and the channel carries batches
/// in dense TID order. No caller ever waits on another: a batch behind a gap
/// stays parked and whoever fills the gap forwards it.
pub(crate) fn publish(shared: &Shared, out: &Sender<Batch>, batch: Batch) {
    let mut order = shared.order.lock();
    order.push(batch.first_tid, batch.last_tid, batch);
    while let Some((_, last, batch)) = order.pop() {
        shared.durable.store(last, Ordering::Release);
        // Reproduce may have exited during shutdown teardown; the batch is
        // persisted regardless.
        let _ = out.send(batch);
    }
}

/// One pass of Persist work: units staged into rings, then covered by one
/// flush per ring and one fence, then published. The only code that flushes
/// log ranges and issues Persist's barrier — a Persist worker runs one per
/// pass over its inputs, a `Sync` client one per transaction.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    buf: Vec<u64>,
    combiner: Combiner,
    staged: Vec<Batch>,
}

impl Sweep {
    /// Seals `work` with this sweep's scratch table.
    pub(crate) fn seal(&mut self, work: impl Seal) -> Sealed {
        work.seal(&mut self.combiner)
    }

    /// Stages `unit` into `ring_idx` ([`try_stage`]); a full ring gives it
    /// back.
    pub(crate) fn stage(
        &mut self,
        shared: &Shared,
        ring_idx: usize,
        unit: Sealed,
    ) -> Result<(), Sealed> {
        let batch = try_stage(shared, ring_idx, unit, &mut self.buf)?;
        self.staged.push(batch);
        Ok(())
    }

    /// Makes everything staged durable and publishes it. `worker` names the
    /// Persist worker whose `flush_worker_ns` series shares the fence
    /// sample (`None` inline under `Sync`).
    pub(crate) fn finish(&mut self, shared: &Shared, worker: Option<usize>, out: &Sender<Batch>) {
        if self.staged.is_empty() {
            return;
        }
        // One flush over everything the sweep appended to each ring:
        // records that share a cache line share its flush.
        for run in self.staged.chunk_by(|a, b| a.ring == b.ring) {
            let (head, tail) = (&run[0], &run[run.len() - 1]);
            shared.rings[head.ring].flush_range(head.span.start, tail.span.end());
        }
        // One ordering barrier covers the whole sweep (batched persist,
        // §3.3); its modeled cost covers all flushed bytes. The sabotage
        // gate exists only in sim builds: dropping this fence is the
        // injected ordering bug the schedule fuzzer must catch (a
        // planned crash then loses units whose durability was already
        // announced).
        #[cfg(feature = "sim")]
        let fence_skipped = crate::sabotage::skip_group_fence();
        #[cfg(not(feature = "sim"))]
        let fence_skipped = false;
        let tracing = shared.trace.enabled();
        let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
        if !fence_skipped {
            shared.nvm.fence();
        }
        if tracing {
            let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
            shared.trace.persist_barrier_ns.record(dur);
            if let Some(worker) = worker {
                shared.trace.flush_worker_ns[worker].record(dur);
            }
            let bytes: u64 = self.staged.iter().map(|b| b.span.words * 8).sum();
            let last_tid = self.staged.iter().map(|b| b.last_tid).max().unwrap_or(0);
            shared.trace.event(
                Stage::Persist,
                TraceEventKind::PersistBarrier,
                last_tid,
                bytes,
                dur,
            );
        }
        for batch in self.staged.drain(..) {
            publish(shared, out, batch);
        }
    }
}

/// A Persist worker: drains its inputs in any order, stages each unit into
/// the input's ring, and covers every pass with one [`Sweep`].
///
/// The ungrouped pipeline partitions the per-thread record channels across
/// workers; the grouped pipeline gives worker `w` one input, the
/// sequencer's channel `w`, staged into ring `w`. A full ring parks the
/// unit with a bounded sleep per probe — counted as a `persist_ring_full`
/// stall — never a busy-spin: the space it waits for appears as soon as
/// Reproduce's idle-tick checkpoint recycles the spans ahead of it, all of
/// which were fenced and published by the sweep that staged them.
pub(crate) fn persist_worker<U: Seal>(
    shared: Arc<Shared>,
    worker: usize,
    inputs: Vec<(usize, Receiver<U>)>,
    out: Sender<Batch>,
) {
    dude_nvm::set_background_stage(true);
    let mut sweep = Sweep::default();
    let mut done = vec![false; inputs.len()];
    // Units whose ring was full — retried next sweep while the other
    // channels keep flowing (never block on one ring: deadlock).
    let mut parked: Vec<Option<Sealed>> = (0..inputs.len()).map(|_| None).collect();
    loop {
        let mut progress = false;
        for (i, (ring_idx, rx)) in inputs.iter().enumerate() {
            // Bounded drain per sweep so one busy thread cannot starve the
            // rest; a parked unit goes first, keeping the ring's order.
            for _ in 0..64 {
                let unit = match parked[i].take() {
                    Some(unit) => unit,
                    None if done[i] => break,
                    None => match rx.try_recv() {
                        Ok(unit) => sweep.seal(unit),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            done[i] = true;
                            break;
                        }
                    },
                };
                match sweep.stage(&shared, *ring_idx, unit) {
                    Ok(()) => progress = true,
                    Err(unit) => {
                        parked[i] = Some(unit); // ring full: retry next sweep
                        break;
                    }
                }
            }
        }
        sweep.finish(&shared, Some(worker), &out);
        if done.iter().all(|&d| d) && parked.iter().all(|p| p.is_none()) {
            return;
        }
        if !progress {
            dude_nvm::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// The grouped-Persist sequencer: merges all per-thread channels into
/// dense global transaction-ID order, seals groups of `group` consecutive
/// transactions, and deals them round-robin to the Persist workers.
///
/// The sequencer never touches NVM, so it can never park on a full ring;
/// the hold timer below therefore always re-arms on time and a partial
/// group is dispatched at most once per quiet period. Round-robin
/// assignment is load-bearing for span recycling: worker `w` receives
/// groups `w, w + N, …` and appends them to *its own* ring in that order,
/// so each ring's append order equals dense TID order — exactly the order
/// Reproduce releases spans in ([`crate::plog::PlogRing::release`] panics
/// otherwise).
pub(crate) fn persist_sequencer(
    shared: Arc<Shared>,
    inputs: Vec<Receiver<LogRecord>>,
    worker_txs: Vec<Sender<GroupWork>>,
    group: usize,
) {
    dude_nvm::set_background_stage(true);
    let workers = worker_txs.len();
    // Each per-thread channel is TID-ascending only per thread.
    let mut reorder = DenseReorder::starting_at(shared.durable.load(Ordering::Acquire));
    let mut done = vec![false; inputs.len()];
    let mut current: Vec<LogRecord> = Vec::new();
    // Groups dispatched so far; picks the next worker.
    let mut next_seq = 0usize;
    // Hold-timer arithmetic runs on the shared monotonic clock (virtual
    // under sim), not `Instant`, so the latency bound is deterministic in
    // schedule-exploration runs and unchanged natively.
    let mut last_flush = dude_nvm::monotonic_ns();
    // Dispatch a partial group after this much quiet time (latency bound).
    let max_hold_ns = Duration::from_millis(2).as_nanos() as u64;

    let dispatch = |current: &mut Vec<LogRecord>, next_seq: &mut usize| {
        if current.is_empty() {
            return;
        }
        let records = std::mem::take(current);
        if shared.trace.enabled() {
            let entries: u64 = records.iter().map(|r| r.writes().len() as u64).sum();
            let last = records.last().expect("non-empty group").tid();
            shared.trace.event(
                Stage::Persist,
                TraceEventKind::GroupDispatch,
                last,
                8 * entries,
                0,
            );
        }
        // A worker only exits after draining its channel, so a send can
        // fail only during teardown-after-panic.
        let _ = worker_txs[*next_seq % workers].send(GroupWork(records));
        *next_seq += 1;
    };

    loop {
        let mut progress = false;
        for (i, rx) in inputs.iter().enumerate() {
            if done[i] {
                continue;
            }
            for _ in 0..64 {
                match rx.try_recv() {
                    Ok(rec) => {
                        progress = true;
                        reorder.push(rec.tid(), rec.tid(), rec);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done[i] = true;
                        break;
                    }
                }
            }
        }
        // Move dense-prefix records into the current group.
        while let Some((_, _, rec)) = reorder.pop() {
            // `last_flush` is really "when the current group started": a
            // stale value from an idle period would make the hold timer
            // expire immediately and dispatch a group of one, so restart it
            // when the group goes empty → non-empty.
            if current.is_empty() {
                last_flush = dude_nvm::monotonic_ns();
            }
            current.push(rec);
            if current.len() >= group {
                dispatch(&mut current, &mut next_seq);
                last_flush = dude_nvm::monotonic_ns();
            }
        }
        let all_done = done.iter().all(|&d| d);
        if all_done && reorder.pending_len() == 0 {
            dispatch(&mut current, &mut next_seq);
            // Returning drops `worker_txs`: the workers drain their
            // queues and exit, taking the last `Batch` senders with them.
            return;
        }
        if !current.is_empty() && dude_nvm::monotonic_ns().saturating_sub(last_flush) > max_hold_ns
        {
            dispatch(&mut current, &mut next_seq);
            last_flush = dude_nvm::monotonic_ns();
        }
        if !progress {
            if all_done {
                // Channels are closed but the reorder buffer has a gap: a
                // transaction ID was allocated and never logged. This is a
                // protocol violation upstream.
                panic!(
                    "persist(grouped): tid {} missing with inputs closed \
                     ({} stashed)",
                    reorder.complete() + 1,
                    reorder.pending_len()
                );
            }
            // Idle with records stashed beyond a TID gap: the sequencer is
            // waiting on one slow Perform thread — the grouped pipeline's
            // head-of-line stall, counted per tick like the others.
            if reorder.pending_len() > 0 {
                shared.trace.stall(|s| &s.persist_seq_wait);
            }
            dude_nvm::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// One dense batch's writes for one shard. Sent to every shard worker for
/// every batch — an empty write set still advances the shard's frontier,
/// otherwise an untouched shard would pin the minimum forever.
#[derive(Debug)]
pub(crate) struct ShardWork {
    pub last_tid: u64,
    pub writes: Vec<(u64, u64)>,
}

/// The Reproduce stage (§3.4): replays batches — which [`publish`] forwards
/// in dense transaction-ID order — onto the persistent heap, checkpoints at
/// the minimum completed-TID frontier, and recycles log space.
///
/// With shard workers (`reproduce_threads > 1`) it splits each batch's
/// writes by heap shard and fans them out, never touching the heap itself.
/// With none it is the one shard: it applies each batch in place and
/// publishes frontier slot 0 without a fence of its own — the checkpoint
/// below runs on this same thread, and its fence covers those flushes.
///
/// Either way this is the only writer of the checkpoint word and the only
/// thread that recycles log spans. A span is released only once the
/// checkpoint covering its last TID — which by the frontier minimum is
/// applied *and durable on every shard* — is durable.
pub(crate) fn reproduce_stage(
    shared: Arc<Shared>,
    rx: Receiver<Batch>,
    shard_txs: Vec<Sender<ShardWork>>,
) {
    let _bg = dude_nvm::background_stage_scope();
    let shards = shard_txs.len();
    let mut dirty = DirtyLines::default();
    let start = shared.reproduced.load(Ordering::Acquire);
    // Last TID dispatched to the heap (or the shard workers).
    let mut dispatched = start;
    // Spans awaiting a covering checkpoint, FIFO in dispatch (= TID) order.
    let mut pending_release: VecDeque<(u64, usize, PlogSpan)> = VecDeque::new();
    let mut watermark = start;
    let mut last_checkpoint = start;
    loop {
        let mut idle = false;
        // One batch per pass, so the watermark and the cadence checkpoint
        // see every batch boundary: a filled gap forwards a long dense run
        // at once, and a Persist worker may be parked on the space the
        // head of that run recycles.
        let disconnected = match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(batch) => {
                // Replaying past a gap would checkpoint — and recycle the
                // log of — transactions the heap never saw.
                assert!(
                    batch.first_tid == dispatched + 1,
                    "reproduce: batch {}..={} forwarded after tid {dispatched}",
                    batch.first_tid,
                    batch.last_tid
                );
                if shards == 0 {
                    apply_in_place(&shared, &batch, &mut dirty);
                } else {
                    let split = split_writes(&batch.writes, shards);
                    for (s, writes) in split.into_iter().enumerate() {
                        // A worker only exits after draining its channel,
                        // so a send can fail only during teardown-after-
                        // panic; the frontier wait below would surface that.
                        let _ = shard_txs[s].send(ShardWork {
                            last_tid: batch.last_tid,
                            writes,
                        });
                    }
                }
                pending_release.push_back((batch.last_tid, batch.ring, batch.span));
                dispatched = batch.last_tid;
                false
            }
            Err(RecvTimeoutError::Timeout) => {
                idle = true;
                // Starved = idling with nothing even parked behind a gap:
                // replay has caught up with the Persist stage entirely.
                // (`enabled` here spares the untraced idle tick the lock.)
                if shared.trace.enabled() && shared.order.lock().pending_len() == 0 {
                    shared.trace.stall(|s| &s.reproduce_starved);
                }
                false
            }
            Err(RecvTimeoutError::Disconnected) => true,
        };
        // Publish the global watermark: the slowest shard's completed
        // TID. It gates paged-shadow swap-ins (§4.3).
        let f = shared.frontier.min_completed();
        if f > watermark {
            shared
                .stats
                .txns_reproduced
                .fetch_add(f - watermark, Ordering::Relaxed);
            watermark = f;
            shared.reproduced.store(f, Ordering::Release);
        }
        // On cadence — or on an idle tick with work applied but not yet
        // checkpointed, so the covered log spans are recycled promptly
        // (a Persist worker may be waiting for exactly that space).
        if f - last_checkpoint >= shared.config.checkpoint_every || (idle && f > last_checkpoint) {
            checkpoint(&shared, f, &mut pending_release);
            last_checkpoint = f;
        }
        if disconnected {
            let order = shared.order.lock();
            assert!(
                order.pending_len() == 0,
                "reproduce: tid {} missing with pipeline closed ({} batches parked behind it)",
                order.complete() + 1,
                order.pending_len()
            );
            break;
        }
    }
    // Drain: close the shard channels, wait for every shard to finish all
    // dispatched work, then take the final checkpoint.
    drop(shard_txs);
    let target = dispatched;
    while shared.frontier.min_completed() < target {
        // Each yield is one tick of the final checkpoint waiting on the
        // slowest shard — the drain-time cost of frontier skew.
        shared.trace.stall(|s| &s.checkpoint_wait);
        dude_nvm::thread::yield_now();
    }
    if target > watermark {
        shared
            .stats
            .txns_reproduced
            .fetch_add(target - watermark, Ordering::Relaxed);
        shared.reproduced.store(target, Ordering::Release);
    }
    checkpoint(&shared, target, &mut pending_release);
    debug_assert!(pending_release.is_empty(), "spans beyond the last batch");
}

/// Scratch of [`apply_writes`]: the cache lines one call dirtied.
#[derive(Debug, Default)]
pub(crate) struct DirtyLines {
    /// `(line number, 0)` — pairs, so the one combining routine makes them
    /// distinct.
    lines: Vec<(u64, u64)>,
    combiner: Combiner,
}

/// Stores `writes` into the heap, then flushes each cache line they dirtied
/// **once** — no fence. The only place heap words are stored and flushed:
/// the one-shard Reproduce stage calls it per batch, a shard worker per
/// fenced run, recovery per record. Returns the words stored.
pub(crate) fn apply_writes<'a>(
    nvm: &Nvm,
    heap: Region,
    writes: impl IntoIterator<Item = &'a (u64, u64)>,
    dirty: &mut DirtyLines,
) -> u64 {
    dirty.lines.clear();
    let mut words = 0;
    for &(addr, val) in writes {
        let off = heap.start() + addr;
        nvm.write_word(off, val);
        words += 1;
        // Neighbouring writes mostly share a line: test the previous one
        // before paying for the table.
        let line = off / CACHE_LINE;
        if dirty.lines.last().map(|l| l.0) != Some(line) {
            dirty.lines.push((line, 0));
        }
    }
    dirty.combiner.dedup(&mut dirty.lines);
    for &(line, _) in &dirty.lines {
        nvm.flush(line * CACHE_LINE, CACHE_LINE);
    }
    words
}

/// [`reproduce_stage`] as its own single shard: applies one batch to the
/// heap and publishes it as frontier slot 0.
fn apply_in_place(shared: &Shared, batch: &Batch, dirty: &mut DirtyLines) {
    let tracing = shared.trace.enabled();
    let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
    let words = apply_writes(&shared.nvm, shared.heap, &batch.writes, dirty);
    if tracing {
        let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
        shared.trace.replay_apply_ns[0].record(dur);
        shared.trace.event(
            Stage::Reproduce,
            TraceEventKind::ReplayApply,
            batch.last_tid,
            8 * words,
            dur,
        );
    }
    shared.frontier.note_applied(0, words);
    shared.frontier.publish(0, batch.last_tid);
}

/// A Reproduce shard worker: applies its shard's slice of each batch to
/// the persistent heap, fences its own flushes, and only then publishes
/// its completed TID to the frontier.
///
/// The fence-before-publish order is load-bearing: the checkpoint trusts
/// the frontier minimum without issuing flushes of its own for heap data,
/// so a TID a shard publishes must already be durable *on that shard*. One
/// fence covers a whole drained run of batches, keeping the barrier count
/// comparable to the one-shard stage's.
pub(crate) fn reproduce_shard_worker(shared: Arc<Shared>, shard: usize, rx: Receiver<ShardWork>) {
    let _bg = dude_nvm::background_stage_scope();
    let mut run: Vec<ShardWork> = Vec::new();
    let mut dirty = DirtyLines::default();
    loop {
        match rx.recv() {
            Ok(w) => run.push(w),
            Err(_) => return,
        }
        // Batch whatever else is already queued so one fence covers the
        // whole run (bounded: the frontier should not stall on a hot shard).
        while run.len() < 128 {
            match rx.try_recv() {
                Ok(w) => run.push(w),
                Err(_) => break,
            }
        }
        let tracing = shared.trace.enabled();
        let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
        let writes = run.iter().flat_map(|work| &work.writes);
        let words = apply_writes(&shared.nvm, shared.heap, writes, &mut dirty);
        if words > 0 {
            // Nothing flushed ⇒ no fence: an all-empty run (aborts, or no
            // writes routed here) must not pay the barrier latency.
            shared.nvm.fence();
            shared.frontier.note_applied(shard, words);
        }
        let last = run.last().expect("run is non-empty").last_tid;
        if tracing && words > 0 {
            // Apply + fence for the whole run: what this shard's slice of
            // the replay actually cost (empty runs are pure bookkeeping and
            // would drown the histogram in zeros).
            let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
            shared.trace.replay_apply_ns[shard].record(dur);
            shared.trace.event(
                Stage::Reproduce,
                TraceEventKind::ReplayApply,
                last,
                8 * words,
                dur,
            );
        }
        // The sabotage offset exists only in sim builds: publishing
        // `last + 1` is the injected off-by-one frontier bug — the min
        // frontier (and therefore the checkpoint) can then cover a TID
        // this shard never applied, which a planned crash exposes.
        #[cfg(feature = "sim")]
        let publish_tid = last + crate::sabotage::frontier_publish_offset();
        #[cfg(not(feature = "sim"))]
        let publish_tid = last;
        shared.frontier.publish(shard, publish_tid);
        run.clear();
    }
}

/// Durably records `reproduced` in the metadata region, then recycles the
/// log spans whose covering TID is at or below it.
///
/// Ordering audit (the span-release-vs-durability question): the release
/// loop runs strictly after the fence returns, and `reproduced` is only
/// ever the frontier minimum: either (a) the one-shard stage's own dense
/// replay position, whose data flushes this same fence covers, or (b) a TID
/// every shard worker fenced *before* publishing. In both cases the checkpoint
/// word and all heap data it claims are durable before any span is handed
/// back for reuse. The hole this audit did find was downstream: recovery
/// replayed released-but-not-yet-overwritten records *below* the
/// checkpoint, regressing the heap (see `recovery.rs`; regression test
/// `stale_released_record_below_checkpoint_is_not_replayed`).
fn checkpoint(
    shared: &Shared,
    reproduced: u64,
    pending_release: &mut VecDeque<(u64, usize, PlogSpan)>,
) {
    let off = shared.meta.start() + crate::runtime::META_REPRODUCED * 8;
    shared.nvm.write_word(off, reproduced);
    shared.nvm.flush(off, 8);
    shared.nvm.fence();
    shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    let mut released = 0u64;
    while let Some(&(tid, ring_idx, span)) = pending_release.front() {
        if tid > reproduced {
            break;
        }
        pending_release.pop_front();
        released += span.words * 8;
        shared.rings[ring_idx].release(span);
    }
    // `bytes` here is the log space the checkpoint recycled — the payoff
    // side of the checkpoint cadence trade-off.
    shared.trace.event(
        Stage::Checkpoint,
        TraceEventKind::CheckpointWrite,
        reproduced,
        released,
        0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DudeTmConfig;
    use crate::runtime::NvmLayout;
    use crate::stats::PipelineStatsSnapshot;
    use crate::stats::RecoveryTelemetry;
    use crate::trace::TraceConfig;
    use crossbeam::channel::unbounded;
    use dude_nvm::{Nvm, NvmConfig};

    fn shared(config: DudeTmConfig) -> (Arc<Shared>, NvmLayout) {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
        let layout = NvmLayout::compute(nvm.size_bytes(), &config);
        let shared = Shared::new(nvm, config, &layout, 0, RecoveryTelemetry::default());
        (Arc::new(shared), layout)
    }

    fn commit(tid: u64, writes: &[(u64, u64)]) -> LogRecord {
        LogRecord::Commit {
            tid,
            writes: writes.to_vec(),
        }
    }

    fn seal(work: impl Seal) -> Sealed {
        work.seal(&mut Combiner::default())
    }

    /// Stages `unit` into ring 1 and checks the ring holds exactly `want`.
    fn stage_and_compare(shared: &Shared, layout: &NvmLayout, unit: Sealed, want: &[u64]) -> Batch {
        let mut buf = Vec::new();
        let batch = try_stage(shared, 1, unit, &mut buf).expect("ring has space");
        let span = batch.span;
        assert_eq!(batch.ring, 1);
        assert_eq!(span.words, want.len() as u64);
        let mut got = vec![0u64; want.len()];
        shared
            .nvm
            .read_words(layout.plogs[1].start() + span.start * 8, &mut got);
        assert_eq!(got, want);
        batch
    }

    #[test]
    fn try_stage_writes_each_kind_and_counts_every_unit() {
        let config = DudeTmConfig::small(1 << 16).with_grouping(4, true);
        let (shared, layout) = shared(config);
        let mut want = Vec::new();
        let mut expect = PipelineStatsSnapshot::default();

        let writes = [(8, 1), (16, 2)];
        serialize_commit(1, &writes, &mut want);
        let batch = stage_and_compare(&shared, &layout, seal(commit(1, &writes)), &want);
        assert_eq!((batch.first_tid, batch.last_tid), (1, 1));
        assert_eq!(batch.writes, writes);
        expect.records_persisted += 1;
        expect.entries_logged += 2;
        expect.entries_after_combine += 2;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(shared.stats.snapshot(), expect);

        // A commit is a group of one: the rewritten word is logged and
        // handed on once, with its last value, at its first position.
        let (a, b) = (24, 32);
        serialize_commit(7, &[(a, 3), (b, 2)], &mut want);
        assert_eq!(want.len(), 2 + 2 * 2);
        let rewrite = seal(commit(7, &[(a, 1), (b, 2), (a, 3)]));
        let batch = stage_and_compare(&shared, &layout, rewrite, &want);
        assert_eq!(batch.writes, [(a, 3), (b, 2)]);
        expect.records_persisted += 1;
        expect.entries_logged += 3;
        expect.entries_after_combine += 2;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(shared.stats.snapshot(), expect);

        serialize_abort(2, &mut want);
        let batch = stage_and_compare(&shared, &layout, seal(LogRecord::Abort { tid: 2 }), &want);
        assert_eq!((batch.first_tid, batch.last_tid), (2, 2));
        assert!(batch.writes.is_empty());
        expect.records_persisted += 1;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(shared.stats.snapshot(), expect);

        // 48 entries over 16 hot words: combines 3:1 and compresses.
        let records: Vec<LogRecord> = (3..6)
            .map(|tid| {
                let writes: Vec<_> = (0..16).map(|w| (1024 + w * 8, tid)).collect();
                commit(tid, &writes)
            })
            .chain([LogRecord::Abort { tid: 6 }])
            .collect();
        let combined = combine_sorted(&records);
        let (raw, stored) = serialize_group(3, 6, &combined, true, &mut want);
        assert!(stored < raw, "the group must exercise the LZ encoding");
        let batch = stage_and_compare(&shared, &layout, seal(GroupWork(records)), &want);
        assert_eq!((batch.first_tid, batch.last_tid), (3, 6));
        assert_eq!(batch.writes, combined);
        expect.entries_logged += 48;
        expect.entries_after_combine += 16;
        expect.group_bytes_raw += raw as u64;
        expect.group_bytes_stored += stored as u64;
        expect.groups_persisted += 1;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(shared.stats.snapshot(), expect);
    }

    #[test]
    fn ring_full_gives_the_unit_back_uncounted() {
        let config = DudeTmConfig {
            plog_bytes_per_thread: 4096,
            ..DudeTmConfig::small(1 << 16)
        }
        .with_trace(TraceConfig::enabled(64));
        let (shared, _) = shared(config);
        // 2 + 2 * 100 = 202 words each: two fit the 512-word ring.
        let writes: Vec<(u64, u64)> = (0..100).map(|w| (w * 8, w)).collect();
        let mut buf = Vec::new();
        let first = try_stage(&shared, 0, seal(commit(1, &writes)), &mut buf).unwrap();
        try_stage(&shared, 0, seal(commit(2, &writes)), &mut buf).unwrap();
        let before = shared.stats.snapshot();
        let back = try_stage(&shared, 0, seal(commit(3, &writes)), &mut buf).unwrap_err();
        assert_eq!(back, seal(commit(3, &writes)));
        assert_eq!(
            shared.stats.snapshot(),
            before,
            "a refused unit counts nothing"
        );
        assert_eq!(shared.trace.stalls.snapshot().persist_ring_full, 1);
        // The retry after Reproduce recycles space counts exactly once.
        shared.rings[0].release(first.span);
        try_stage(&shared, 0, back, &mut buf).expect("space was released");
        let after = shared.stats.snapshot();
        assert_eq!(after.records_persisted, before.records_persisted + 1);
        assert_eq!(after.entries_logged, before.entries_logged + 100);
    }

    /// 4 threads publish a seed-shuffled set of staged batches — single
    /// commits and groups of three — while a reader samples the durable ID.
    fn publish_order_body(seed: u64) {
        use std::sync::atomic::AtomicBool;
        let (shared, _) = shared(DudeTmConfig::small(1 << 16).with_grouping(4, false));
        let (tx, rx) = unbounded();
        let mut buf = Vec::new();
        let mut batches = Vec::new();
        let mut tid = 0;
        for k in 0..96 {
            let unit = if k % 3 == 0 {
                let group = (1..=3).map(|i| commit(tid + i, &[(8 * k, i)])).collect();
                tid += 3;
                seal(GroupWork(group))
            } else {
                tid += 1;
                seal(commit(tid, &[(8 * k, tid)]))
            };
            batches.push(try_stage(&shared, k as usize % 4, unit, &mut buf).unwrap());
        }
        let last = tid;
        shared.nvm.fence();
        let mut x = seed;
        for i in (1..batches.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            batches.swap(i, (x >> 33) as usize % (i + 1));
        }
        // `entered[t]` goes up before the publish that covers TID `t`
        // starts: a durable ID over a TID still down has skipped a gap.
        let entered: Arc<Vec<AtomicBool>> =
            Arc::new((0..=last).map(|_| AtomicBool::new(false)).collect());
        let mut parts: Vec<Vec<Batch>> = (0..4).map(|_| Vec::new()).collect();
        for (i, batch) in batches.into_iter().enumerate() {
            parts[i % 4].push(batch);
        }
        let publishers: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(p, part)| {
                let (shared, tx, entered) = (Arc::clone(&shared), tx.clone(), Arc::clone(&entered));
                dude_nvm::thread::spawn_named(&format!("publisher-{p}"), move || {
                    for batch in part {
                        for t in batch.first_tid..=batch.last_tid {
                            entered[t as usize].store(true, Ordering::SeqCst);
                        }
                        publish(&shared, &tx, batch);
                        dude_nvm::thread::yield_now();
                    }
                })
            })
            .collect();
        drop(tx);
        let reader = {
            let (shared, entered) = (Arc::clone(&shared), Arc::clone(&entered));
            dude_nvm::thread::spawn_named("durable-reader", move || loop {
                let durable = shared.durable.load(Ordering::Acquire);
                for t in 1..=durable {
                    assert!(
                        entered[t as usize].load(Ordering::SeqCst),
                        "durable {durable} announced before tid {t} was published"
                    );
                }
                if durable == last {
                    return;
                }
                dude_nvm::thread::yield_now();
            })
        };
        let mut prev_last = 0;
        while let Ok(batch) = rx.recv() {
            assert_eq!(batch.first_tid, prev_last + 1, "forwarded past a gap");
            prev_last = batch.last_tid;
        }
        for handle in publishers.into_iter().chain([reader]) {
            handle.join().expect("publisher or reader panicked");
        }
        assert_eq!(prev_last, last);
        assert_eq!(shared.durable.load(Ordering::Acquire), last);
        assert_eq!(shared.order.lock().pending_len(), 0);
    }

    #[test]
    fn publish_forwards_in_dense_order_and_never_announces_past_a_gap() {
        for seed in [7, 1337, 424242] {
            publish_order_body(seed);
        }
    }

    /// Sim twin: the same body under the virtual scheduler, where the seed
    /// also fixes the interleaving of the four publishers and the reader.
    #[cfg(feature = "sim")]
    #[test]
    fn publish_forwards_in_dense_order_and_never_announces_past_a_gap_sim() {
        let seed = std::env::var("DUDE_SIM_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(7);
        let report = dude_sim::run(dude_sim::SimConfig::from_seed(seed), move || {
            publish_order_body(seed)
        });
        if let Some(p) = report.panic {
            eprintln!("DUDE_SIM_SEED={seed}");
            panic!("sim run failed under seed {seed}: {p}");
        }
    }

    /// The one-shard degenerate case: `reproduce_stage` with no shard
    /// workers applies in place, publishes frontier slot 0, and checkpoints
    /// on cadence plus once at the drain — at the same TIDs whether batches
    /// are published in order or a late head releases the whole run at once
    /// (N Persist workers publish out of order).
    #[test]
    fn one_shard_stage_applies_in_place_and_checkpoints_on_cadence() {
        for head_last in [false, true] {
            let config = DudeTmConfig {
                checkpoint_every: 8,
                ..DudeTmConfig::small(1 << 16)
            }
            .with_trace(TraceConfig::enabled(1024));
            let (shared, layout) = shared(config);
            let (tx, rx) = unbounded();
            let mut buf = Vec::new();
            let mut batches: Vec<Batch> = (1..=20u64)
                .map(|tid| {
                    let unit = seal(commit(tid, &[(tid * 8, tid + 100)]));
                    try_stage(&shared, 0, unit, &mut buf).unwrap()
                })
                .collect();
            if head_last {
                batches.rotate_left(1); // 2, 3, …, 20, 1
            }
            shared.nvm.fence();
            for batch in batches {
                publish(&shared, &tx, batch);
            }
            // Everything queued and the channel closed: the stage never
            // idles, so only the cadence and the drain checkpoint.
            drop(tx);
            reproduce_stage(Arc::clone(&shared), rx, Vec::new());

            assert_eq!(shared.frontier.completed(0), 20);
            assert_eq!(shared.reproduced.load(Ordering::Acquire), 20);
            let stats = shared.stats.snapshot();
            assert_eq!((stats.txns_reproduced, stats.checkpoints), (20, 3));
            let checkpointed: Vec<u64> = shared
                .trace
                .ring()
                .records()
                .iter()
                .filter(|r| r.event == TraceEventKind::CheckpointWrite)
                .map(|r| r.tid)
                .collect();
            assert_eq!(checkpointed, [8, 16, 20], "head_last={head_last}");
            let meta = layout.meta.start() + crate::runtime::META_REPRODUCED * 8;
            assert_eq!(shared.nvm.read_word(meta), 20);
            for tid in 1..=20u64 {
                let word = shared.nvm.read_word(layout.heap.start() + tid * 8);
                assert_eq!(word, tid + 100);
            }
            assert_eq!(shared.rings[0].used_words(), 0, "every span recycled");
        }
    }
}
