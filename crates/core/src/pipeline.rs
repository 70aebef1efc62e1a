//! The Persist and Reproduce steps (§3.3, §3.4) — one topology whose
//! degenerate settings are the simple case:
//!
//! ```text
//! Perform → redo ring → Persist worker × N → publish = Reproduce
//! ```
//!
//! *Persist* drains the per-thread volatile redo logs ([`crate::redo_ring`])
//! into the persistent log rings as [`Sealed`] units, each last-writer-wins
//! combined as it is sealed. With `persist_group = 1` every record is its
//! own unit — **a commit is a group of one**, combined in place in its
//! ring — and the redo rings are partitioned across the
//! `persist_flush_workers` workers; the records a pass takes from one ring
//! share one log frame (`crate::log::FrameWriter`), published record by
//! record. With `persist_group > 1` the workers
//! share one input, the [`Sequencer`]: it merges all rings' records into
//! dense ID order and cuts groups of consecutive transactions — the
//! precondition for cross-transaction combination and compression (§3.3,
//! Figure 3) — and whichever worker asks next stages the next group into
//! its own log ring. Either way a [`persist_worker`] runs one [`Sweep`] per
//! [`Persist::pass`]: stage, flush each log ring's appended range, fence
//! once, and hand every batch to [`publish`] — out of commit order across
//! workers, never waiting on one.
//! Under `Sync` (Perform and Persist merged) each committer runs the same
//! pass right after appending to its redo ring — over that ring, or over
//! the shared grouped input — and returns once its TID is durable. TIDs end
//! a group; only a thread that waits cuts one short, by raising
//! `Shared::demand` ([`wait_durable`]), which also wakes an idle worker at
//! once ([`Persist::run`]).
//!
//! Dense order is established once per leg, in one [`DenseReorder`]: in the
//! grouped input iff grouped, and at [`publish`] always. `publish` parks a
//! fenced batch in `Shared::order` until nothing is missing in front of it,
//! then, under the same lock and holding `Shared::replay`, advances the
//! durable ID over it and reproduces it. Each ring's append order equals ID
//! order, so spans are recycled FIFO.
//!
//! *Reproduce* is a step, not a thread ([`Replay`]), as in the paper's one
//! background replayer (§3.4): whoever closes a TID gap — a Persist worker
//! after its sweep's fence, or the committer under `Sync` — adds the dense
//! batches to the pending **run**, held in the volatile redo log (a
//! record's ring slice, or a group's copy: without a crash nothing is read
//! back from NVM). A run ends at the batch whose last TID reaches the next
//! multiple of `checkpoint_every` — TIDs decide, never scheduling, so the
//! bytes it stores are a count. Applying it, under `Shared::replay`, stores
//! each distinct word once and flushes each dirty line once (§3.3's
//! combination on the heap side), advances the reproduced ID, frees the
//! redo-ring records it passed, checkpoints and only then recycles log
//! space. Only a thread that waits on the reproduced ID cuts a run short
//! ([`wait_reproduced`]), and it applies the run itself.
//!
//! Lock order: `Shared::order`, then `Shared::replay`. [`publish`] takes
//! both; [`wait_reproduced`], [`checkpoint_behind`] and [`drain`] take only
//! `replay`. A worker takes the [`Sequencer`]'s lock holding neither.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::TryRecvError;
use dude_nvm::{Nvm, Region, CACHE_LINE};

use crate::log::{Combiner, FrameWriter, GroupWriter};
use crate::plog::PlogSpan;
use crate::redo_ring::{RedoCursor, RedoRecord, RedoRing, Unfreed, Writes};
use crate::runtime::Shared;
use crate::seqtrack::DenseReorder;
use crate::watermark::park_on;

/// A persisted unit handed from Persist to the Reproduce step, with the log
/// span to recycle once the covering checkpoint is durable and the ring it
/// sits in. A frame's span rides on its last record's batch; its earlier
/// records carry empty spans at the frame's start, so the frame is
/// recycled once the checkpoint covers its last TID.
#[derive(Debug)]
pub(crate) struct Batch {
    pub unit: Sealed,
    pub ring: usize,
    pub span: PlogSpan,
}

/// One unit of Persist work: the TIDs it covers and the combined writes —
/// distinct addresses — to log and replay for them.
#[derive(Debug)]
pub(crate) struct Sealed {
    first_tid: u64,
    last_tid: u64,
    writes: Writes,
    /// Transactional writes the unit covers, before combination (Table 1's
    /// "# writes" and the Figure 3 combination accounting), and after.
    entries_before: usize,
    entries: usize,
}

/// Where a Persist input's units come from. Each unit is combined once, by
/// the thread that will stage it, with that thread's scratch table
/// ([`Combiner::by_line`], for records and groups alike).
#[derive(Debug)]
pub(crate) enum Source {
    /// A Perform thread's redo ring, read through a cursor of its own.
    Ring(RedoCursor),
    /// The grouped input, which every Persist worker — or every `Sync`
    /// committer — of a grouped runtime shares.
    Groups,
}

impl Source {
    /// The next unit: a group taken under the grouped input's lock and
    /// combined outside it, or a record. A commit is a group of one: a word
    /// it wrote twice is logged, handed to Reproduce and replayed once, with
    /// its last value — combined in the record's slice, which this side owns
    /// until it is freed.
    fn next_unit(&mut self, shared: &Shared, c: &mut Combiner) -> Result<Sealed, TryRecvError> {
        let Source::Ring(cursor) = self else {
            let records = shared.groups.lock().next_group(shared)?;
            return Ok(timed(shared, || Sealed::group(records, c)));
        };
        let RedoRecord { tid, mut span } = cursor.try_pop()?;
        let entries_before = span.len();
        if entries_before > 1 {
            timed(shared, || span.combine(c));
        }
        Ok(Sealed {
            first_tid: tid,
            last_tid: tid,
            entries_before,
            entries: span.len(),
            writes: Writes::Ring(span),
        })
    }
}

/// Runs `combine`, timing it into `combine_ns` when tracing: one sample
/// per unit with anything to combine.
fn timed<T>(shared: &Shared, combine: impl FnOnce() -> T) -> T {
    if !shared.trace.enabled() {
        return combine();
    }
    let t0 = dude_nvm::monotonic_ns();
    let out = combine();
    let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
    shared.trace.combine_ns.record(dur);
    out
}

impl Sealed {
    /// A group of consecutive records, combined straight from the records'
    /// ring slices.
    fn group(records: Vec<RedoRecord>, c: &mut Combiner) -> Sealed {
        let mut pairs = Vec::new();
        let all = records.iter().flat_map(|r| r.span.pairs());
        c.by_line(all, |addr, val| pairs.push((addr, val)));
        Sealed {
            first_tid: records.first().expect("non-empty group").tid,
            last_tid: records.last().expect("non-empty group").tid,
            entries_before: records.iter().map(|r| r.span.len()).sum(),
            entries: pairs.len(),
            writes: Writes::Group(pairs, records.into_iter().map(|r| r.span).collect()),
        }
    }
}

/// The grouped Persist input, which every worker shares (`Shared::groups`,
/// over no ring on an ungrouped runtime). Groups go out in
/// TID order, and a worker stages the ones it takes in that order into its
/// own log ring, so each log ring's append order is dense TID order — the
/// order the Reproduce step releases spans in
/// ([`crate::plog::PlogRing::release`] panics otherwise). A group carries
/// its records themselves, which stay in their rings until the group is
/// reproduced, so the backlog here too is bounded by the rings.
#[derive(Debug)]
pub(crate) struct Sequencer {
    /// The rings not yet closed and drained.
    cursors: Vec<RedoCursor>,
    /// Each redo ring is TID-ascending only per thread.
    reorder: DenseReorder<RedoRecord>,
    current: Vec<RedoRecord>,
}

impl Sequencer {
    /// The grouped input over `rings`, whose first TID follows `start`.
    pub(crate) fn new(rings: &[Arc<RedoRing>], start: u64) -> Sequencer {
        let rings = rings.iter().enumerate();
        Sequencer {
            cursors: rings.map(|(i, ring)| RedoCursor::new(i, ring)).collect(),
            reorder: DenseReorder::starting_at(start),
            current: Vec::new(),
        }
    }

    /// Polls every ring, then cuts the next group: `persist_group`
    /// consecutive records, or fewer once `demand` reaches the first of them
    /// or every ring is closed and drained. [`TryRecvError::Empty`] while
    /// neither; [`TryRecvError::Disconnected`] once every ring is closed and
    /// drained and nothing is stashed.
    fn next_group(&mut self, shared: &Shared) -> Result<Vec<RedoRecord>, TryRecvError> {
        let group = shared.config.persist_group;
        let mut progress = false;
        // Bounded drain per poll so one busy thread cannot starve the rest;
        // a ring closed and drained is dropped.
        self.cursors.retain_mut(|cursor| {
            for _ in 0..64 {
                match cursor.try_pop() {
                    Ok(rec) => self.reorder.push(rec.tid, rec.tid, rec),
                    Err(e) => return e == TryRecvError::Empty,
                }
                progress = true;
            }
            true
        });
        while self.current.len() < group {
            let Some((_, _, rec)) = self.reorder.pop() else {
                break;
            };
            self.current.push(rec);
        }
        let closed = self.cursors.is_empty();
        let stashed = self.reorder.pending_len();
        let drained = closed && stashed == 0;
        // The current group's first TID, arrived or not.
        let first = self.reorder.complete() + 1 - self.current.len() as u64;
        let demanded = shared.demand.get() >= first;
        #[cfg(feature = "sim")] // a raised demand that cuts nothing: sim sabotage
        let demanded = demanded && !crate::sabotage::ignore_demand();
        if self.current.len() == group || !self.current.is_empty() && (demanded || drained) {
            return Ok(std::mem::take(&mut self.current));
        }
        if drained {
            return Err(TryRecvError::Disconnected);
        }
        // The rings are closed but the reorder buffer has a gap: a
        // transaction ID was allocated and never logged. This is a
        // protocol violation upstream.
        assert!(
            !closed,
            "persist(grouped): tid {} missing with inputs closed ({stashed} stashed)",
            self.reorder.complete() + 1,
        );
        // Idle with records stashed beyond a TID gap: the workers wait on
        // one slow Perform thread — the grouped pipeline's head-of-line
        // stall, counted once per idle sweep, so once per park.
        if !progress && stashed > 0 {
            shared.trace.stall(|s| &s.persist_seq_wait);
        }
        Err(TryRecvError::Empty)
    }
}

/// Announces staged batches — a sweep's — whose covering fence has
/// returned: parks them in the order buffer, then advances the durable ID
/// over — and reproduces ([`Replay::step`]) — every batch that now has no
/// gap in front of it.
///
/// All under the one lock, so the durable ID never covers a TID whose unit
/// (or any earlier unit) is not yet fenced, and replay sees batches in
/// dense TID order. No caller ever waits on another: a batch behind a gap
/// stays parked and whoever fills the gap reproduces it.
/// The durable ID advances holding `replay` too: a waiter that sees it
/// cover a TID, then takes `replay`, finds it pending or applied.
pub(crate) fn publish(shared: &Shared, batches: impl IntoIterator<Item = Batch>) {
    let mut order = shared.order.lock();
    for batch in batches {
        order.push(batch.unit.first_tid, batch.unit.last_tid, batch);
    }
    let mut replay = None;
    while let Some((_, last, batch)) = order.pop() {
        #[cfg(feature = "sim")] // the advance before the lock: sim sabotage
        crate::sabotage::durable_before_replay().then(|| shared.durable.advance(last));
        let replay = replay.get_or_insert_with(|| shared.replay.lock());
        shared.durable.advance(last);
        replay.step(shared, batch);
    }
}

/// One pass of Persist work: units staged into rings, then covered by one
/// flush per ring and one fence, then published. The only code that flushes
/// log ranges and issues Persist's barrier — one per [`Persist::pass`].
#[derive(Debug, Default)]
struct Sweep {
    buf: Vec<u64>,
    combiner: Combiner,
    frame: FrameWriter,
    groups: GroupWriter,
    staged: Vec<Batch>,
}

impl Sweep {
    /// Serializes `units` from the front and stores them in log ring
    /// `ring_idx` — not flushed, not fenced: [`Sweep::finish`] does both.
    /// Consecutive records go in as one frame of at most half the ring, and
    /// a group as a record of its own. A full ring refuses the frame or
    /// group in front, which stays in `units` with everything behind it
    /// ([`Persist::pass`] keeps them and serves its other rings — blocking
    /// there would deadlock the pipeline), having counted nothing. Returns
    /// whether anything was staged.
    fn stage(&mut self, shared: &Shared, ring_idx: usize, units: &mut VecDeque<Sealed>) -> bool {
        let ring = &shared.rings[ring_idx];
        let mut staged = false;
        while let Some(unit) = units.front() {
            // Units in the record, and (raw, stored) payload bytes — the
            // Figure 3 accounting, groups only.
            let (n, raw, stored) = match &unit.writes {
                Writes::Group(pairs, _) => {
                    let compress = shared.config.compress_groups;
                    let (raw, stored) = self.groups.serialize(
                        unit.first_tid,
                        unit.last_tid,
                        pairs,
                        compress,
                        &mut self.buf,
                    );
                    (1, raw, stored)
                }
                Writes::Ring(_) => (self.frame_records(units, ring.capacity_words() / 2), 0, 0),
            };
            let Some(span) = ring.try_append_unflushed(&self.buf) else {
                // Persist is blocked on log space Reproduce has not recycled
                // yet — the stall the bounded NVM log ring exists to make
                // visible.
                shared.trace.stall(|s| &s.persist_ring_full);
                return staged;
            };
            staged = true;
            let stats = &shared.stats;
            let add = |cell: &AtomicU64, n: usize| {
                cell.fetch_add(n as u64, Ordering::Relaxed);
            };
            add(&stats.log_bytes_flushed, 8 * span.words as usize);
            if let Writes::Group(..) = unit.writes {
                add(&stats.group_bytes_raw, raw);
                add(&stats.group_bytes_stored, stored);
                add(&stats.groups_persisted, 1);
                if shared.trace.enabled() {
                    shared.trace.group_flush_bytes.record(stored as u64);
                }
            } else {
                add(&stats.records_persisted, n);
            }
            for (i, unit) in units.drain(..n).enumerate() {
                add(&stats.entries_logged, unit.entries_before);
                add(&stats.entries_after_combine, unit.entries);
                #[cfg(feature = "sim")]
                if crate::sabotage::free_ring_when_staged() {
                    unit.writes.free_now(&shared.redo);
                }
                let words = if i + 1 == n { span.words } else { 0 };
                self.staged.push(Batch {
                    unit,
                    ring: ring_idx,
                    span: PlogSpan { words, ..span },
                });
            }
        }
        staged
    }

    /// Serializes the records in front of `units` as one frame into `buf`:
    /// as many as come before any group and fit in `max_words`, and at
    /// least one. Returns how many.
    fn frame_records(&mut self, units: &VecDeque<Sealed>, max_words: u64) -> usize {
        self.frame.clear();
        for unit in units {
            let Writes::Ring(span) = &unit.writes else {
                break;
            };
            self.frame.push(unit.first_tid, span.pairs());
            if self.frame.words() as u64 > max_words && self.frame.len() > 1 {
                self.frame.pop();
                break;
            }
        }
        self.frame.finish(&mut self.buf);
        self.frame.len()
    }

    /// Makes everything staged durable and publishes it. `worker` names the
    /// Persist worker whose `flush_worker_ns` series shares the fence
    /// sample (`None` inline under `Sync`).
    fn finish(&mut self, shared: &Shared, worker: Option<usize>) {
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
        }
        publish(shared, self.staged.drain(..));
    }
}

/// One Persist input: the log ring its units are staged into, where they
/// come from, and the units drawn but not staged — after a pass, what a
/// full log ring gave back.
#[derive(Debug)]
struct Input {
    ring: usize,
    source: Source,
    parked: VecDeque<Sealed>,
}

/// The Persist step over a set of inputs, one [`Persist::pass`] at a time —
/// run by a [`persist_worker`] over its inputs, and by a `Sync` committer
/// over its redo ring or the grouped input ([`Persist::run_inline`]). The
/// one place units are staged and a full log ring parks one.
#[derive(Debug)]
pub(crate) struct Persist {
    sweep: Sweep,
    inputs: Vec<Input>,
}

impl Persist {
    /// The step over `inputs`: `(log ring, source)` pairs.
    pub(crate) fn new(inputs: impl IntoIterator<Item = (usize, Source)>) -> Persist {
        let inputs = inputs.into_iter().map(|(ring, source)| Input {
            ring,
            source,
            parked: VecDeque::new(),
        });
        Persist {
            sweep: Sweep::default(),
            inputs: inputs.collect(),
        }
    }

    /// Drains the inputs in any order, stages each input's units into its
    /// log ring — a ring's records as one frame — and covers the pass with
    /// one [`Sweep`]. Units a full log ring gives back are parked, and the
    /// pass moves on to the other inputs. Returns whether anything was
    /// staged.
    fn pass(&mut self, shared: &Shared, worker: Option<usize>) -> bool {
        let (mut progress, sweep) = (false, &mut self.sweep);
        // Bounded drain per pass so one busy thread cannot starve the rest;
        // parked units go first, alone, keeping the ring's order, and an
        // input disconnected and drained is dropped.
        self.inputs.retain_mut(|input| {
            let mut open = true;
            if input.parked.is_empty() {
                while input.parked.len() < 64 {
                    match input.source.next_unit(shared, &mut sweep.combiner) {
                        Ok(unit) => input.parked.push_back(unit),
                        Err(e) => {
                            open = e == TryRecvError::Empty;
                            break;
                        }
                    }
                }
            }
            progress |= sweep.stage(shared, input.ring, &mut input.parked);
            open || !input.parked.is_empty()
        });
        self.sweep.finish(shared, worker);
        progress
    }

    fn parked(&self) -> bool {
        self.inputs.iter().any(|i| !i.parked.is_empty())
    }

    /// Runs passes until `done`. Every span ahead of a parked unit was
    /// fenced and published by the sweep that staged it, so before retrying
    /// the unit the thread applies the pending run and forces a checkpoint
    /// of whatever is reproduced ([`checkpoint_behind`]); a span still held
    /// sits behind a TID gap, and whoever fills the gap reproduces it for the
    /// next forced checkpoint to recycle.
    ///
    /// A pass that stages nothing first applies the pending run if `demand`
    /// is above the reproduced ID — a producer parked at its cap waits to see
    /// its records freed, they may sit in the run, and no run boundary may be
    /// coming: the producer cannot commit the TID that would end the run —
    /// then parks the thread for [`IDLE`] at most, on `demand` above what the
    /// pass saw and, with a unit parked, on the durable ID above what it saw.
    fn run(&mut self, shared: &Shared, worker: Option<usize>, done: fn(&Persist) -> bool) {
        loop {
            let (durable, demand) = (shared.durable.get(), shared.demand.get());
            if self.parked() {
                checkpoint_behind(shared);
            }
            let progress = self.pass(shared, worker);
            if done(self) {
                return;
            }
            if progress {
                continue;
            }
            if demand > shared.reproduced.load(Ordering::SeqCst) {
                shared.replay.lock().apply(shared);
            }
            let on = [(&shared.demand, demand + 1), (&shared.durable, durable + 1)];
            park_on(&on[..if self.parked() { 2 } else { 1 }], Some(IDLE));
        }
    }

    /// DudeTM-Sync's Persist: the committer of `tid` runs the step right
    /// after appending — on a grouped runtime having demanded `tid`, so the
    /// shared input cuts the group that holds it — until nothing is parked.
    /// It returns once `tid` is durable: a lower TID may still be on its way
    /// through another committer, and a `Sync` commit returns only when
    /// durable (§5.1). Kept out of line, off the asynchronous commit's path.
    #[inline(never)]
    pub(crate) fn run_inline(&mut self, shared: &Shared, tid: u64) {
        if shared.config.persist_group > 1 {
            shared.demand.raise(tid);
        }
        self.run(shared, None, |p| !p.parked());
        wait_durable(shared, tid);
    }
}

/// How long a Persist thread with nothing to stage parks before it polls
/// again, unless a waiter's `demand` — or, behind a full log ring, the
/// durable ID — wakes it first. Pushes do not wake it: on the 2-vCPU
/// benchmark host a futex wake runs the woken thread on the waker's CPU, so
/// a worker woken by the committer that completes a group shares that
/// committer's CPU, and `ycsb_grouped` lost a third of its throughput to it
/// (EXPERIMENTS.md, *A doorbell per group, measured and dropped*). A timed
/// wake-up runs on the worker's own CPU.
const IDLE: Duration = Duration::from_micros(50);

/// A Persist worker: runs the step over its inputs until every one is
/// disconnected and drained.
pub(crate) fn persist_worker(shared: Arc<Shared>, worker: usize, mut persist: Persist) {
    dude_nvm::set_background_stage(true);
    persist.run(&shared, Some(worker), |p| p.inputs.is_empty());
}

/// The Reproduce step's state (§3.4), behind `Shared::replay`: the pending
/// run, the one writer of the reproduced ID and of the checkpoint word, and
/// the one place log space is recycled. A redo-ring record is freed once
/// the reproduced ID passes it. A span is released only once the checkpoint
/// covering its last TID — whose fence also covers the heap flushes of
/// every run applied before it — is durable.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Dense units popped but not yet applied, oldest first.
    run: Vec<Sealed>,
    combiner: Combiner,
    unfreed: Unfreed,
    /// Spans awaiting a covering checkpoint, FIFO in TID order.
    release: VecDeque<(u64, usize, PlogSpan)>,
    pub(crate) last_checkpoint: u64,
}

impl Replay {
    /// Adds one dense batch, which [`publish`] just moved the durable ID
    /// over, to the pending run, and applies the run once the batch's last
    /// TID reaches the next multiple of `checkpoint_every` past the run's
    /// start: where a run ends depends on TIDs alone, never on scheduling.
    fn step(&mut self, shared: &Shared, batch: Batch) {
        let (Batch { unit, ring, span }, every) = (batch, shared.config.checkpoint_every);
        self.release.push_back((unit.last_tid, ring, span));
        let from = self.run.first().map_or(unit.first_tid, |u| u.first_tid);
        let ends = unit.last_tid / every > (from - 1) / every;
        self.run.push(unit);
        if ends {
            self.apply(shared);
        }
    }

    /// Applies the pending run straight from the volatile redo log, newest
    /// unit first, so each distinct word is stored once, with its last
    /// value, without a fence of its own: the checkpoint that covers the
    /// run fences those flushes. Then advances the reproduced ID over it.
    fn apply(&mut self, shared: &Shared) {
        let Some(last_tid) = self.run.last().map(|u| u.last_tid) else {
            return;
        };
        let newest_first = self.run.iter().rev().flat_map(|u| u.writes.pairs());
        // Sim builds only: the injected bug of storing a run one run late.
        #[cfg(feature = "sim")]
        let newest_first = crate::sabotage::store_late(newest_first.collect());
        apply_run(shared, newest_first, &mut self.combiner);
        for unit in self.run.drain(..) {
            self.unfreed.hold(unit.last_tid, unit.writes);
        }
        self.advance(shared, last_tid);
    }

    /// Raises the reproduced ID to `f`, every TID at or below it applied,
    /// counting the transactions it passes, frees the redo-ring records it
    /// passed (so Perform's backpressure is Reproduce's progress), and
    /// checkpoints on passing a multiple of `checkpoint_every` — where runs
    /// end. The ID gates paged-shadow swap-ins (§4.3); this is its only
    /// writer.
    fn advance(&mut self, shared: &Shared, f: u64) {
        assert!(f <= shared.durable.get(), "reproduced {f} passes durable");
        let was = shared.reproduced.fetch_max(f, Ordering::SeqCst);
        let stats = &shared.stats;
        stats.txns_reproduced.fetch_add(f - was, Ordering::Relaxed);
        self.unfreed.free_through(&shared.redo, f);
        let every = shared.config.checkpoint_every;
        if f / every > self.last_checkpoint / every {
            self.checkpoint(shared, f);
        }
    }

    /// Durably records `reproduced` in the metadata region, then recycles
    /// the log spans whose covering TID is at or below it.
    ///
    /// Spans are released strictly after the fence, and `reproduced` is
    /// the step's replay position, whose heap flushes this fence covers.
    /// So the word and the heap data it claims are durable before any span
    /// is reused (DESIGN.md, "Checkpoint ordering").
    fn checkpoint(&mut self, shared: &Shared, reproduced: u64) {
        let off = shared.meta.start() + crate::runtime::META_REPRODUCED * 8;
        shared.nvm.write_word(off, reproduced);
        shared.nvm.flush(off, 8);
        shared.nvm.fence();
        shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.last_checkpoint = reproduced;
        while let Some(&(tid, ring_idx, span)) = self.release.front() {
            if tid > reproduced {
                break;
            }
            self.release.pop_front();
            shared.rings[ring_idx].release(span);
        }
    }
}

/// Parks until `t` is durable, unless it is already, having first raised
/// `demand` to `t`: the grouped input then cuts the group that holds `t`,
/// and an idle worker applies the pending run. Whether it parked.
pub(crate) fn wait_durable(shared: &Shared, t: u64) -> bool {
    if shared.durable.get() < t {
        shared.demand.raise(t);
    }
    shared.durable.wait(t)
}

/// Waits until `t` is durable ([`wait_durable`]), then applies the pending
/// run if it holds `t` — by then it does unless `t` is applied, because
/// [`publish`] advances the durable ID holding `replay` — so `t` is
/// reproduced on return; whether it parked. The one way a waiter cuts a
/// run, never a timer or an idle poll; the next run still ends on the next
/// multiple of `checkpoint_every`.
pub(crate) fn wait_reproduced(shared: &Shared, t: u64) -> bool {
    let waited = wait_durable(shared, t);
    if shared.reproduced.load(Ordering::SeqCst) < t {
        let mut replay = shared.replay.lock();
        if replay.run.last().is_some_and(|u| u.last_tid >= t) {
            replay.apply(shared);
        }
    }
    let reproduced = shared.reproduced.load(Ordering::SeqCst);
    assert!(
        reproduced >= t,
        "durable passed {t}, reproduced {reproduced}"
    );
    waited
}

/// Applies the pending run, whose spans come back no other way, and
/// checkpoints the reproduced ID if it is ahead of the last checkpoint,
/// recycling every span that covers: what a Persist worker parked on a full
/// ring, or a `Sync` committer whose ring is full, calls instead of waiting
/// for the cadence. Writes nothing when there is nothing new to cover.
pub(crate) fn checkpoint_behind(shared: &Shared) {
    // The sabotage gate exists only in sim builds: skipping the forced
    // checkpoint leaves a parked unit waiting on space only the cadence
    // can recycle — the liveness bug the schedule fuzzer must catch.
    #[cfg(feature = "sim")]
    if crate::sabotage::skip_forced_checkpoint() {
        return;
    }
    let mut replay = shared.replay.lock();
    replay.apply(shared);
    let f = shared.reproduced.load(Ordering::SeqCst);
    if f > replay.last_checkpoint {
        replay.checkpoint(shared, f);
    }
}

/// Drains the Reproduce step once every publisher is gone: applies the
/// pending run and takes the final checkpoint.
pub(crate) fn drain(shared: &Shared) {
    {
        let mut replay = shared.replay.lock();
        replay.apply(shared);
        #[cfg(feature = "sim")] // the run held back by sim sabotage
        let late = crate::sabotage::store_late(Vec::new());
        #[cfg(feature = "sim")]
        apply_run(shared, late, &mut replay.combiner);
        replay.checkpoint(shared, shared.reproduced.load(Ordering::SeqCst));
        let held = !replay.release.is_empty() || !replay.unfreed.is_empty();
        debug_assert!(!held, "log space held beyond the last batch");
    }
    let order = shared.order.lock();
    // Unless already unwinding: a second panic in `Drop` would abort.
    assert!(
        std::thread::panicking() || order.pending_len() == 0,
        "reproduce: tid {} missing with pipeline closed ({} batches parked behind it)",
        order.complete() + 1,
        order.pending_len()
    );
}

/// Stores `newest_first` into the heap — each address once, with the first
/// value given for it — then flushes each cache line that dirtied **once**,
/// after the last store — no fence ([`Combiner::newest`]). The only place
/// heap words are stored and flushed: the Reproduce step calls it per run,
/// recovery per record. Returns the words stored.
pub(crate) fn apply_writes(
    nvm: &Nvm,
    heap: Region,
    newest_first: impl IntoIterator<Item: Borrow<(u64, u64)>>,
    combiner: &mut Combiner,
) -> u64 {
    let mut words = 0;
    let offsets = newest_first.into_iter().map(|pair| {
        let &(addr, val) = pair.borrow();
        (heap.start() + addr, val)
    });
    let store = |off, val| {
        nvm.write_word(off, val);
        words += 1;
    };
    combiner.newest(offsets, store, |line| nvm.flush(line, CACHE_LINE));
    words
}

/// Applies one run of dense batches to the heap, timing it when tracing.
/// The covering checkpoint fences it. An all-empty run (aborts only) stores
/// nothing and records no sample, so as not to drown the apply histogram in
/// zeros.
fn apply_run(
    shared: &Shared,
    newest_first: impl IntoIterator<Item: Borrow<(u64, u64)>>,
    combiner: &mut Combiner,
) {
    let tracing = shared.trace.enabled();
    let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
    let words = apply_writes(&shared.nvm, shared.heap, newest_first, combiner);
    if tracing && words > 0 {
        let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
        shared.trace.replay_apply_ns.record(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DudeTmConfig;
    use crate::log::LogRecord;
    use crate::redo_ring::RedoProducer;
    use crate::runtime::NvmLayout;
    use crate::stats::RecoveryTelemetry;
    use crate::stats::{counters, PipelineStatsSnapshot};
    use crate::trace::TraceConfig;
    use dude_nvm::{Nvm, NvmConfig};
    use std::time::{Duration, Instant};

    fn shared(config: DudeTmConfig) -> (Arc<Shared>, NvmLayout) {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
        let layout = NvmLayout::compute(nvm.size_bytes(), &config).unwrap();
        let shared = Shared::new(nvm, config, &layout, 0, RecoveryTelemetry::default());
        (Arc::new(shared), layout)
    }

    fn commit(tid: u64, writes: &[(u64, u64)]) -> LogRecord {
        LogRecord::Commit {
            tid,
            writes: writes.to_vec(),
        }
    }

    /// Thread slot 0's redo ring, end to end: each record goes in at the
    /// producer and comes back out of a Persist input as a sealed unit.
    struct Perform<'s>(RedoProducer, Source, &'s Shared);

    impl Perform<'_> {
        fn new(shared: &Shared) -> Perform<'_> {
            Perform::slot(shared, 0)
        }

        /// Thread slot `i`'s redo ring.
        fn slot(shared: &Shared, i: usize) -> Perform<'_> {
            Perform(
                RedoProducer::new(&shared.redo[i]),
                Source::Ring(RedoCursor::new(i, &shared.redo[i])),
                shared,
            )
        }

        fn append(&mut self, rec: &LogRecord) {
            let abort = matches!(rec, LogRecord::Abort { .. });
            assert!(self.0.try_push(rec.tid(), abort, rec.writes()));
        }

        /// `rec` as the ungrouped worker's cursor seals it.
        fn push(&mut self, rec: LogRecord) -> Sealed {
            self.append(&rec);
            let unit = self.1.next_unit(self.2, &mut Combiner::default());
            unit.expect("just pushed")
        }

        /// `records` as a worker seals a group it takes from the grouped
        /// input.
        fn group(&mut self, records: Vec<LogRecord>) -> Sealed {
            let popped = records.iter().map(|rec| {
                self.append(rec);
                let Source::Ring(cursor) = &mut self.1 else {
                    unreachable!("the slot's own ring")
                };
                cursor.try_pop().expect("just pushed")
            });
            Sealed::group(popped.collect(), &mut Combiner::default())
        }
    }

    fn pairs(writes: &Writes) -> Vec<(u64, u64)> {
        writes.pairs().collect()
    }

    /// Stages `units` as one sweep does, returning their batches unflushed
    /// and unfenced, or the units a full ring gave back.
    fn stage_all(
        shared: &Shared,
        ring_idx: usize,
        units: impl IntoIterator<Item = Sealed>,
    ) -> Result<Vec<Batch>, VecDeque<Sealed>> {
        let (mut sweep, mut units) = (Sweep::default(), units.into_iter().collect());
        sweep.stage(shared, ring_idx, &mut units);
        match units.is_empty() {
            true => Ok(sweep.staged),
            false => Err(units),
        }
    }

    /// Stages `unit` alone, returning its batch unflushed and unfenced.
    fn try_stage(shared: &Shared, ring_idx: usize, unit: Sealed) -> Result<Batch, Sealed> {
        match stage_all(shared, ring_idx, [unit]) {
            Ok(mut batches) => Ok(batches.pop().expect("just staged")),
            Err(mut units) => Err(units.pop_front().expect("given back")),
        }
    }

    /// Stages `unit` into ring 1 and checks the ring holds exactly `want`.
    fn stage_and_compare(shared: &Shared, layout: &NvmLayout, unit: Sealed, want: &[u64]) -> Batch {
        let batch = try_stage(shared, 1, unit).expect("ring has space");
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
        let config = DudeTmConfig::small(1 << 16)
            .with_grouping(4, true)
            .with_trace(TraceConfig::enabled(64));
        let (shared, layout) = shared(config);
        let mut t = Perform::new(&shared);
        let mut want = Vec::new();
        let mut expect = PipelineStatsSnapshot::default();

        // Two words of line 0: a header, a TID, one line group of 5 bytes.
        let writes = [(8, 1), (16, 2)];
        crate::log::serialize_commit(1, writes, &mut want);
        assert_eq!(want.len(), 2 + 1);
        let batch = stage_and_compare(&shared, &layout, t.push(commit(1, &writes)), &want);
        assert_eq!((batch.unit.first_tid, batch.unit.last_tid), (1, 1));
        assert_eq!(pairs(&batch.unit.writes), writes);
        expect.commits += 1;
        expect.records_persisted += 1;
        expect.entries_logged += 2;
        expect.entries_after_combine += 2;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // A commit is a group of one: the rewritten word is logged and
        // handed on once, with its last value.
        let (a, b) = (24, 32);
        crate::log::serialize_commit(7, [(a, 3), (b, 2)], &mut want);
        assert_eq!(want.len(), 2 + 1);
        let rewrite = t.push(commit(7, &[(a, 1), (b, 2), (a, 3)]));
        let batch = stage_and_compare(&shared, &layout, rewrite, &want);
        assert_eq!(pairs(&batch.unit.writes), [(a, 3), (b, 2)]);
        expect.commits += 1;
        expect.records_persisted += 1;
        expect.entries_logged += 3;
        expect.entries_after_combine += 2;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // Combined by line: lines ascending (0, then 1, though 1 was
        // written first), each line's words ascending — one 5-byte group
        // per line, 2 + 2 words, where the list as written would take four
        // groups.
        let scattered = [(80, 1), (8, 2), (72, 3), (0, 4), (80, 5)];
        let by_line = [(0, 4), (8, 2), (72, 3), (80, 5)];
        crate::log::serialize_commit(8, by_line, &mut want);
        assert_eq!(want.len(), 2 + 2);
        let batch = stage_and_compare(&shared, &layout, t.push(commit(8, &scattered)), &want);
        assert_eq!(pairs(&batch.unit.writes), by_line);
        expect.commits += 1;
        expect.records_persisted += 1;
        expect.entries_logged += 5;
        expect.entries_after_combine += 4;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // An abort is a commit record with no writes.
        crate::log::serialize_frame([&LogRecord::Abort { tid: 2 }], &mut want);
        assert_eq!(want.len(), 2);
        let batch = stage_and_compare(&shared, &layout, t.push(LogRecord::Abort { tid: 2 }), &want);
        assert_eq!((batch.unit.first_tid, batch.unit.last_tid), (2, 2));
        assert_eq!(pairs(&batch.unit.writes), []);
        expect.abort_markers += 1;
        expect.records_persisted += 1;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // 48 entries over 16 hot words on lines 16 and 17: combines 3:1
        // into two 14-byte groups, and compresses.
        let records: Vec<LogRecord> = (3..6)
            .map(|tid| {
                let writes: Vec<_> = (0..16).map(|w| (1024 + w * 8, tid)).collect();
                commit(tid, &writes)
            })
            .chain([LogRecord::Abort { tid: 6 }])
            .collect();
        let combined = crate::log::combine_sorted(&records);
        let (raw, stored) = crate::log::serialize_group(3, 6, &combined, true, &mut want);
        assert_eq!(raw, 2 * (1 + 1 + 4 + 8));
        assert!(stored < raw, "the group must exercise the LZ encoding");
        let batch = stage_and_compare(&shared, &layout, t.group(records), &want);
        assert_eq!((batch.unit.first_tid, batch.unit.last_tid), (3, 6));
        assert_eq!(pairs(&batch.unit.writes), combined);
        expect.commits += 3;
        expect.abort_markers += 1;
        expect.entries_logged += 48;
        expect.entries_after_combine += 16;
        expect.group_bytes_raw += raw as u64;
        expect.group_bytes_stored += stored as u64;
        expect.groups_persisted += 1;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // The records one sweep takes from a ring are one frame, an abort
        // and a TID gap inside it: one record per batch, the frame's span
        // on the last one and empty spans at its start before it.
        let records = [
            commit(10, &[(8, 0x1234), (8, 0x5678)]),
            LogRecord::Abort { tid: 11 },
            commit(13, &[(1 << 20, u64::MAX)]),
        ];
        let combined = [
            commit(10, &[(8, 0x5678)]),
            records[1].clone(),
            records[2].clone(),
        ];
        crate::log::serialize_frame(&combined, &mut want);
        assert_eq!(
            want.len(),
            2 + 3,
            "three records where v5 took 3 + 2 + 4 words"
        );
        let units: Vec<Sealed> = records.iter().map(|rec| t.push(rec.clone())).collect();
        let start = shared.rings[1].used_words();
        let batches = stage_all(&shared, 1, units).expect("ring has space");
        let mut got = vec![0u64; want.len()];
        shared
            .nvm
            .read_words(layout.plogs[1].start() + start * 8, &mut got);
        assert_eq!(got, want);
        let spans: Vec<_> = batches.iter().map(|b| (b.unit.first_tid, b.span)).collect();
        let span = |words| PlogSpan { start, words };
        assert_eq!(spans, [(10, span(0)), (11, span(0)), (13, span(5))]);
        assert_eq!(pairs(&batches[0].unit.writes), [(8, 0x5678)]);
        expect.commits += 2;
        expect.abort_markers += 1;
        expect.records_persisted += 3;
        expect.entries_logged += 3;
        expect.entries_after_combine += 2;
        expect.log_bytes_flushed += want.len() as u64 * 8;
        assert_eq!(counters(&shared), expect);

        // A frame the ring cannot take gives its units back, in order,
        // counting one stall and nothing else.
        let ring = &shared.rings[1];
        let units: Vec<Sealed> = (14..=16)
            .map(|tid| t.push(commit(tid, &[(8, tid)])))
            .collect();
        while ring.capacity_words() - ring.used_words() > 2 + 2 {
            ring.try_append_unflushed(&[0]).expect("room for a word");
        }
        let before = counters(&shared);
        let back = stage_all(&shared, 1, units).expect_err("the ring is full");
        let tids: Vec<u64> = back.iter().map(|u| u.first_tid).collect();
        assert_eq!(tids, [14, 15, 16]);
        assert_eq!(counters(&shared), before, "a refused frame counts nothing");
        assert_eq!(shared.trace.stalls.snapshot().persist_ring_full, 1);
    }

    /// A `persist_group = 4` runtime's shared state, and producers for its
    /// redo rings `0..n`.
    fn grouped(n: usize) -> (Arc<Shared>, Vec<RedoProducer>) {
        let config = DudeTmConfig::small(1 << 16)
            .with_grouping(4, false)
            .with_trace(TraceConfig::enabled(64));
        let (shared, _) = shared(config);
        let producers = shared.redo[..n].iter().map(RedoProducer::new).collect();
        (shared, producers)
    }

    /// Commits `tid` on `producer`, one write of its own.
    fn push(producer: &mut RedoProducer, tid: u64) {
        assert!(producer.try_push(tid, false, &[(8 * tid, tid)]));
    }

    /// One poll of the grouped input.
    fn poll(shared: &Shared) -> Result<Vec<RedoRecord>, TryRecvError> {
        shared.groups.lock().next_group(shared)
    }

    fn tids(group: Result<Vec<RedoRecord>, TryRecvError>) -> Vec<u64> {
        group.expect("a group").iter().map(|r| r.tid).collect()
    }

    /// TIDs interleaved across two rings — each ring ascending, one ring
    /// ahead of the other — come out as dense groups of exactly
    /// `persist_group`; an empty poll behind a gap counts a stall, and a
    /// partial group is held while `demand` is below its first TID and cut
    /// once `demand` reaches it.
    #[test]
    fn the_grouped_input_cuts_dense_groups_and_holds_a_partial_one() {
        let (shared, mut p) = grouped(2);
        let stalls = || shared.trace.stalls.snapshot().persist_seq_wait;
        (2..=10).step_by(2).for_each(|tid| push(&mut p[1], tid));
        assert_eq!(poll(&shared).unwrap_err(), TryRecvError::Empty);
        assert_eq!(poll(&shared).unwrap_err(), TryRecvError::Empty);
        assert_eq!(stalls(), 1, "the poll that stashed counts none");
        (1..=9).step_by(2).for_each(|tid| push(&mut p[0], tid));
        assert_eq!(tids(poll(&shared)), [1, 2, 3, 4]);
        assert_eq!(tids(poll(&shared)), [5, 6, 7, 8]);
        assert_eq!(poll(&shared).unwrap_err(), TryRecvError::Empty);
        assert_eq!(stalls(), 1, "nothing stashed behind a gap");
        shared.demand.raise(8);
        let held = poll(&shared).unwrap_err();
        assert_eq!(held, TryRecvError::Empty, "demand below the group's first");
        shared.demand.raise(9);
        assert_eq!(tids(poll(&shared)), [9, 10]);
        assert_eq!(poll(&shared).unwrap_err(), TryRecvError::Empty);
    }

    /// Closing all rings but one cuts nothing early; closing the last cuts
    /// the partial group at once, and only then, with nothing stashed, is
    /// the input disconnected.
    #[test]
    fn the_grouped_input_disconnects_only_once_every_ring_is_closed_and_drained() {
        let (shared, mut p) = grouped(2);
        push(&mut p[0], 1);
        let open = &shared.redo[1];
        let others = shared.redo.iter().filter(|r| !Arc::ptr_eq(r, open));
        others.for_each(|r| r.close());
        assert_eq!(poll(&shared).unwrap_err(), TryRecvError::Empty);
        push(&mut p[1], 2);
        open.close();
        assert_eq!(tids(poll(&shared)), [1, 2]);
        let end = poll(&shared).unwrap_err();
        assert_eq!(end, TryRecvError::Disconnected);
    }

    #[test]
    #[should_panic(expected = "tid 1 missing with inputs closed (1 stashed)")]
    fn a_tid_gap_with_every_ring_closed_panics() {
        let (shared, mut p) = grouped(2);
        push(&mut p[1], 2);
        shared.redo.iter().for_each(|r| r.close());
        let _ = poll(&shared);
    }

    /// Spins until `done`, failing after ten seconds instead of hanging.
    fn within_10s(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// An idle grouped worker parks on `demand`, and cuts
    /// what TIDs and waiters decide: a full group once its last TID is in,
    /// a partial one only once `demand` reaches its first TID, and the last
    /// one when the rings close, which ends the worker.
    #[test]
    fn an_idle_worker_cuts_full_groups_demanded_partial_ones_and_the_last_at_close() {
        let (shared, mut p) = grouped(1);
        let worker = {
            let (shared, persist) = (Arc::clone(&shared), Persist::new([(0, Source::Groups)]));
            std::thread::spawn(move || persist_worker(shared, 0, persist))
        };
        let durable = || shared.durable.get();
        let held = |what: &str, tid: u64| {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(durable(), tid, "{what}: cut");
        };
        within_10s("the idle worker parks on demand", || {
            shared.demand.has_waiters()
        });
        (1..=3).for_each(|tid| push(&mut p[0], tid));
        held("pushes short of a group", 0);
        push(&mut p[0], 4);
        within_10s("a full group", || durable() == 4);
        push(&mut p[0], 5);
        held("a partial group, undemanded", 4);
        shared.demand.raise(5);
        within_10s("a demand raise", || durable() == 5);
        push(&mut p[0], 6);
        held("a partial group, demanded only below it", 5);
        shared.redo.iter().for_each(|r| r.close());
        worker.join().expect("the worker ends once the rings close");
        assert_eq!(durable(), 6, "the close cuts the partial group");
    }

    /// A frame is recycled only once the checkpoint covers its last record:
    /// ring 0's frame of TIDs 1 and 3 stays whole while TID 2, thread 1's,
    /// is missing and the forced checkpoint stops at TID 1.
    #[test]
    fn a_frame_is_recycled_once_the_checkpoint_covers_its_last_record() {
        let config = DudeTmConfig {
            checkpoint_every: 1000,
            ..DudeTmConfig::small(1 << 16)
        };
        let (shared, _) = shared(config);
        let reproduced = || shared.reproduced.load(Ordering::SeqCst);
        let mut t = Perform::new(&shared);
        let units = [1, 3].map(|tid| t.push(commit(tid, &[(8 * tid, tid)])));
        let frame = stage_all(&shared, 0, units).expect("ring has space");
        let words = frame[1].span.words;
        assert_eq!((frame[0].span.words, words), (0, 2 + 2));
        shared.nvm.fence();
        publish(&shared, frame);
        checkpoint_behind(&shared);
        assert_eq!((reproduced(), counters(&shared).checkpoints), (1, 1));
        assert_eq!(shared.rings[0].used_words(), words, "TID 3 is held");
        let mut other = Perform::slot(&shared, 1);
        let two = other.push(commit(2, &[(16, 2)]));
        let two = stage_all(&shared, 1, [two]).expect("ring has space");
        shared.nvm.fence();
        publish(&shared, two);
        checkpoint_behind(&shared);
        assert_eq!(reproduced(), 3);
        assert_eq!(shared.rings[0].used_words(), 0, "recycled with TID 3");
        assert_eq!(shared.rings[1].used_words(), 0);
    }

    /// A refused unit counts nothing and waits on a checkpoint the cadence
    /// will not take for a long time: the forced one applies the pending
    /// run first, then recycles exactly the reproduced spans, and forcing
    /// again with nothing new writes nothing.
    #[test]
    fn ring_full_gives_the_unit_back_until_a_forced_checkpoint() {
        let config = DudeTmConfig {
            plog_bytes_per_thread: 4096,
            checkpoint_every: 1000,
            ..DudeTmConfig::small(1 << 16)
        }
        .with_trace(TraceConfig::enabled(64));
        let (shared, layout) = shared(config);
        let mut t = Perform::new(&shared);
        // One 8-byte value per line, 160 lines: 160 groups of 11 bytes,
        // 2 + 220 = 222 words each, two fit the 512-word ring.
        let writes: Vec<(u64, u64)> = (0..160).map(|w| (w * 64, !w)).collect();
        let first = try_stage(&shared, 0, t.push(commit(1, &writes))).unwrap();
        let second = try_stage(&shared, 0, t.push(commit(2, &writes))).unwrap();
        assert_eq!((first.span.words, second.span.words), (222, 222));
        shared.nvm.fence();
        publish(&shared, [first]);
        // Durable, and pending in the run: the cadence is far off.
        let heap = layout.heap.start();
        assert_eq!(shared.durable.get(), 1);
        assert_eq!(shared.reproduced.load(Ordering::SeqCst), 0);
        assert_eq!(shared.nvm.read_word(heap + 64 * 99), 0, "not applied yet");
        let third = t.push(commit(3, &writes));
        let before = counters(&shared);
        let back = try_stage(&shared, 0, third).unwrap_err();
        assert_eq!((back.first_tid, pairs(&back.writes)), (3, writes.clone()));
        let after = counters(&shared);
        assert_eq!(after, before, "a refused unit counts nothing");
        assert_eq!(shared.trace.stalls.snapshot().persist_ring_full, 1);
        assert_eq!(after.checkpoints, 0, "cadence not reached");

        checkpoint_behind(&shared);
        assert_eq!(shared.reproduced.load(Ordering::SeqCst), 1);
        assert_eq!(
            shared.nvm.read_word(heap + 64 * 99),
            !99,
            "the run is applied"
        );
        let meta = layout.meta.start() + crate::runtime::META_REPRODUCED * 8;
        assert_eq!(shared.nvm.read_word(meta), 1);
        assert_eq!(counters(&shared).checkpoints, 1);
        // Tid 2 is staged but unpublished: its span stays held.
        assert_eq!(shared.rings[0].used_words(), second.span.words);
        // The retry counts exactly once.
        try_stage(&shared, 0, back).expect("the first span was released");
        let after = counters(&shared);
        assert_eq!(after.records_persisted, before.records_persisted + 1);
        assert_eq!(after.entries_logged, before.entries_logged + 160);

        let before = shared.nvm.stats();
        checkpoint_behind(&shared);
        assert_eq!(shared.nvm.stats().delta(&before).words_written, 0);
        assert_eq!(counters(&shared).checkpoints, 1, "nothing new: no-op");
    }

    /// 4 threads publish a seed-shuffled set of staged batches — single
    /// commits and groups of three, each TID writing heap word `TID` with
    /// value `TID` — while a reader samples the watermarks and the heap.
    fn publish_order_body(seed: u64) {
        use std::sync::atomic::AtomicBool;
        // 160 TIDs: runs end at the batches reaching 48, 96 and 144.
        let config = DudeTmConfig {
            checkpoint_every: 48,
            ..DudeTmConfig::small(1 << 16)
        }
        .with_grouping(4, false);
        let (shared, layout) = shared(config);
        let mut t = Perform::new(&shared);
        let mut batches = Vec::new();
        let mut tid = 0;
        for k in 0..96 {
            let unit = if k % 3 == 0 {
                let records = (tid + 1..=tid + 3)
                    .map(|x| commit(x, &[(8 * x, x)]))
                    .collect();
                tid += 3;
                t.group(records)
            } else {
                tid += 1;
                t.push(commit(tid, &[(8 * tid, tid)]))
            };
            batches.push(try_stage(&shared, k as usize % 4, unit).unwrap());
        }
        let last = tid;
        let mut ends: Vec<u64> = batches.iter().map(|b| b.unit.last_tid).collect();
        ends.sort_unstable();
        // Runs end at the batches reaching a multiple of the cadence, and
        // nothing cuts one while the publishers run; the tail stays pending.
        let every = shared.config.checkpoint_every;
        let mut runs: Vec<u64> = Vec::new();
        for &end in &ends {
            if end / every > runs.last().map_or(0, |&e| e) / every {
                runs.push(end);
            }
        }
        assert_ne!(runs.last(), Some(&last), "the tail must be pending");
        runs.push(last);
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
                let (shared, entered) = (Arc::clone(&shared), Arc::clone(&entered));
                dude_nvm::thread::spawn_named(&format!("publisher-{p}"), move || {
                    for batch in part {
                        for t in batch.unit.first_tid..=batch.unit.last_tid {
                            entered[t as usize].store(true, Ordering::SeqCst);
                        }
                        publish(&shared, [batch]);
                        dude_nvm::thread::yield_now();
                    }
                })
            })
            .collect();
        let applied =
            move |shared: &Shared, t: u64| shared.nvm.read_word(layout.heap.start() + 8 * t) == t;
        let reader = {
            let (shared, entered, runs) = (Arc::clone(&shared), Arc::clone(&entered), runs.clone());
            dude_nvm::thread::spawn_named("watermark-reader", move || loop {
                // Read against the step's write order (durable, heap,
                // reproduced), so each bound covers what was read before.
                let reproduced = shared.reproduced.load(Ordering::SeqCst);
                assert!((1..=reproduced).all(|t| applied(&shared, t)));
                // The highest applied TID, then every run ending below it: a
                // run is stored newest first, so dense order holds per run,
                // and a run begun before the one ahead is whole broke it.
                let top = (1..=last).rev().find(|&t| applied(&shared, t));
                let top = top.unwrap_or(0);
                let whole = runs.iter().rev().find(|&&e| e < top).map_or(0, |&e| e);
                assert!(
                    (1..=whole).all(|t| applied(&shared, t)),
                    "{top} applied early"
                );
                let durable = shared.durable.get();
                assert!(reproduced.max(top) <= durable, "past durable {durable}");
                let published = |t: u64| entered[t as usize].load(Ordering::SeqCst);
                assert!(
                    (1..=durable).all(published),
                    "durable {durable} announced before every tid below it was published"
                );
                if durable == last {
                    return;
                }
                dude_nvm::thread::yield_now();
            })
        };
        for handle in publishers.into_iter().chain([reader]) {
            handle.join().expect("publisher or reader panicked");
        }
        assert_eq!(shared.durable.get(), last);
        assert_eq!(shared.order.lock().pending_len(), 0);
        // The tail is applied on demand.
        shared.replay.lock().apply(&shared);
        assert_eq!(shared.reproduced.load(Ordering::SeqCst), last);
        assert!((1..=last).all(|t| applied(&shared, t)));
    }

    #[test]
    fn publish_reproduces_in_dense_order_and_never_announces_past_a_gap() {
        for seed in [7, 1337, 424242] {
            publish_order_body(seed);
        }
    }

    /// Sim twin: the same body under the virtual scheduler, where the seed
    /// also fixes the interleaving of the four publishers and the reader.
    #[cfg(feature = "sim")]
    #[test]
    fn publish_reproduces_in_dense_order_and_never_announces_past_a_gap_sim() {
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

    /// `publish` holds dense batches in the pending run and applies it in
    /// place — each word once, then checkpointing — exactly when a batch
    /// reaches a multiple of the cadence, and the drain applies the tail —
    /// at the same TIDs whether batches are published in order or a late
    /// head releases every run at once (N Persist workers publish out of
    /// order).
    #[test]
    fn the_step_applies_in_place_and_checkpoints_on_cadence() {
        for head_last in [false, true] {
            let config = DudeTmConfig {
                checkpoint_every: 8,
                ..DudeTmConfig::small(1 << 16)
            };
            let (shared, layout) = shared(config);
            let meta = layout.meta.start() + crate::runtime::META_REPRODUCED * 8;
            let heap = |addr: u64| shared.nvm.read_word(layout.heap.start() + addr);
            // (checkpoint word, checkpoints taken) as they stand now.
            let checkpointed = || {
                let word = shared.nvm.read_word(meta);
                (word, counters(&shared).checkpoints)
            };
            let mut t = Perform::new(&shared);
            // Each TID writes a word of its own and rewrites hot word 0.
            let mut batches: Vec<Batch> = (1..=20u64)
                .map(|tid| {
                    let unit = t.push(commit(tid, &[(tid * 8, tid + 100), (0, tid)]));
                    try_stage(&shared, 0, unit).unwrap()
                })
                .collect();
            if head_last {
                batches.rotate_left(1); // 2, 3, …, 20, 1
            }
            shared.nvm.fence();
            let before = shared.nvm.stats();
            let words = || shared.nvm.stats().delta(&before).words_written;
            for batch in batches {
                let tid = batch.unit.last_tid;
                publish(&shared, [batch]);
                // Runs end at TIDs 8 and 16, and only there — none while
                // the head is missing: 8 own words, the hot word once and
                // the checkpoint word per run, and nothing of the tail.
                let durable = shared.durable.get();
                let f = shared.reproduced.load(Ordering::SeqCst);
                assert_eq!(f, durable / 8 * 8, "after publishing {tid}");
                assert_eq!(checkpointed(), (f, f / 8), "after publishing {tid}");
                assert_eq!(words(), f / 8 * (8 + 1 + 1), "after publishing {tid}");
                assert_eq!(heap(0), f, "the hot word holds its run's last value");
                assert!((f + 1..=20).all(|tid| heap(tid * 8) == 0), "tail held");
            }
            assert_eq!(shared.reproduced.load(Ordering::SeqCst), 16);
            assert_eq!(checkpointed(), (16, 2), "head_last={head_last}");
            drain(&shared);

            assert_eq!(shared.reproduced.load(Ordering::SeqCst), 20);
            assert_eq!(counters(&shared).txns_reproduced, 20);
            assert_eq!(checkpointed(), (20, 3), "head_last={head_last}");
            assert_eq!(
                words(),
                2 * 10 + (4 + 1) + 1,
                "the tail, then the final checkpoint"
            );
            assert_eq!(heap(0), 20);
            for tid in 1..=20u64 {
                assert_eq!(heap(tid * 8), tid + 100);
            }
            assert_eq!(shared.rings[0].used_words(), 0, "every span recycled");
        }
    }
}
