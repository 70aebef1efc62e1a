//! One benchmark instance: set-up, the closed-loop driver, the model of
//! what the heap must hold, and the untraced (end-to-end) measurement.
//!
//! A TM is a library: the caller waits for `run` to return. So load is a
//! closed loop with **one client thread** — this thread — and the only
//! other threads are DudeTM's own stages.

use std::sync::Arc;
use std::time::Instant;

use dude_nvm::Nvm;
use dude_stm::Stm;
use dude_txapi::{CommitInfo, PAddr, TxResult, Txn, TxnSystem, TxnThread};
use dude_workloads::driver::Workload;
use dude_workloads::rng::Rng;
use dudetm::{DtmThread, DudeTm};

use crate::spans::Spans;
use crate::spec::{self, Built, Plan, Spec};

/// Heaps are padded to this size so resident memory is dominated by fixed,
/// pre-touched bulk instead of allocator noise (the paper-scale default of
/// `dude-bench`).
const MIN_HEAP_BYTES: u64 = 64 << 20;
/// Words the transactional read-back samples (spread evenly over the heap).
const READBACK_WORDS: u64 = 1 << 20;
/// Reads per read-back transaction.
const READBACK_CHUNK: u64 = 1024;
/// Warm-up operations drawn from [`PROLOGUE_SEED`] instead of `--seed`.
const PROLOGUE_OPS: u64 = 2_000;
const PROLOGUE_SEED: u64 = 0xD0DE;

/// A `Txn` that forwards to the system under test and remembers what the
/// current attempt wrote.
struct Recorder<'a> {
    inner: &'a mut dyn Txn,
    writes: &'a mut Vec<(u64, u64)>,
}

impl Txn for Recorder<'_> {
    fn read_word(&mut self, addr: PAddr) -> TxResult<u64> {
        self.inner.read_word(addr)
    }

    fn write_word(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        self.inner.write_word(addr, val)?;
        self.writes.push((addr.offset(), val));
        Ok(())
    }

    fn declare_write(&mut self, addr: PAddr, words: u64) -> TxResult<()> {
        self.inner.declare_write(addr, words)
    }
}

/// Runs `body` as one transaction on `t`; on commit `writes` holds the
/// committed attempt's write-set.
fn run_recorded<T: TxnThread>(
    t: &mut T,
    writes: &mut Vec<(u64, u64)>,
    body: &mut dyn FnMut(&mut dyn Txn) -> TxResult<()>,
) -> Option<CommitInfo> {
    t.run(&mut |tx| {
        writes.clear();
        body(&mut Recorder {
            inner: tx,
            writes: &mut *writes,
        })
    })
    .info()
}

/// The closed loop: `n` operations of `workload` back to back on `t`,
/// `on_commit` seeing each committed write-set. Returns how many did not
/// commit (none is expected to: one client, no user aborts).
pub fn drive<T: TxnThread>(
    t: &mut T,
    workload: &dyn Workload,
    rng: &mut Rng,
    n: u64,
    writes: &mut Vec<(u64, u64)>,
    mut on_commit: impl FnMut(&[(u64, u64)], CommitInfo),
) -> u64 {
    let mut failed = 0;
    for _ in 0..n {
        // A retried attempt must redraw the same operation.
        let saved = rng.clone();
        let info = run_recorded(t, writes, &mut |tx| {
            *rng = saved.clone();
            workload.op(tx, rng, 0)
        });
        match info {
            Some(info) => on_commit(writes, info),
            None => failed += 1,
        }
    }
    failed
}

/// Runs `workload`'s load phase on `t`, one transaction per step.
pub fn load<T: TxnThread>(
    t: &mut T,
    workload: &dyn Workload,
    writes: &mut Vec<(u64, u64)>,
    mut on_commit: impl FnMut(&[(u64, u64)]),
) -> u64 {
    let mut failed = 0;
    for step in 0..workload.load_steps() {
        match run_recorded(t, writes, &mut |tx| workload.load_step(tx, step)) {
            Some(_) => on_commit(writes),
            None => failed += 1,
        }
    }
    failed
}

/// The warm-up of `n` operations: the first [`PROLOGUE_OPS`] are drawn from
/// a constant seed, the rest from `rng` (the `--seed` stream).
///
/// The prologue exists for TPC-C: its B+-tree keeps, forever, however many
/// keys of the next district happened to share a district's frontier leaf
/// when the tree was small, and drags them along on every later insert —
/// writes per New-Order differed by up to 13 % between seeds. Growing the
/// young tree the same way for every seed makes counts comparable across
/// seeds; everything the run measures is still drawn from `--seed`.
pub fn warm_up<T: TxnThread>(
    t: &mut T,
    workload: &dyn Workload,
    rng: &mut Rng,
    n: u64,
    writes: &mut Vec<(u64, u64)>,
    mut on_commit: impl FnMut(&[(u64, u64)]),
) -> u64 {
    let prologue = n.min(PROLOGUE_OPS);
    let mut fixed = Rng::new(PROLOGUE_SEED);
    drive(t, workload, &mut fixed, prologue, writes, |w, _| {
        on_commit(w)
    }) + drive(t, workload, rng, n - prologue, writes, |w, _| on_commit(w))
}

/// First-touches a fresh (all-zero) heap through the system itself: one
/// zero store per 4 KiB page, 512 pages per transaction. On DudeTM the
/// stores reach the shadow through the TM and the device heap through
/// Reproduce, so the page faults of every heap the run will write are paid
/// here, in set-up, and not inside a timed window.
pub fn first_touch<T: TxnThread>(t: &mut T, heap_words: u64) -> u64 {
    const PAGE_WORDS: u64 = 512;
    let pages = heap_words.div_ceil(PAGE_WORDS);
    let mut failed = 0;
    for first in (0..pages).step_by(512) {
        let outcome = t.run(&mut |tx| {
            for page in first..(first + 512).min(pages) {
                tx.write_word(PAddr::from_word_index(page * PAGE_WORDS), 0)?;
            }
            Ok(())
        });
        failed += u64::from(!outcome.is_committed());
    }
    failed
}

/// What every heap word must hold: the last committed value per word,
/// zero where nothing was written.
pub struct Model {
    words: Vec<u64>,
}

impl Model {
    /// A zeroed model with every page first-touched.
    pub fn new(heap_bytes: u64) -> Model {
        let mut words = vec![0u64; (heap_bytes / 8) as usize];
        for page in words.chunks_mut(512) {
            page[0] = std::hint::black_box(0);
        }
        Model { words }
    }

    /// Applies one committed write-set.
    #[inline]
    pub fn apply(&mut self, writes: &[(u64, u64)]) {
        for &(addr, val) in writes {
            self.words[(addr / 8) as usize] = val;
        }
    }

    /// Words that differ from what `read` returns for their byte offset.
    pub fn mismatches(&self, read: impl Fn(u64) -> u64) -> u64 {
        self.words
            .iter()
            .enumerate()
            .filter(|&(i, &want)| read(i as u64 * 8) != want)
            .count() as u64
    }
}

/// A set-up instance handed to the measurement.
pub struct Live<'a> {
    /// The device under the runtime.
    pub nvm: &'a Arc<Nvm>,
    /// The runtime.
    pub dude: &'a DudeTm<Stm>,
    /// The one client thread's handle.
    pub thread: DtmThread<'a, Stm>,
    /// The workload laid out in the heap.
    pub built: &'a Built,
    /// Expected heap contents.
    pub model: Model,
    /// The operation stream (seeded from `--seed`, advanced by warm-up).
    pub rng: Rng,
    /// Scratch write-set buffer.
    pub writes: Vec<(u64, u64)>,
    /// Operations that failed so far.
    pub failed: u64,
}

/// Sets one instance up — build the workload, create the device and the
/// runtime, load, warm up, quiesce — then runs `then` on it and tears it
/// down. Returns the set-up time in seconds and `then`'s result.
///
/// Everything the run will write is first-touched here (shadow and device
/// heap by [`first_touch`], the model by its constructor), and the warm-up
/// is a fixed op count, so page faults and cold caches are charged to
/// set-up.
pub fn with_instance<R>(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
    then: impl FnOnce(&mut Live<'_>, &mut Spans) -> R,
) -> (f64, R) {
    let started = Instant::now();
    let setup = spans.enter("setup");
    let mut built = spec::build(spec, plan.capacity());
    if !plan.smoke {
        built.heap_bytes = built.heap_bytes.max(MIN_HEAP_BYTES);
    }
    let config = spec::dude_config(spec, built.heap_bytes, traced);

    let span = spans.enter("create");
    let nvm = Arc::new(spec::bench_device(&config));
    let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
    let mut model = Model::new(built.heap_bytes);
    spans.exit(span);

    let mut thread = dude.register_thread();
    let mut writes = Vec::with_capacity(256);
    let span = spans.enter("first_touch");
    let mut failed = first_touch(&mut thread, built.heap_bytes / 8);
    spans.exit(span);
    let span = spans.enter("load");
    failed += load(&mut thread, built.update.as_ref(), &mut writes, |w| {
        model.apply(w)
    });
    spans.exit(span);

    let span = spans.enter("warmup");
    let mut rng = Rng::new(seed);
    failed += warm_up(
        &mut thread,
        built.update.as_ref(),
        &mut rng,
        plan.warmup,
        &mut writes,
        |w| model.apply(w),
    );
    spans.exit(span);

    let span = spans.enter("quiesce");
    dude.quiesce();
    spans.exit(span);
    spans.exit(setup);
    let setup_s = started.elapsed().as_secs_f64();

    let mut live = Live {
        nvm: &nvm,
        dude: &dude,
        thread,
        built: &built,
        model,
        rng,
        writes,
        failed,
    };
    let result = then(&mut live, spans);
    drop(live);
    let span = spans.enter("shutdown");
    drop(dude);
    spans.exit(span);
    (setup_s, result)
}

/// Result of the untraced measurement of one instance.
#[derive(Debug)]
pub struct Measured {
    /// Committed tx/s over the whole run: operations / elapsed.
    pub tps: f64,
    /// Committed tx/s of each equal-op window (diagnostics: how unevenly
    /// the run went).
    pub window_tps: Vec<f64>,
    /// Operations attempted in the windows.
    pub attempted: u64,
    /// Operations that failed: aborts during load, warm-up or the run,
    /// plus heap words that disagree with the model afterwards.
    pub failed: u64,
    /// 8 x device words written per committed tx, windows plus drain.
    pub nvm_bytes_per_tx: f64,
}

/// The end-to-end measurement: `plan.windows` equal-op windows of one
/// continuous run, the final drain, then the correctness gate.
pub fn measure(live: &mut Live<'_>, plan: &Plan, spans: &mut Spans) -> Measured {
    let per_window = plan.per_window();
    let before = live.nvm.stats();
    let mut failed = live.failed;
    let mut marks = Vec::with_capacity(plan.windows as usize + 1);
    let span = spans.enter("run");
    marks.push(Instant::now());
    for _ in 0..plan.windows {
        if marks[0].elapsed() > plan.deadline() {
            eprintln!(
                "dude-perf: over twice the time budget, stopping after {} windows",
                marks.len() - 1
            );
            break;
        }
        let model = &mut live.model;
        failed += drive(
            &mut live.thread,
            live.built.update.as_ref(),
            &mut live.rng,
            per_window,
            &mut live.writes,
            |w, _| model.apply(w),
        );
        marks.push(Instant::now());
    }
    spans.exit(span);
    let span = spans.enter("quiesce");
    live.dude.quiesce();
    spans.exit(span);
    let written = live.nvm.stats().delta(&before).words_written;
    let attempted = (marks.len() as u64 - 1) * per_window;
    let elapsed = *marks.last().expect("first mark") - marks[0];

    let span = spans.enter("verify");
    failed += verify(live);
    spans.exit(span);

    Measured {
        tps: attempted as f64 / elapsed.as_secs_f64(),
        window_tps: marks
            .windows(2)
            .map(|m| per_window as f64 / (m[1] - m[0]).as_secs_f64())
            .collect(),
        attempted,
        failed,
        nvm_bytes_per_tx: 8.0 * written as f64 / attempted as f64,
    }
}

/// The correctness gate of a drained instance: the NVM heap image must
/// equal the model word for word, and a transactional read-back of an
/// evenly spread sample must too. Returns the number of disagreeing words.
pub fn verify(live: &mut Live<'_>) -> u64 {
    let heap = live.dude.heap_region();
    let nvm = live.nvm;
    let mut bad = live
        .model
        .mismatches(|offset| nvm.read_word(heap.start() + offset));

    let words = live.dude.heap_words();
    let stride = (words / READBACK_WORDS).max(1);
    let model = &live.model;
    let mut next = 0u64;
    while next < words {
        let first = next;
        let seen = live.thread.run(&mut |tx| {
            let mut wrong = 0u64;
            let mut w = first;
            for _ in 0..READBACK_CHUNK {
                if w >= words {
                    break;
                }
                if tx.read_word(PAddr::from_word_index(w))? != model.words[w as usize] {
                    wrong += 1;
                }
                w += stride;
            }
            Ok(wrong)
        });
        bad += seen.expect_committed();
        next = first + READBACK_CHUNK * stride;
    }
    if bad > 0 {
        eprintln!("dude-perf: {bad} heap words disagree with the model");
    }
    bad
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn model_counts_mismatches() {
        let mut m = Model::new(4096);
        m.apply(&[(8, 7), (16, 9)]);
        assert_eq!(m.mismatches(|off| if off == 8 { 7 } else { 0 }), 1);
    }
}
