//! What the benchmark runs: the four workloads, the device model, the
//! DudeTM configuration of each, and the catalogue of metric names.
//!
//! Everything a later issue may want to cite — why a workload exists,
//! which unit and direction a metric has — lives here once; `main`
//! prints it, the smoke test compares it with `BENCHMARK.json`, and
//! `README.md` repeats it in prose.

use dude_nvm::{Nvm, NvmConfig, TimingConfig};
use dude_txapi::{PAddr, TxResult, Txn};
use dude_workloads::driver::Workload;
use dude_workloads::kv::{BTreeKv, HashKv};
use dude_workloads::rng::Rng;
use dude_workloads::tatp::Tatp;
use dude_workloads::tpcc::{Tpcc, TpccParams};
use dude_workloads::ycsb::SessionStore;
use dudetm::{DudeTmConfig, DurabilityMode, MetricsConfig, TraceConfig};

/// Equal-op windows one measured run is cut into (time-budget check and
/// the window spread printed to stderr; `tps` is the whole run's).
pub const WINDOWS: u64 = 40;
/// Set-ups timed per `--trace 0` run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Warm-up inside set-up, as a share of the measured op count.
pub const WARMUP_DIVISOR: u64 = 5;
/// The traced run measures this share of the untraced op count.
pub const TRACED_DIVISOR: u64 = 4;
/// Volatile-STM / DudeTM slice pairs in the traced run.
pub const SLICE_PAIRS: u64 = 20;
/// `persist_group` of the grouped workload (the paper's Figure 3 setting).
pub const GROUP: usize = 64;
/// Persistent log ring per Perform thread (paper default).
pub const PLOG_BYTES: u64 = 4 << 20;
/// Reproduce checkpoints every this many transactions.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Volatile log buffer of the asynchronous pipeline, in transactions.
pub const ASYNC_BUFFER_TXNS: usize = 16_384;
/// First heap byte workloads may use (word 0 is reserved).
const BASE: u64 = 64;

/// Which application a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TATP Update-Location over a hash index, 100 k subscribers.
    Tatp,
    /// TPC-C New-Order over a B+-tree index.
    Tpcc,
    /// YCSB update-only, zipf 0.99, 10 k records, B+-tree.
    Ycsb,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists (printed and in the README).
    pub why: &'static str,
    /// Measured operations per `--seconds` second. Sized on the reference
    /// host (2 vCPU) so that one second of budget is about one second of
    /// measuring; the op count itself is fixed, so counts repeat exactly.
    pub ops_per_second: u64,
    /// The application.
    pub kind: Kind,
    /// `true` runs `DurabilityMode::Sync`, else `Async{16384}`.
    pub sync: bool,
    /// `true` enables `persist_group = 64` with LZ compression.
    pub grouped: bool,
}

/// The four workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tatp_update",
        why: "one 8-byte write per tx: per-commit fixed costs (hook staging, record hand-off, framing, fence per sweep) are nearly all the work and Persist is the bottleneck",
        ops_per_second: 560_000,
        kind: Kind::Tatp,
        sync: false,
        grouped: false,
    },
    Spec {
        name: "tpcc_neworder",
        why: "~200 writes and ~5 KB of NVM traffic per tx: per-write staging, serialisation bandwidth and Reproduce apply dominate, per-commit fixed costs are amortised",
        ops_per_second: 33_000,
        kind: Kind::Tpcc,
        sync: false,
        grouped: false,
    },
    Spec {
        name: "ycsb_grouped",
        why: "zipf-skewed updates through sequencer, combine, LZ compress and in-order publish: the only workload on the grouped Persist path, where NVM bytes per tx is the headline",
        ops_per_second: 950_000,
        kind: Kind::Ycsb,
        sync: false,
        grouped: true,
    },
    Spec {
        name: "tatp_sync",
        why: "tatp_update's op stream with log append and fence inline on the client: bypasses the Perform-to-Persist hand-off and gives the Sync/Async ratio of the paper's Table 3",
        ops_per_second: 450_000,
        kind: Kind::Tatp,
        sync: true,
        grouped: false,
    },
];

/// Looks a workload up by name.
pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The op counts of one run, all derived from the measured count so that
/// `--smoke` and `--seconds` scale everything by one common factor.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured operations (a multiple of the window count).
    pub ops: u64,
    /// Equal-op windows.
    pub windows: u64,
    /// Warm-up operations inside set-up.
    pub warmup: u64,
    /// The `--seconds` budget the counts were derived from.
    pub seconds: u64,
    /// `--smoke`: skip the heap padding (and with it most page faults),
    /// shorten the crash slice.
    pub smoke: bool,
}

impl Plan {
    /// The plan for `ops_target` measured operations under a budget of
    /// `seconds`.
    pub fn new(ops_target: u64, seconds: u64, smoke: bool) -> Plan {
        let windows = WINDOWS.min(ops_target.max(1));
        let per_window = (ops_target / windows).max(1);
        let ops = per_window * windows;
        Plan {
            ops,
            windows,
            warmup: (ops / WARMUP_DIVISOR).max(1),
            seconds,
            smoke,
        }
    }

    /// A run still measuring after twice its budget stops at the next
    /// window boundary, so a much slower host cannot run away with the
    /// driver's time. On the reference host this never triggers and the
    /// executed operations repeat exactly.
    pub fn deadline(&self) -> std::time::Duration {
        std::time::Duration::from_secs(2 * self.seconds)
    }

    /// Operations per window.
    pub fn per_window(&self) -> u64 {
        self.ops / self.windows
    }

    /// Upper bound on update operations one instance executes (sizes the
    /// TPC-C arenas; the other applications update in place).
    pub fn capacity(&self) -> u64 {
        self.ops + self.warmup + 64
    }
}

/// A workload laid out in a heap: the measured operation, a read-only
/// operation over the same layout, and the heap size both need.
pub struct Built {
    /// The measured (update) operation and the load phase.
    pub update: Box<dyn Workload>,
    /// A read-only transaction over the same data (traced run only).
    pub read_only: Box<dyn Workload>,
    /// Persistent heap size in bytes (multiple of 4 KiB).
    pub heap_bytes: u64,
}

/// TPC-C scale: the paper's single warehouse shrunk to this container
/// (same as `dude-bench`).
fn tpcc_params(max_orders: u64) -> TpccParams {
    TpccParams {
        districts: 10,
        customers_per_district: 512,
        items: 10_000,
        max_orders,
        partition_by_worker: false,
        payment_pct: 0,
    }
}

/// Read-only TPC-C transaction: looks an early order up through the index
/// and reads its row. Orders `1..=8` of every district exist once warm-up
/// has run a few hundred New-Orders.
struct TpccOrderLookup(Tpcc<BTreeKv>);

impl Workload for TpccOrderLookup {
    fn name(&self) -> String {
        "TPC-C order lookup".into()
    }

    fn load_step(&self, _tx: &mut dyn Txn, _step: u64) -> TxResult<()> {
        Ok(())
    }

    fn op(&self, tx: &mut dyn Txn, rng: &mut Rng, _worker: usize) -> TxResult<()> {
        let d = rng.below(self.0.params().districts);
        let o_id = 1 + rng.below(8);
        let customer = self.0.order_customer(tx, d, o_id)?;
        std::hint::black_box(customer);
        Ok(())
    }
}

fn page_round(bytes: u64) -> u64 {
    bytes.next_multiple_of(4096)
}

/// Lays `spec`'s application out for an instance that executes at most
/// `capacity` update operations.
pub fn build(spec: &Spec, capacity: u64) -> Built {
    match spec.kind {
        Kind::Tatp => {
            let subscribers = 100_000u64;
            let buckets = subscribers * 2;
            let index_words = HashKv::words_needed(buckets);
            let records = PAddr::from_word_index(BASE / 8 + index_words);
            let heap_words = BASE / 8 + index_words + Tatp::<HashKv>::record_words(subscribers);
            let make = || {
                Tatp::new(
                    HashKv::new(PAddr::new(BASE), buckets),
                    records,
                    subscribers,
                    "TATP (hash)",
                )
            };
            Built {
                update: Box::new(make()),
                read_only: Box::new(make().into_mixed(0)),
                heap_bytes: page_round(heap_words * 8),
            }
        }
        Kind::Ycsb => {
            let records = 10_000u64;
            // Sequential load leaves leaves half full: 4 keys per node.
            let nodes = records / 2;
            let heap_words = BASE / 8 + BTreeKv::words_needed(nodes);
            let make = |update_pct| {
                SessionStore::new(
                    BTreeKv::new(PAddr::new(BASE), nodes),
                    records,
                    0.99,
                    update_pct,
                    "YCSB-update (zipf 0.99)",
                )
            };
            Built {
                update: Box::new(make(100)),
                read_only: Box::new(make(0)),
                heap_bytes: page_round(heap_words * 8),
            }
        }
        Kind::Tpcc => {
            let params = tpcc_params(capacity);
            // 12 index inserts per order on average (order, new-order, ten
            // lines), ascending per district, so leaves stay half full:
            // ~3 leaves plus ~1 inner node per order; 4.5 leaves slack.
            let nodes = capacity * 9 / 2 + 4096;
            let index_words = BTreeKv::words_needed(nodes);
            let tables = PAddr::from_word_index(BASE / 8 + index_words);
            let heap_words = BASE / 8 + index_words + Tpcc::<BTreeKv>::words_needed(&params);
            let make = || {
                Tpcc::new(
                    BTreeKv::new(PAddr::new(BASE), nodes),
                    tables,
                    params,
                    "TPC-C (B+-tree)",
                )
            };
            Built {
                update: Box::new(make()),
                read_only: Box::new(TpccOrderLookup(make())),
                heap_bytes: page_round(heap_words * 8),
            }
        }
    }
}

/// The paper's device model: 1 GB/s, 1000-cycle persist latency.
pub fn device_timing() -> TimingConfig {
    TimingConfig::paper_default()
}

/// Bytes a device needs for `config` (metadata, log rings, page-aligned heap).
pub fn device_bytes(config: &DudeTmConfig) -> u64 {
    config.heap_bytes + config.max_threads as u64 * config.plog_bytes_per_thread + 8192
}

/// A benchmark device (modeled timing, no crash tracking) for `config`.
pub fn bench_device(config: &DudeTmConfig) -> Nvm {
    Nvm::new(NvmConfig::for_benchmark(
        device_bytes(config),
        device_timing(),
    ))
}

/// The DudeTM configuration `spec` runs with: one Perform thread, identity
/// shadow, STM engine, one Persist and one Reproduce thread.
pub fn dude_config(spec: &Spec, heap_bytes: u64, traced: bool) -> DudeTmConfig {
    let mut config = DudeTmConfig::small(heap_bytes)
        .with_durability(if spec.sync {
            DurabilityMode::Sync
        } else {
            DurabilityMode::Async {
                buffer_txns: ASYNC_BUFFER_TXNS,
            }
        })
        .with_flush_workers(1)
        .with_reproduce_threads(1);
    if spec.grouped {
        config = config.with_grouping(GROUP, true);
    }
    if traced {
        config = config
            .with_trace(TraceConfig::enabled(1 << 16))
            .with_metrics(MetricsConfig::sampling(std::time::Duration::from_millis(
                10,
            )));
    }
    config.plog_bytes_per_thread = PLOG_BYTES;
    config.max_threads = 1;
    config.checkpoint_every = CHECKPOINT_EVERY;
    config
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics are not gated).
    pub bound: Option<f64>,
    /// One-line glossary entry.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), reported for every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25, "median of the run's three set-ups: build workload, Nvm::new, create_stm, first touch, load, warm-up, quiesce"),
    e2e("tps", "1/s", Higher, 0.25, "committed tx/s of one continuous closed-loop run: measured operations / elapsed time"),
    e2e("nvm_bytes_per_tx", "B", Lower, 0.01, "8 x NVM words written (log + reproduced heap + checkpoints) per committed tx, set-up excluded, final quiesce included"),
    e2e("rss_peak_mb", "MB", Lower, 0.25, "VmHWM of the benchmark process at exit, in MiB"),
];

/// Per-layer metrics (`--trace 1`), reported for every workload; a layer
/// that is not on a workload's path reports 0.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("stm.volatile_ns_per_tx", "ns", Lower, "Volatile-STM wall time per tx, median slice: the floor of tps"),
    layer("runtime.vs_volatile", "ratio", Higher, "DudeTM / Volatile-STM throughput, median over interleaved slice pairs (the paper's headline)"),
    layer("runtime.perform_cpu_ns_per_tx", "ns", Lower, "driver-thread CPU time per DudeTM tx, median slice"),
    layer("runtime.fg_overhead_ns_per_tx", "ns", Lower, "driver-thread CPU per tx minus the paired Volatile-STM slice's, median pair"),
    layer("runtime.commit_p50_ns", "ns", Lower, "Perform-side commit latency p50 (commit_latency_ns histogram, traced run)"),
    layer("runtime.commit_p99_ns", "ns", Lower, "Perform-side commit latency p99"),
    layer("runtime.read_only_vs_volatile", "ratio", Higher, "DudeTM / Volatile-STM throughput on read-only slices, median pair"),
    layer("runtime.log_full_stalls", "count", Lower, "times Perform found the volatile log buffer full (traced run)"),
    layer("pipeline.ack_p50_us", "us", Lower, "pipelined durable-acknowledgement latency p50 (paper section 5.3), sampled every 64th tx"),
    layer("pipeline.ack_p99_us", "us", Lower, "pipelined durable-acknowledgement latency p99"),
    layer("pipeline.persist_drain_ms", "ms", Lower, "last commit to everything durable"),
    layer("pipeline.reproduce_drain_ms", "ms", Lower, "everything durable to everything reproduced"),
    layer("pipeline.bg_cpu_ns_per_tx", "ns", Lower, "process CPU minus driver-thread CPU per tx: what the stage threads burn"),
    layer("pipeline.records_per_fence", "ratio", Higher, "transactions made durable per Persist fence (device fences minus checkpoints)"),
    layer("pipeline.ring_full_stalls", "count", Lower, "times Persist found its log ring full"),
    layer("pipeline.seq_wait_stalls", "count", Lower, "idle sequencer ticks with records stashed beyond a TID gap"),
    layer("pipeline.reproduce_starved", "count", Lower, "Reproduce idle ticks with nothing queued"),
    layer("pipeline.checkpoints_per_ktx", "1/ktx", Lower, "reproduced-ID checkpoints per thousand tx"),
    layer("pipeline.persist_barrier_p50_ns", "ns", Lower, "Persist flush+fence barrier p50 (persist_barrier_ns histogram)"),
    layer("pipeline.flush_worker_p50_ns", "ns", Lower, "grouped flush-worker barrier p50 (flush_worker_ns histogram)"),
    layer("pipeline.replay_apply_p50_ns", "ns", Lower, "Reproduce apply p50 per batch (replay_apply_ns histogram)"),
    layer("log.serialize_ns_per_tx", "ns", Lower, "serialize_commit over captured write-sets"),
    layer("log.parse_ns_per_tx", "ns", Lower, "parse_record over the serialized records"),
    layer("log.words_per_tx", "words", Lower, "serialized record words per tx"),
    layer("log.combine_ns_per_tx", "ns", Lower, "combine_sorted over groups of 64 captured tx, per tx"),
    layer("log.combine_keep_ratio", "ratio", Lower, "entries after / before combination over groups of 64"),
    layer("compress.ns_per_byte", "ns/B", Lower, "dude_compress::compress over combined group payloads, per input byte"),
    layer("compress.decompress_ns_per_byte", "ns/B", Lower, "dude_compress::decompress, per output byte"),
    layer("compress.stored_ratio", "ratio", Lower, "stored / raw group payload bytes as serialize_group reports them"),
    layer("plog.append_ns_per_tx", "ns", Lower, "PlogRing::append_unfenced + fence on an untimed scratch device"),
    layer("plog.log_bytes_per_tx", "B", Lower, "bytes appended to the persistent log rings per tx (traced run)"),
    layer("nvm.words_written_per_tx", "words", Lower, "device word stores per tx (traced run)"),
    layer("nvm.bytes_flushed_per_tx", "B", Lower, "bytes covered by flushes per tx"),
    layer("nvm.fences_per_tx", "1/tx", Lower, "fences per tx"),
    layer("nvm.modeled_wait_ns_per_tx", "ns", Lower, "modeled persist delay per tx"),
    layer("recovery.scan_ms", "ms", Lower, "recovery log scan (RecoveryReport::scan_ns)"),
    layer("recovery.replay_us_per_tx", "us", Lower, "recovery replay time per replayed tx"),
    layer("recovery.wipe_ms", "ms", Lower, "recovery log wipe"),
    layer("recovery.replayed", "count", Higher, "transactions recovery replayed past the checkpoint"),
    layer("trace.overhead_pct", "%", Lower, "100 x (1 - traced / untraced DudeTM tps): the cost of the repo's own instrumentation"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry lacks {key}"))
    }

    /// `BENCHMARK.json` and this catalogue must say the same thing.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("parses");

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
            assert!(
                spec.why.len() <= 200,
                "{}: why is over 200 characters",
                spec.name
            );
        }
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(section).and_then(Value::as_array).expect(section);
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(text(m, "name"), def.name);
                assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(m, "better"), def.better.as_str(), "{}", def.name);
                assert_eq!(
                    m.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn plans_scale_by_one_factor_and_keep_whole_windows() {
        let plan = Plan::new(5_600_000, 10, false);
        assert_eq!(
            (plan.ops, plan.windows, plan.warmup),
            (5_600_000, 40, 1_120_000)
        );
        let smoke = Plan::new(330, 10, true);
        assert_eq!(smoke.ops % smoke.windows, 0);
        assert!(smoke.ops <= 330 && smoke.warmup >= 1);
        assert_eq!(Plan::new(7, 1, true).windows, 7);
    }

    #[test]
    fn every_workload_builds_and_validates() {
        for spec in &SPECS {
            let built = build(spec, 1_000);
            assert_eq!(built.heap_bytes % 4096, 0);
            for traced in [false, true] {
                dude_config(spec, built.heap_bytes, traced)
                    .try_validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
        }
    }
}
