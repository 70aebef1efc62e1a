//! Continuous telemetry: the sampler's frame ring, Prometheus text
//! exposition, and the optional scrape server.
//!
//! The trace layer ([`crate::trace`]) is post-mortem: histograms and stall
//! counters you read after the run. This module turns the same cells into
//! a *continuous* surface. It stores no metric of its own: everything it
//! reports is one walk of the catalog ([`crate::stats`]) over a
//! [`PipelineSnapshot`] gathered at that moment, so gauges are computed
//! when read and a scrape between sampler ticks is fresh (catalog table:
//! `DESIGN.md §Observability`):
//!
//! * [`MetricsRegistry`] — one runtime's reporting handle: takes catalog
//!   snapshots and keeps a bounded ring of sampled [`MetricsFrame`]s. Only
//!   the cold frame ring (written once per `sample_interval`) takes a
//!   mutex.
//! * [`MetricsFrame`] — one sampler tick: `{seq, ts_ns, dt_ns}`, the
//!   catalog's scalar values, and rates derived from the previous frame.
//!   Exported as JSON lines, parsed back by
//!   [`MetricsFrame::from_json_line`] (the `dude-top` replay path).
//! * [`MetricsRegistry::render_prometheus`] — standard text exposition
//!   (version 0.0.4): counters as `_total`, gauges plain, histograms as
//!   cumulative `_bucket`/`_sum`/`_count`. [`validate_exposition`] is the
//!   matching format checker used by tests and CI.
//! * [`MetricsServer`] — a std-only blocking HTTP listener serving
//!   `GET /metrics`. Native builds only by design: it blocks OS threads on
//!   `accept(2)`, which the sim scheduler cannot preempt, so it is never
//!   spawned through the `dude_nvm::thread` facade.
//! * [`RecoveryPhase`] — the encoding of the `recovery_phase` gauge that
//!   [`crate::recover_device`] variants step through while scanning,
//!   replaying, and wiping.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::runtime::Shared;
use crate::stats::{
    snapshot, CellDef, Kind, PipelineSnapshot, PipelineStatsSnapshot, RecoveryTelemetry,
    StallSnapshot, Watermarks,
};
use crate::trace::{bucket_bounds, HistogramSnapshot};

/// Configuration of the continuous-telemetry layer (a field of
/// [`crate::DudeTmConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Master switch. When `false` (the default) no sampler thread is
    /// spawned, no frame is captured, and the pipeline's hot paths pay one
    /// branch per instrumentation point.
    pub enabled: bool,
    /// Sampler cadence. Under `--features sim` this is virtual time on the
    /// simulated clock, so sampled schedules stay deterministic.
    pub sample_interval: Duration,
}

impl MetricsConfig {
    /// Telemetry off — the default. The sampler is not spawned and the
    /// pipeline's observable behavior is identical to a build without the
    /// layer (verified by `tests/metrics_layer.rs`).
    #[must_use]
    pub fn disabled() -> Self {
        MetricsConfig {
            enabled: false,
            sample_interval: Duration::from_millis(10),
        }
    }

    /// Telemetry on, sampling a frame every `sample_interval` into a ring
    /// of [`MetricsRegistry::FRAME_CAPACITY`] frames.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is zero.
    #[must_use]
    pub fn sampling(sample_interval: Duration) -> Self {
        assert!(
            !sample_interval.is_zero(),
            "an enabled sampler needs a nonzero interval"
        );
        MetricsConfig {
            enabled: true,
            sample_interval,
        }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One runtime's reporting handle: catalog snapshots on demand plus the
/// bounded ring of sampled [`MetricsFrame`]s. Obtain via
/// [`DudeTm::metrics`](crate::DudeTm::metrics).
#[derive(Debug)]
pub struct MetricsRegistry {
    shared: Arc<Shared>,
    frames: Mutex<VecDeque<MetricsFrame>>,
    frames_recorded: AtomicU64,
}

impl MetricsRegistry {
    /// Capacity of the frame ring (about 40 s of history at the 10 ms
    /// cadence CI uses); the oldest frames are dropped once it fills.
    pub const FRAME_CAPACITY: usize = 4096;

    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        MetricsRegistry {
            shared,
            frames: Mutex::new(VecDeque::new()),
            frames_recorded: AtomicU64::new(0),
        }
    }

    /// The configuration the runtime was built with.
    #[must_use]
    pub fn config(&self) -> MetricsConfig {
        self.shared.config.metrics
    }

    /// Whether continuous sampling is on.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config().enabled
    }

    /// The whole catalog, read now. `committed` comes from the committed
    /// high-water cell, which Perform only advances while sampling is
    /// enabled; [`DudeTm::stats_snapshot`](crate::DudeTm::stats_snapshot)
    /// reads the TM commit clock instead.
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        let committed = self.shared.committed_tid.0.load(Ordering::Relaxed);
        snapshot(&self.shared, committed)
    }

    /// Captures one frame now, with rates derived against the previous
    /// frame in the ring, dropping the oldest once the ring holds
    /// [`MetricsRegistry::FRAME_CAPACITY`] frames.
    pub(crate) fn sample(&self) {
        let snap = self.snapshot();
        let mut frames = self.frames.lock();
        let frame = MetricsFrame {
            ts_ns: dude_nvm::monotonic_ns(),
            counters: snap.counters,
            watermarks: snap.watermarks(),
            stalls: snap.stalls,
            ..MetricsFrame::default()
        }
        .with_rates_from(frames.back());
        if frames.len() == Self::FRAME_CAPACITY {
            frames.pop_front();
        }
        frames.push_back(frame);
        self.frames_recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// All frames currently held, oldest first.
    #[must_use]
    pub fn frames(&self) -> Vec<MetricsFrame> {
        self.frames.lock().iter().cloned().collect()
    }

    /// The most recent frame, if any.
    #[must_use]
    pub fn latest_frame(&self) -> Option<MetricsFrame> {
        self.frames.lock().back().cloned()
    }

    /// Total frames ever captured (including ones the bounded ring has
    /// since dropped).
    #[must_use]
    pub fn frames_recorded(&self) -> u64 {
        self.frames_recorded.load(Ordering::Relaxed)
    }

    /// The held frames as JSON lines (one frame per line, oldest first,
    /// trailing newline when non-empty) — the `--metrics-out` format.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let frames = self.frames.lock();
        let mut out = String::new();
        for f in frames.iter() {
            out.push_str(&f.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Renders the whole catalog in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` per family, counters with a
    /// `_total` suffix, gauges plain, histograms as cumulative
    /// `_bucket{le="..."}` lines (one per power-of-two bucket bound, then
    /// `+Inf`) plus `_sum` and `_count`. All names carry the `dudetm_`
    /// prefix. The output passes [`validate_exposition`].
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(4096);
        let pipeline = snap.counters.cells().chain(snap.stalls.cells());
        for (cell, value) in pipeline.chain(snap.watermarks().cells()) {
            render_scalar(&mut out, cell, value);
        }
        // The snapshot's histogram list is this same enumeration, in order.
        let catalog = self.shared.trace.histograms();
        for (entry, (_, hist)) in catalog.zip(&snap.histograms) {
            render_histogram(&mut out, entry.family, entry.help, entry.label, hist);
        }
        for (cell, value) in snap.recovery.cells() {
            render_scalar(&mut out, cell, value);
        }
        out
    }
}

fn render_scalar(out: &mut String, cell: &CellDef, value: u64) {
    let (name, kind) = match cell.kind {
        Kind::Counter => (format!("dudetm_{}_total", cell.metric), "counter"),
        Kind::Gauge => (format!("dudetm_{}", cell.metric), "gauge"),
    };
    let help = cell.help;
    let _ = write!(
        out,
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    );
}

/// Appends one histogram to a Prometheus exposition as `dudetm_<family>`:
/// cumulative `_bucket` lines, then `_sum` and `_count`, each carrying
/// `label` (`(key, index)`) when the family has several members. The
/// family's `# HELP`/`# TYPE` header is written by its first member — the
/// unlabeled one, or index 0.
pub fn render_histogram(
    out: &mut String,
    family: &str,
    help: &str,
    label: Option<(&str, usize)>,
    hist: &HistogramSnapshot,
) {
    if label.is_none_or(|(_, index)| index == 0) {
        let _ = write!(
            out,
            "# HELP dudetm_{family} {help}\n# TYPE dudetm_{family} histogram\n"
        );
    }
    let (bucket_labels, labels) = match label {
        Some((key, index)) => (
            format!("{key}=\"{index}\","),
            format!("{{{key}=\"{index}\"}}"),
        ),
        None => Default::default(),
    };
    let mut cum = 0u64;
    for (b, &n) in hist.buckets.iter().enumerate() {
        cum += n;
        let le = if b + 1 < hist.buckets.len() {
            bucket_bounds(b).1.to_string()
        } else {
            "+Inf".to_string()
        };
        let _ = writeln!(
            out,
            "dudetm_{family}_bucket{{{bucket_labels}le=\"{le}\"}} {cum}"
        );
    }
    let _ = write!(
        out,
        "dudetm_{family}_sum{labels} {}\ndudetm_{family}_count{labels} {}\n",
        hist.sum, hist.count
    );
}

/// One sampler tick: the catalog's scalar cells — cumulative stage
/// counters, watermark and lag gauges, stall counters — and rates derived
/// against the previous frame. Captured every `sample_interval` by the
/// background sampler (or on demand via
/// [`DudeTm::sample_metrics_now`](crate::DudeTm::sample_metrics_now));
/// a final frame is captured after the pipeline drains at shutdown, so the
/// last frame of a run reconciles exactly with the final
/// [`crate::PipelineSnapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    /// Frame index within the run (0-based, monotonically increasing).
    pub seq: u64,
    /// Capture timestamp: nanoseconds on the [`dude_nvm::monotonic_ns`]
    /// clock (virtual time under `--features sim`).
    pub ts_ns: u64,
    /// Nanoseconds since the previous frame (or since the clock epoch for
    /// the first frame).
    pub dt_ns: u64,
    /// Cumulative stage counters.
    pub counters: PipelineStatsSnapshot,
    /// The gauges as of this tick.
    pub watermarks: Watermarks,
    /// Cumulative stall counters (deltas between consecutive frames give
    /// the per-interval stall activity).
    pub stalls: StallSnapshot,
    /// Commits per second over `dt_ns`.
    pub commit_rate: f64,
    /// Persisted units (groups + individual records) per second.
    pub persist_rate: f64,
    /// Replayed transactions per second.
    pub replay_rate: f64,
    /// Log bytes flushed per second.
    pub flush_bytes_rate: f64,
}

impl MetricsFrame {
    /// Fills `seq`, `dt_ns`, and the four rate fields from the previous
    /// frame (pass `None` for the first frame of a run).
    #[must_use]
    pub fn with_rates_from(mut self, prev: Option<&MetricsFrame>) -> MetricsFrame {
        let zero = PipelineStatsSnapshot::default();
        let (prev_ts, was) = prev.map_or((0, &zero), |p| (p.ts_ns, &p.counters));
        self.seq = prev.map_or(0, |p| p.seq + 1);
        self.dt_ns = self.ts_ns.saturating_sub(prev_ts);
        let scale = if self.dt_ns == 0 {
            0.0
        } else {
            1e9 / self.dt_ns as f64
        };
        let rate = |now: u64, was: u64| now.saturating_sub(was) as f64 * scale;
        let now = &self.counters;
        self.commit_rate = rate(now.commits, was.commits);
        self.persist_rate = rate(
            now.groups_persisted + now.records_persisted,
            was.groups_persisted + was.records_persisted,
        );
        self.replay_rate = rate(now.txns_reproduced, was.txns_reproduced);
        self.flush_bytes_rate = rate(now.log_bytes_flushed, was.log_bytes_flushed);
        self
    }

    /// Serializes the frame as one flat JSON object (no newline). Stable
    /// key set and order — `seq`/`ts_ns`/`dt_ns`, the catalog's counters,
    /// gauges and stalls under [`CellDef::name`], the four rates — with
    /// rates printed to three decimals.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"ts_ns\":{},\"dt_ns\":{}",
            self.seq, self.ts_ns, self.dt_ns
        );
        let cells = self.counters.cells().chain(self.watermarks.cells());
        for (cell, value) in cells.chain(self.stalls.cells()) {
            let _ = write!(out, ",\"{}\":{value}", cell.name);
        }
        let _ = write!(
            out,
            ",\"commit_rate\":{:.3},\"persist_rate\":{:.3},\"replay_rate\":{:.3},\
             \"flush_bytes_rate\":{:.3}}}",
            self.commit_rate, self.persist_rate, self.replay_rate, self.flush_bytes_rate
        );
        out
    }

    /// Parses one [`MetricsFrame::to_json_line`] line back into a frame.
    /// Returns `None` on a malformed line or a missing integer key (the
    /// rate keys default to 0 when absent, for forward compatibility).
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<MetricsFrame> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let u = |key: &str| -> Option<u64> { json_number(line, key)?.parse().ok() };
        let f = |key: &str| -> f64 {
            json_number(line, key)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0)
        };
        Some(MetricsFrame {
            seq: u("seq")?,
            ts_ns: u("ts_ns")?,
            dt_ns: u("dt_ns")?,
            counters: PipelineStatsSnapshot::from_keys(u)?,
            watermarks: Watermarks::from_keys(u)?,
            stalls: StallSnapshot::from_keys(u)?,
            commit_rate: f("commit_rate"),
            persist_rate: f("persist_rate"),
            replay_rate: f("replay_rate"),
            flush_bytes_rate: f("flush_bytes_rate"),
        })
    }
}

/// Extracts the raw numeric token after `"key":` in a flat JSON object.
fn json_number<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    if token.is_empty() {
        None
    } else {
        Some(token)
    }
}

/// Checks `text` against the Prometheus text exposition format (version
/// 0.0.4) as [`MetricsRegistry::render_prometheus`] produces it: every
/// sample's family must be declared by a preceding `# TYPE` line, values
/// must parse as numbers, histogram buckets must be cumulative
/// (non-decreasing in declaration order) and agree with `_count` at
/// `+Inf`.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, String)> = Vec::new(); // (family, type)
                                                       // (family, labels-without-le) -> (last cumulative, +Inf value)
    let mut hist_cum: Vec<(String, u64, Option<u64>)> = Vec::new();
    let mut hist_count: Vec<(String, u64)> = Vec::new();
    let type_of = |types: &[(String, String)], fam: &str| -> Option<String> {
        types.iter().find(|(f, _)| f == fam).map(|(_, t)| t.clone())
    };
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let fam = it.next().ok_or(format!("line {ln}: bare # TYPE"))?;
            let ty = it.next().ok_or(format!("line {ln}: # TYPE without type"))?;
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(format!("line {ln}: unknown type '{ty}'"));
            }
            if type_of(&types, fam).is_some() {
                return Err(format!("line {ln}: duplicate # TYPE for '{fam}'"));
            }
            types.push((fam.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: no value: '{line}'"))?;
        let v: f64 = value
            .parse()
            .map_err(|_| format!("line {ln}: bad value '{value}'"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {ln}: unterminated labels: '{line}'"))?;
                (n, labels)
            }
            None => (name_labels, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {ln}: invalid metric name '{name}'"));
        }
        samples += 1;
        // Histogram component names resolve to the family they belong to.
        let (family, component) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf).and_then(|fam| {
                    (type_of(&types, fam).as_deref() == Some("histogram"))
                        .then(|| (fam.to_string(), *suf))
                })
            })
            .unwrap_or((name.to_string(), ""));
        let Some(ty) = type_of(&types, &family) else {
            return Err(format!("line {ln}: sample '{name}' has no # TYPE"));
        };
        if ty == "histogram" && component.is_empty() {
            return Err(format!(
                "line {ln}: bare sample '{name}' for histogram family"
            ));
        }
        if ty != "histogram" && v < 0.0 && ty == "counter" {
            return Err(format!("line {ln}: negative counter '{name}'"));
        }
        if component == "_bucket" {
            let mut le = None;
            let mut key_labels = String::new();
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, val) = pair
                    .split_once('=')
                    .ok_or(format!("line {ln}: bad label '{pair}'"))?;
                let val = val.trim_matches('"');
                if k == "le" {
                    le = Some(val.to_string());
                } else {
                    key_labels.push_str(pair);
                }
            }
            let le = le.ok_or(format!("line {ln}: bucket without le label"))?;
            let cum = v as u64;
            let key = format!("{family}{{{key_labels}}}");
            match hist_cum.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, last, inf)) => {
                    if cum < *last {
                        return Err(format!(
                            "line {ln}: bucket counts of '{key}' not cumulative \
                             ({cum} after {last})"
                        ));
                    }
                    *last = cum;
                    if le == "+Inf" {
                        *inf = Some(cum);
                    }
                }
                None => {
                    hist_cum.push((key, cum, (le == "+Inf").then_some(cum)));
                }
            }
        } else if component == "_count" {
            let key_labels = labels
                .split(',')
                .filter(|p| !p.is_empty() && !p.starts_with("le="))
                .collect::<String>();
            hist_count.push((format!("{family}{{{key_labels}}}"), v as u64));
        }
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    for (key, _, inf) in &hist_cum {
        let inf = inf.ok_or(format!("histogram '{key}' has no +Inf bucket"))?;
        match hist_count.iter().find(|(k, _)| k == key) {
            Some((_, count)) if *count != inf => {
                return Err(format!(
                    "histogram '{key}': +Inf bucket {inf} != count {count}"
                ));
            }
            Some(_) => {}
            None => return Err(format!("histogram '{key}' has no _count sample")),
        }
    }
    Ok(())
}

/// A tiny std-only blocking HTTP listener serving the registry's
/// Prometheus exposition at `GET /metrics`.
///
/// Runs on a plain [`std::thread`] (never the `dude_nvm::thread` facade):
/// it blocks on `accept(2)`, which a cooperative sim task must not do, so
/// the server is a native-only convenience and is not part of the
/// deterministic surface. Dropping the server shuts it down (the drop
/// self-connects to unblock `accept` and joins the thread).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
    /// `registry`'s exposition until dropped.
    ///
    /// # Errors
    ///
    /// The bind/spawn [`std::io::Error`].
    pub fn start(registry: Arc<MetricsRegistry>, bind: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("dude-metrics-http".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown2.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(mut stream) = stream {
                        let _ = serve_one(&mut stream, &registry);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock accept(2) with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(stream: &mut TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&req);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && path == "/metrics" {
        ("200 OK", registry.render_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; \
         charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

/// Recovery phase reported through the `phase` cell of [`RecoveryTelemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Not recovering.
    Idle,
    /// Scanning the log regions for intact records.
    Scan,
    /// Replaying the checkpoint's run into the heap image.
    Replay,
    /// Wiping dead log records.
    Wipe,
    /// Recovery complete.
    Done,
}

impl RecoveryPhase {
    /// The gauge encoding (0 = idle … 4 = done).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        match self {
            RecoveryPhase::Idle => 0,
            RecoveryPhase::Scan => 1,
            RecoveryPhase::Replay => 2,
            RecoveryPhase::Wipe => 3,
            RecoveryPhase::Done => 4,
        }
    }
}

impl RecoveryTelemetry {
    /// Sets the phase gauge.
    pub fn set_phase(&self, phase: RecoveryPhase) {
        self.phase.store(phase.as_u64(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DudeTmConfig;
    use crate::runtime::NvmLayout;
    use dude_nvm::{Nvm, NvmConfig};

    /// A registry over a runtime's shared state with no stage threads, so
    /// tests own every cell.
    fn registry(config: DudeTmConfig) -> MetricsRegistry {
        let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
        let layout = NvmLayout::compute(nvm.size_bytes(), &config).unwrap();
        let recovery = RecoveryTelemetry::default();
        MetricsRegistry::new(Arc::new(Shared::new(nvm, config, &layout, 0, recovery)))
    }

    /// Publishes `commits` commit records, then `aborts` abort markers, on
    /// redo ring 0: what the `commits` and `abort_markers` cells sum.
    fn publish_counts(shared: &Shared, commits: u64, aborts: u64) {
        let mut producer = crate::redo_ring::RedoProducer::new(&shared.redo[0]);
        for tid in 1..=commits + aborts {
            assert!(producer.try_push(tid, tid > commits, &[]));
        }
    }

    /// The catalog, by frame key, in declaration order. The DESIGN.md §7
    /// table carries one row per name here; a cell added to the code
    /// without a row in both fails [`catalog_walk`].
    const CATALOG: [&str; 36] = [
        "commits",
        "abort_markers",
        "records_persisted",
        "entries_logged",
        "groups_persisted",
        "entries_after_combine",
        "group_bytes_raw",
        "group_bytes_stored",
        "txns_reproduced",
        "checkpoints",
        "log_bytes_flushed",
        "committed",
        "durable",
        "reproduced",
        "persist_lag",
        "reproduce_lag",
        "ring_used_words",
        "stall_perform_log_full",
        "stall_persist_ring_full",
        "stall_persist_seq_wait",
        "stall_reproduce_starved",
        "commit_latency_ns",
        "persist_barrier_ns",
        "group_flush_bytes",
        "combine_ns",
        "replay_apply_ns{shard=\"0\"}",
        "flush_worker_ns{worker=\"0\"}",
        "flush_worker_ns{worker=\"1\"}",
        "recovery_phase",
        "recovery_records_scanned",
        "recovery_bytes_scanned",
        "recovery_txns_replayed",
        "recovery_bytes_replayed",
        "recovery_records_discarded",
        "recovery_stale_skipped",
        "recovery_bytes_wiped",
    ];

    /// The frame line `to_json_line` prints for the values [`catalog_walk`]
    /// sets: the pre-catalog line minus `entries_before_combine`, which
    /// duplicated `entries_logged`, and minus the Reproduce-shard cells
    /// `frontier_min`, `frontier_skew` and `stall_checkpoint_wait`. Recorded
    /// `--metrics-out` files must keep parsing (unknown keys are ignored),
    /// so keys, order and number formatting are pinned to it.
    const GOLDEN_FRAME: &str = "{\"seq\":0,\"ts_ns\":2000000,\"dt_ns\":2000000,\
        \"commits\":101,\"abort_markers\":102,\"records_persisted\":103,\
        \"entries_logged\":104,\"groups_persisted\":105,\
        \"entries_after_combine\":106,\"group_bytes_raw\":107,\"group_bytes_stored\":108,\
        \"txns_reproduced\":109,\"checkpoints\":110,\"log_bytes_flushed\":111,\
        \"committed\":40,\"durable\":33,\"reproduced\":20,\"persist_lag\":7,\
        \"reproduce_lag\":13,\"ring_used_words\":9,\
        \"stall_perform_log_full\":201,\"stall_persist_ring_full\":202,\
        \"stall_persist_seq_wait\":203,\"stall_reproduce_starved\":204,\
        \"commit_rate\":50500.000,\"persist_rate\":104000.000,\
        \"replay_rate\":54500.000,\"flush_bytes_rate\":55500.000}";

    /// Every catalog entry — 2 Persist workers, each cell bumped
    /// to a distinct value — shows up with that value on every surface that
    /// carries its kind: `summary()`, a JSONL frame (byte-equal to the
    /// pre-catalog line, exact round trip) and the Prometheus text.
    #[test]
    fn catalog_walk() {
        let config = DudeTmConfig::small(1 << 16).with_flush_workers(2);
        let reg = registry(config);
        let shared = &reg.shared;
        // commits 101 and abort_markers 102 are the redo rings' counts.
        publish_counts(shared, 101, 102);
        let groups = [
            (102, shared.stats.cells().collect::<Vec<_>>()),
            (200, shared.trace.stalls.cells().collect()),
            (300, shared.recovery.cells().collect()),
        ];
        for (base, cells) in &groups {
            for (i, cell) in cells.iter().enumerate() {
                cell.store(base + 1 + i as u64, Ordering::Relaxed);
            }
        }
        // The gauges' sources: committed 40, durable 33, reproduced 20,
        // 3 + 6 occupied ring words.
        shared.committed_tid.0.store(40, Ordering::Relaxed);
        shared.durable.advance(33);
        shared.reproduced.store(20, Ordering::Relaxed);
        shared.rings[0].try_append_unflushed(&[1, 2, 3]).unwrap();
        shared.rings[1]
            .try_append_unflushed(&[1, 2, 3, 4, 5, 6])
            .unwrap();
        for (i, h) in shared.trace.histograms().enumerate() {
            for _ in 0..=i {
                h.cells.record(1000 * (i as u64 + 1));
            }
        }

        let snap = reg.snapshot();
        let names: Vec<String> = (snap.counters.cells())
            .chain(snap.watermarks().cells())
            .chain(snap.stalls.cells())
            .map(|(c, _)| c.name.to_string())
            .chain(snap.histograms.iter().map(|(name, _)| name.clone()))
            .chain(snap.recovery.cells().map(|(c, _)| c.name.to_string()))
            .collect();
        assert_eq!(names, CATALOG);
        let design = include_str!("../../../DESIGN.md");
        for name in CATALOG {
            let family = name.split('{').next().unwrap();
            assert!(
                design.contains(&format!("| `{family}` |")),
                "DESIGN.md §7 has no table row for `{family}`"
            );
        }

        let summary = snap.summary();
        let prom = reg.render_prometheus();
        validate_exposition(&prom).expect("exposition validates");
        let frame = MetricsFrame {
            ts_ns: 2_000_000,
            counters: snap.counters,
            watermarks: snap.watermarks(),
            stalls: snap.stalls,
            ..Default::default()
        }
        .with_rates_from(None);
        let line = frame.to_json_line();
        assert_eq!(line, GOLDEN_FRAME);
        assert_eq!(MetricsFrame::from_json_line(&line), Some(frame));

        let gauge_tokens = [
            "committed=40 ",
            "durable=33 (lag 7)",
            "reproduced=20 (lag 13)",
            "(lag 7)",
            "(lag 13)",
            "ring-words=9",
        ];
        let scalars = (snap.counters.cells())
            .chain(snap.stalls.cells())
            .chain(snap.recovery.cells())
            .map(|(c, v)| (c, v, format!("{}={v}", c.field)))
            .chain(
                (snap.watermarks().cells().zip(gauge_tokens))
                    .map(|((c, v), token)| (c, v, token.to_string())),
            );
        for (cell, value, token) in scalars {
            let sample = match cell.kind {
                Kind::Counter => format!("\ndudetm_{}_total {value}\n", cell.metric),
                Kind::Gauge => format!("\ndudetm_{} {value}\n", cell.metric),
            };
            assert!(prom.contains(&sample), "{sample:?} missing:\n{prom}");
            if cell.name.starts_with("recovery_") {
                continue; // describes recover_device, not the live pipeline
            }
            assert!(summary.contains(&token), "{token} missing:\n{summary}");
            let key = format!("\"{}\":{value}", cell.name);
            assert!(line.contains(&key), "{key} missing: {line}");
        }
        for (i, (name, h)) in snap.histograms.iter().enumerate() {
            let (count, sum) = (i as u64 + 1, 1000 * (i as u64 + 1).pow(2));
            assert_eq!((h.count, h.sum), (count, sum), "{name}");
            let token = format!("hist[{name} count={count} ");
            assert!(summary.contains(&token), "{token} missing:\n{summary}");
            let (family, labels) = match name.split_once('{') {
                Some((family, labels)) => (family, format!("{{{labels}")),
                None => (name.as_str(), String::new()),
            };
            for sample in [
                format!("\ndudetm_{family}_sum{labels} {sum}\n"),
                format!("\ndudetm_{family}_count{labels} {count}\n"),
            ] {
                assert!(prom.contains(&sample), "{sample:?} missing:\n{prom}");
            }
        }
        // One header per family, however many members it has.
        for family in ["replay_apply_ns", "flush_worker_ns", "commits_total"] {
            let header = format!("# TYPE dudetm_{family} ");
            assert_eq!(prom.matches(&header).count(), 1, "{family}");
        }
        assert!(
            prom.contains("dudetm_replay_apply_ns_bucket{shard=\"0\",le=\"+Inf\"} 5\n"),
            "{prom}"
        );
    }

    #[test]
    fn frame_json_round_trips() {
        let frame = MetricsFrame {
            ts_ns: 1_000_000,
            counters: PipelineStatsSnapshot {
                commits: 42,
                groups_persisted: 5,
                records_persisted: 1,
                txns_reproduced: 40,
                log_bytes_flushed: 4096,
                ..Default::default()
            },
            watermarks: Watermarks {
                committed: 42,
                durable: 41,
                reproduced: 40,
                persist_lag: 1,
                reproduce_lag: 1,
                ..Default::default()
            },
            stalls: StallSnapshot {
                perform_log_full: 2,
                ..Default::default()
            },
            ..Default::default()
        }
        .with_rates_from(None);
        assert_eq!(frame.seq, 0);
        assert_eq!(frame.dt_ns, 1_000_000);
        // 42 commits over 1 ms = 42k/s.
        assert!((frame.commit_rate - 42_000.0).abs() < 1e-6);
        let line = frame.to_json_line();
        let parsed = MetricsFrame::from_json_line(&line).expect("parses");
        assert_eq!(parsed, frame);
        assert!(MetricsFrame::from_json_line("{\"seq\":1}").is_none());
        assert!(MetricsFrame::from_json_line("not json").is_none());
        // One missing integer key anywhere in the catalog rejects the line.
        let cut = line.replace("\"stall_reproduce_starved\":0,", "");
        assert!(MetricsFrame::from_json_line(&cut).is_none());
        // A line recorded before `entries_before_combine` was dropped still
        // parses: unknown keys are ignored.
        let old = line.replace(
            "\"entries_after_combine\"",
            "\"entries_before_combine\":0,\"entries_after_combine\"",
        );
        assert_ne!(old, line);
        assert_eq!(MetricsFrame::from_json_line(&old), Some(frame));
    }

    #[test]
    fn rates_derive_from_previous_frame() {
        let at =
            |ts_ns, commits, records_persisted, txns_reproduced, log_bytes_flushed| MetricsFrame {
                ts_ns,
                counters: PipelineStatsSnapshot {
                    commits,
                    records_persisted,
                    txns_reproduced,
                    log_bytes_flushed,
                    ..Default::default()
                },
                ..Default::default()
            };
        let first = at(1_000_000, 100, 100, 90, 1000).with_rates_from(None);
        let second = at(2_000_000, 150, 140, 130, 3000).with_rates_from(Some(&first));
        assert_eq!(second.seq, 1);
        assert_eq!(second.dt_ns, 1_000_000);
        assert!((second.commit_rate - 50_000.0).abs() < 1e-6);
        assert!((second.persist_rate - 40_000.0).abs() < 1e-6);
        assert!((second.replay_rate - 40_000.0).abs() < 1e-6);
        assert!((second.flush_bytes_rate - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn frame_ring_is_bounded() {
        let metrics = MetricsConfig::sampling(Duration::from_millis(1));
        let reg = registry(DudeTmConfig::small(1 << 16).with_metrics(metrics));
        let cap = MetricsRegistry::FRAME_CAPACITY as u64;
        for _ in 0..cap + 2 {
            reg.sample();
        }
        let frames = reg.frames();
        assert_eq!(frames.len() as u64, cap);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(reg.frames_recorded(), cap + 2);
        assert_eq!(reg.latest_frame().expect("latest").seq, cap + 1);
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("dudetm_x_total 1\n").is_err()); // no TYPE
        let no_monotone = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        assert!(validate_exposition(no_monotone).is_err());
        let count_mismatch = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 5\n";
        assert!(validate_exposition(count_mismatch).is_err());
        let bad_value = "# TYPE c_total counter\nc_total x\n";
        assert!(validate_exposition(bad_value).is_err());
        let ok = "# TYPE c_total counter\nc_total 1\n";
        assert!(validate_exposition(ok).is_ok());
    }

    #[test]
    fn metrics_server_serves_exposition() {
        let reg = Arc::new(registry(DudeTmConfig::small(1 << 16)));
        publish_counts(&reg.shared, 9, 0);
        let server = MetricsServer::start(Arc::clone(&reg), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
            let mut resp = String::new();
            s.read_to_string(&mut resp).expect("response");
            resp
        };
        let resp = fetch("/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        validate_exposition(body).expect("served exposition validates");
        assert!(body.contains("dudetm_commits_total 9"), "{body}");
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(server); // shuts down and joins without hanging
    }

    #[test]
    fn recovery_phase_encoding() {
        let t = RecoveryTelemetry::default();
        assert_eq!(t.snapshot().phase, 0);
        t.set_phase(RecoveryPhase::Replay);
        assert_eq!(t.snapshot().phase, RecoveryPhase::Replay.as_u64());
        assert_eq!(RecoveryPhase::Done.as_u64(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn zero_sample_interval_rejected() {
        let _ = MetricsConfig::sampling(Duration::from_secs(0));
    }

    #[test]
    fn disabled_config_is_default() {
        assert_eq!(MetricsConfig::default(), MetricsConfig::disabled());
        assert!(!MetricsConfig::disabled().enabled);
        assert!(MetricsConfig::sampling(Duration::from_millis(10)).enabled);
    }
}
