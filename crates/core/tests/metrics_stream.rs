//! The metrics export surfaces: Prometheus text exposition (golden names
//! and validator), the blocking scrape endpoint, and the JSONL frame
//! stream's round-trip law. This is the test target the CI
//! `metrics-smoke` job runs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::check::Watchdog;
use dudetm::{
    validate_exposition, DudeTm, DudeTmConfig, MetricsConfig, MetricsFrame, MetricsServer,
    TraceConfig,
};

/// Each test runs for seconds at most, in debug; one still going after
/// this is hung. Each has a fixed seed and configuration, so the test
/// name the watchdog prints names both.
const HANG: Duration = Duration::from_secs(300);

fn test_nvm() -> Arc<Nvm> {
    Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)))
}

/// A runtime with metrics AND tracing on, after a deterministic workload —
/// tracing populates the histograms so the exposition carries non-zero
/// bucket data.
fn observed_runtime() -> DudeTm<dude_stm::Stm> {
    let cfg = DudeTmConfig {
        plog_bytes_per_thread: 1 << 18,
        max_threads: 4,
        trace: TraceConfig::enabled(4096),
        metrics: MetricsConfig::sampling(Duration::from_millis(5)),
        ..DudeTmConfig::small(1 << 20)
    }
    .with_flush_workers(2);
    let dude = DudeTm::create_stm(test_nvm(), cfg);
    {
        let mut t = dude.register_thread();
        for i in 0..150u64 {
            t.run(&mut |tx| {
                tx.write_word(PAddr::from_word_index((i * 8) % 512), i)?;
                tx.write_word(PAddr::from_word_index(512 + i % 16), i * 7)
            })
            .expect_committed();
        }
    }
    dude.quiesce();
    dude.sample_metrics_now();
    dude
}

/// Golden exposition: the stable names CI dashboards scrape for, rendered
/// with real pipeline data and accepted by the format validator.
#[test]
fn prometheus_exposition_is_valid_and_carries_the_catalog() {
    let _watchdog = Watchdog::arm("", HANG);
    let dude = observed_runtime();
    let text = dude.metrics().render_prometheus();
    validate_exposition(&text).expect("renderer output must self-validate");

    // Counters: full-name TYPE declaration plus a concrete sample.
    assert!(
        text.contains("# TYPE dudetm_commits_total counter"),
        "{text}"
    );
    assert!(text.contains("\ndudetm_commits_total 150\n"), "{text}");
    assert!(text.contains("# TYPE dudetm_log_bytes_flushed_total counter"));
    assert!(text.contains("# TYPE dudetm_stall_persist_seq_wait_total counter"));
    assert!(text.contains("# TYPE dudetm_recovery_txns_replayed_total counter"));
    // Gauges: plain names; the drained pipeline shows zero lag.
    assert!(text.contains("# TYPE dudetm_persist_lag gauge"));
    assert!(text.contains("\ndudetm_persist_lag 0\n"), "{text}");
    assert!(text.contains("# TYPE dudetm_committed_tid gauge"));
    assert!(text.contains("\ndudetm_committed_tid 150\n"), "{text}");
    assert!(text.contains("# TYPE dudetm_recovery_phase gauge"));
    // Histograms: family declaration, cumulative buckets, sum/count.
    assert!(text.contains("# TYPE dudetm_commit_latency_ns histogram"));
    assert!(text.contains("dudetm_commit_latency_ns_bucket{le=\"+Inf\"} 150"));
    assert!(text.contains("dudetm_commit_latency_ns_count 150"));
    assert!(text.contains("dudetm_commit_latency_ns_sum"));
    // Labeled histograms: one family, one series per worker; Reproduce's
    // is a family of one under the name the benchmark package reads.
    assert!(text.contains("dudetm_flush_worker_ns_bucket{worker=\"0\",le=\""));
    assert!(text.contains("dudetm_flush_worker_ns_bucket{worker=\"1\",le=\""));
    assert!(text.contains("dudetm_replay_apply_ns_count{shard=\"0\"}"));
    assert!(!text.contains("dudetm_replay_apply_ns_count{shard=\"1\"}"));
    assert_eq!(
        text.matches("# TYPE dudetm_flush_worker_ns histogram")
            .count(),
        1,
        "labeled series share one family declaration"
    );
}

/// The validator is load-bearing for CI: it must reject the failure
/// shapes a broken renderer would produce.
#[test]
fn validator_rejects_broken_expositions() {
    let _watchdog = Watchdog::arm("", HANG);
    let undeclared = "dudetm_commits_total 5\n";
    assert!(
        validate_exposition(undeclared).is_err(),
        "undeclared family"
    );
    let non_cumulative = "# TYPE h histogram\n\
         h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
         h_sum 9\nh_count 5\n";
    assert!(
        validate_exposition(non_cumulative).is_err(),
        "buckets must be cumulative"
    );
    let count_mismatch = "# TYPE h histogram\n\
         h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
    assert!(
        validate_exposition(count_mismatch).is_err(),
        "+Inf must equal count"
    );
    assert!(validate_exposition("").is_err(), "empty exposition");
}

/// End-to-end scrape: a real TCP GET against [`MetricsServer`] returns a
/// 200 with a valid exposition; any other path 404s; drop shuts the
/// listener down.
#[test]
fn metrics_server_serves_a_valid_scrape() {
    let _watchdog = Watchdog::arm("", HANG);
    let dude = observed_runtime();
    let server = MetricsServer::start(Arc::clone(dude.metrics()), "127.0.0.1:0")
        .expect("ephemeral bind succeeds");
    let addr = server.local_addr();

    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("read response");
        resp
    };

    let ok = scrape("/metrics");
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
    let body = ok.split("\r\n\r\n").nth(1).expect("response has a body");
    validate_exposition(body).expect("scraped body must validate");
    assert!(body.contains("dudetm_commits_total 150"), "{body}");

    let missing = scrape("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    drop(server);
    // The listener is gone: a fresh connection must fail or yield nothing.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = write!(stream, "GET /metrics HTTP/1.1\r\n\r\n");
        let mut buf = String::new();
        let n = stream.read_to_string(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "dropped server must not answer: {buf}");
    }
}

/// JSONL round-trip law: every line `to_jsonl` emits parses back via
/// `from_json_line` into a frame that re-serializes to the identical
/// line — so `--metrics-out` files and `dude-top --replay` agree exactly.
#[test]
fn jsonl_frames_round_trip_exactly() {
    let _watchdog = Watchdog::arm("", HANG);
    let dude = observed_runtime();
    dude.sample_metrics_now(); // at least two frames in the ring
    let frames = dude.metrics().frames();
    assert!(frames.len() >= 2);
    let jsonl = dude.metrics().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), frames.len());
    for (line, original) in lines.iter().zip(&frames) {
        let parsed = MetricsFrame::from_json_line(line).expect("every emitted line parses");
        assert_eq!(parsed.to_json_line(), *line, "re-serialization is stable");
        assert_eq!(parsed.counters, original.counters);
        assert_eq!(parsed.ts_ns, original.ts_ns);
        assert_eq!(parsed.stalls, original.stalls);
    }
    // Frames are a time series: seq and ts_ns advance monotonically.
    for pair in frames.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
        assert!(pair[1].ts_ns >= pair[0].ts_ns);
    }
    // Malformed lines are rejected, not mis-parsed.
    assert!(MetricsFrame::from_json_line("").is_none());
    assert!(MetricsFrame::from_json_line("{\"seq\":1}").is_none());
    assert!(MetricsFrame::from_json_line("not json").is_none());
}
