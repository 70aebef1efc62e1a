//! `dude-top` — a live terminal monitor for the DudeTM pipeline.
//!
//! Default mode runs a seeded in-process bank workload and renders a
//! refreshing dashboard off the runtime's metrics registry: per-stage
//! rates, the three watermarks with their lags, a persist-lag sparkline,
//! and the stall-counter table. Three offline modes reuse the same
//! rendering and validation paths for tooling and CI:
//!
//! - `--replay PATH` renders a recorded `--metrics-out` JSONL series;
//! - `--check-jsonl PATH` validates a JSONL series (parses, non-empty,
//!   time-ordered) and exits nonzero otherwise;
//! - `--check-url URL` scrapes a Prometheus endpoint once and validates
//!   the exposition, exiting nonzero on failure.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dude_bench::systems::{bench_nvm, dude_config};
use dude_bench::BenchEnv;
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::{
    validate_exposition, DudeTm, MetricsConfig, MetricsFrame, MetricsRegistry, MetricsServer,
};

const USAGE: &str = "\
dude-top — live terminal monitor for the DudeTM pipeline

USAGE:
  dude-top [--threads N] [--ops N] [--seed N] [--interval-ms N]
           [--refresh-ms N] [--plain] [--serve ADDR] [--quick]
  dude-top --replay PATH
  dude-top --check-jsonl PATH
  dude-top --check-url URL

Defaults: 4 threads, 40000 ops (4000 with --quick), seed 42, 10 ms
sampling, 100 ms refresh. --serve 127.0.0.1:PORT additionally exposes
GET /metrics while the workload runs. Exit codes: 0 ok, 1 check failed,
2 usage error.";

fn fail_usage(msg: &str) -> ! {
    eprintln!("dude-top: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Opts {
    threads: usize,
    ops: u64,
    seed: u64,
    interval_ms: u64,
    refresh_ms: u64,
    plain: bool,
    serve: Option<String>,
    quick: bool,
    replay: Option<String>,
    check_jsonl: Option<String>,
    check_url: Option<String>,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        threads: 4,
        ops: 0,
        seed: 42,
        interval_ms: 10,
        refresh_ms: 100,
        plain: false,
        serve: None,
        quick: false,
        replay: None,
        check_jsonl: None,
        check_url: None,
    };
    let mut ops_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail_usage(&format!("{name} takes a value")))
        };
        match a.as_str() {
            "--threads" => {
                o.threads = val("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--threads: bad number"))
            }
            "--ops" => {
                o.ops = val("--ops")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--ops: bad number"));
                ops_set = true;
            }
            "--seed" => {
                o.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--seed: bad number"))
            }
            "--interval-ms" => {
                o.interval_ms = val("--interval-ms")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--interval-ms: bad number"))
            }
            "--refresh-ms" => {
                o.refresh_ms = val("--refresh-ms")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--refresh-ms: bad number"))
            }
            "--plain" => o.plain = true,
            "--serve" => o.serve = Some(val("--serve")),
            "--quick" => o.quick = true,
            "--replay" => o.replay = Some(val("--replay")),
            "--check-jsonl" => o.check_jsonl = Some(val("--check-jsonl")),
            "--check-url" => o.check_url = Some(val("--check-url")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail_usage(&format!("unknown option {other}")),
        }
    }
    if !ops_set {
        o.ops = if o.quick { 4_000 } else { 40_000 };
    }
    o
}

fn main() {
    let opts = parse_opts();
    let code = if let Some(path) = &opts.check_jsonl {
        check_jsonl(path)
    } else if let Some(url) = &opts.check_url {
        check_url(url)
    } else if let Some(path) = &opts.replay {
        replay(path, opts.plain)
    } else {
        live(&opts)
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------- live mode

/// xorshift64* — deterministic per-thread account selection.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn live(opts: &Opts) -> i32 {
    let mut env = BenchEnv::from_quick(opts.quick)
        .with_threads(opts.threads)
        .with_ops(opts.ops);
    env.seed = opts.seed;
    env.metrics = MetricsConfig::sampling(Duration::from_millis(opts.interval_ms.max(1)));
    let sys = DudeTm::create_stm(bench_nvm(&env), dude_config(&env, env.durability));
    let server = opts.serve.as_ref().map(|addr| {
        let s = MetricsServer::start(Arc::clone(sys.metrics()), addr)
            .unwrap_or_else(|e| fail_usage(&format!("--serve {addr}: {e}")));
        eprintln!("serving GET http://{}/metrics", s.local_addr());
        s
    });

    const ACCOUNTS: u64 = 1024;
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let sys = &sys;
        let done = &done;
        let mut workers = Vec::new();
        for t in 0..opts.threads {
            let per_thread = env.ops_per_thread();
            let seed = opts
                .seed
                .wrapping_add(t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1;
            workers.push(s.spawn(move || {
                let mut rng = seed;
                let mut th = sys.register_thread();
                for _ in 0..per_thread {
                    let from = next_rand(&mut rng) % ACCOUNTS;
                    let to = next_rand(&mut rng) % ACCOUNTS;
                    th.run(&mut |tx| {
                        let a = tx.read_word(PAddr::from_word_index(from))?;
                        let b = tx.read_word(PAddr::from_word_index(to))?;
                        tx.write_word(PAddr::from_word_index(from), a.wrapping_sub(1))?;
                        tx.write_word(PAddr::from_word_index(to), b.wrapping_add(1))
                    });
                }
            }));
        }
        let renderer = s.spawn(move || {
            // Render until the workers finish; the final frame prints
            // after quiesce below.
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(opts.refresh_ms.max(10)));
                render(sys.metrics(), start.elapsed(), opts.plain, false);
            }
        });
        for w in workers {
            let _ = w.join();
        }
        done.store(true, Ordering::Release);
        let _ = renderer.join();
    });
    sys.quiesce();
    sys.sample_metrics_now();
    render(sys.metrics(), start.elapsed(), opts.plain, true);
    drop(server);
    0
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[u64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    // Downsample to `width` columns by bucket max.
    let n = values.len();
    let cols = width.min(n).max(1);
    let peak = values.iter().copied().max().unwrap_or(0).max(1);
    (0..cols)
        .map(|c| {
            let lo = c * n / cols;
            let hi = ((c + 1) * n / cols).max(lo + 1);
            let v = values[lo..hi].iter().copied().max().unwrap_or(0);
            SPARK[(v * 7 / peak) as usize]
        })
        .collect()
}

fn render(registry: &MetricsRegistry, elapsed: Duration, plain: bool, final_frame: bool) {
    let frames = registry.frames();
    let Some(last) = frames.last() else { return };
    let lags: Vec<u64> = frames.iter().map(|f| f.watermarks.persist_lag).collect();
    let (c, w) = (&last.counters, &last.watermarks);
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H"); // clear + home
    }
    out.push_str(&format!(
        "dude-top — DudeTM pipeline ({:.1}s elapsed, {} frame(s){})\n",
        elapsed.as_secs_f64(),
        registry.frames_recorded(),
        if final_frame { ", final" } else { "" }
    ));
    out.push_str(&format!(
        "  rates    commit/s {:>12.1}  persist/s {:>12.1}  replay/s {:>12.1}  flush MB/s {:>8.2}\n",
        last.commit_rate,
        last.persist_rate,
        last.replay_rate,
        last.flush_bytes_rate / (1024.0 * 1024.0),
    ));
    out.push_str(&format!(
        "  tids     committed={} durable={} (lag {}) reproduced={} (lag {}) ring-words={}\n",
        w.committed, w.durable, w.persist_lag, w.reproduced, w.reproduce_lag, w.ring_used_words,
    ));
    out.push_str(&format!(
        "  reproduce-lag={}   totals commits={} groups={} replayed={} ckpts={} flushed={}B\n",
        w.reproduce_lag,
        c.commits,
        c.groups_persisted,
        c.txns_reproduced,
        c.checkpoints,
        c.log_bytes_flushed,
    ));
    out.push_str(&format!("  persist-lag {}\n", sparkline(&lags, 60)));
    out.push_str(&format!("  stalls   {}\n", last.stalls));
    print!("{out}");
    let _ = std::io::stdout().flush();
}

// ------------------------------------------------------------ offline modes

fn load_frames(path: &str) -> Result<Vec<MetricsFrame>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut frames = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let frame = MetricsFrame::from_json_line(line)
            .ok_or_else(|| format!("{path}:{}: malformed frame: {line}", i + 1))?;
        frames.push(frame);
    }
    if frames.is_empty() {
        return Err(format!("{path}: no frames"));
    }
    Ok(frames)
}

fn replay(path: &str, plain: bool) -> i32 {
    let frames = match load_frames(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dude-top: {e}");
            return 1;
        }
    };
    let first_ts = frames.first().map_or(0, |f| f.ts_ns);
    let last = frames.last().expect("non-empty");
    let wall = Duration::from_nanos(last.ts_ns.saturating_sub(first_ts));
    let lags: Vec<u64> = frames.iter().map(|f| f.watermarks.persist_lag).collect();
    // Rates from sub-millisecond windows (e.g. the explicit final sample
    // landing right after a timer sample) are noise — skip them for peak.
    let peak_commit = frames
        .iter()
        .filter(|f| f.dt_ns >= 1_000_000)
        .map(|f| f.commit_rate)
        .fold(0.0, f64::max);
    println!(
        "dude-top --replay {path}: {} frame(s) over {:.3}s",
        frames.len(),
        wall.as_secs_f64()
    );
    println!("  peak commit/s {peak_commit:.1}");
    render_replay_tail(last, &lags, plain);
    0
}

fn render_replay_tail(last: &MetricsFrame, lags: &[u64], _plain: bool) {
    let (c, w) = (&last.counters, &last.watermarks);
    println!(
        "  final    committed={} durable={} (lag {}) reproduced={} (lag {})",
        w.committed, w.durable, w.persist_lag, w.reproduced, w.reproduce_lag
    );
    println!(
        "  totals   commits={} persisted-groups={} replayed={} flushed={}B",
        c.commits, c.groups_persisted, c.txns_reproduced, c.log_bytes_flushed
    );
    println!("  persist-lag {}", sparkline(lags, 60));
    println!("  stalls   {}", last.stalls);
}

fn check_jsonl(path: &str) -> i32 {
    let frames = match load_frames(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dude-top --check-jsonl: {e}");
            return 1;
        }
    };
    // Cells concatenate in run order under --metrics-out; `ts_ns` is the
    // process-wide monotonic clock, so the combined series must still be
    // time-ordered (`seq` restarts per cell and is not checked).
    for w in frames.windows(2) {
        if w[1].ts_ns < w[0].ts_ns {
            eprintln!(
                "dude-top --check-jsonl: {path}: ts_ns regressed ({} after {})",
                w[1].ts_ns, w[0].ts_ns
            );
            return 1;
        }
    }
    println!(
        "dude-top --check-jsonl: ok — {} frame(s), final commits={}",
        frames.len(),
        frames.last().expect("non-empty").counters.commits
    );
    0
}

fn check_url(url: &str) -> i32 {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/metrics".to_string()),
    };
    let body = (|| -> Result<String, String> {
        let mut s = TcpStream::connect(host).map_err(|e| format!("connect {host}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        s.read_to_string(&mut resp).map_err(|e| e.to_string())?;
        if !resp.starts_with("HTTP/1.1 200") {
            return Err(format!(
                "non-200 response: {}",
                resp.lines().next().unwrap_or("")
            ));
        }
        resp.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .ok_or_else(|| "no body".to_string())
    })();
    match body.and_then(|b| validate_exposition(&b).map(|()| b)) {
        Ok(b) => {
            println!(
                "dude-top --check-url: ok — {} sample line(s)",
                b.lines()
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .count()
            );
            0
        }
        Err(e) => {
            eprintln!("dude-top --check-url: {url}: {e}");
            1
        }
    }
}
