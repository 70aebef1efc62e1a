//! `dude-perf` — the repo benchmark. See `README.md` next to this
//! package for usage, the metric glossary and the estimator rules.

mod aa;
mod crash;
mod json;
mod layers;
mod run;
mod spans;
mod spec;
mod sys;
mod traced;

use std::fmt::Write as _;
use std::process::ExitCode;

use spans::Spans;
use spec::{MetricDef, Plan, Spec, END_TO_END, PER_LAYER, SPECS};

const USAGE: &str = "\
usage: dude-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       dude-perf --all [--seed N] [--seconds S] [--smoke]
       dude-perf --smoke
       dude-perf --aa N [--seed N] [--seconds S]
       dude-perf --list

  --workload  one of: tatp_update tpcc_neworder ycsb_grouped tatp_sync
  --seed      seed of the operation generator (default 42)
  --seconds   measuring budget per run; fixes the op count (default 10)
  --trace     0: end-to-end metrics (default)  1: per-layer metrics
  --traced    same as --trace 1
  --all       every workload, untraced then traced, one process per run
  --smoke     op counts / 1000 (with no workload: --all at that scale)
  --aa N      run the untraced suite N times on this tree, compare halves
  --list      print workloads and metrics with units and directions";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    all: bool,
    aa: Option<usize>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10,
        traced: false,
        smoke: false,
        all: false,
        aa: None,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--aa" => {
                args.aa = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The op counts of `spec` under `args`.
fn plan_for(spec: &Spec, args: &Args) -> Plan {
    let ops = spec.ops_per_second * args.seconds;
    Plan::new(
        if args.smoke { ops / 1000 } else { ops },
        args.seconds,
        args.smoke,
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics` — one value per entry of `defs`, in that order.
fn result_line(attempted: u64, failed: u64, defs: &[MetricDef], values: &[f64]) -> String {
    assert_eq!(defs.len(), values.len(), "one value per catalogued metric");
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (def, &value)) in defs.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::push_metric(&mut out, def.name, value, def.unit);
    }
    out.push_str("}}");
    out
}

/// One workload run in this process: prints the environment stamp, then
/// the result line, and reports whether every operation succeeded.
fn run_one(spec: &Spec, args: &Args) -> bool {
    let plan = plan_for(spec, args);
    let timing = spec::device_timing();
    println!(
        "{}",
        sys::env_stamp(&[
            ("workload", spec.name.to_string()),
            ("seed", args.seed.to_string()),
            ("traced", args.traced.to_string()),
            (
                "device",
                format!(
                    "{} B/s, {} ns persist latency, {} B plog/thread, checkpoint_every {}",
                    timing.bandwidth_bytes_per_sec,
                    timing.latency_ns,
                    spec::PLOG_BYTES,
                    spec::CHECKPOINT_EVERY
                ),
            ),
            ("ops", plan.ops.to_string()),
            ("warmup_ops", plan.warmup.to_string()),
            ("windows", plan.windows.to_string()),
        ])
    );
    let mut spans = Spans::default();
    let (attempted, failed, defs, values) = if args.traced {
        let out = traced::run(spec, &plan, args.seed, &mut spans);
        let path = format!("perf/out/spans_{}.json", spec.name);
        if let Err(e) = write_spans(&path, &spans, spec.name) {
            eprintln!("dude-perf: cannot write spans to {path}: {e}");
            return false;
        }
        (out.attempted, out.failed, &PER_LAYER[..], out.values)
    } else {
        let (attempted, failed, values) = untraced(spec, &plan, args, &mut spans);
        (attempted, failed, &END_TO_END[..], values)
    };
    println!("{}", result_line(attempted, failed, defs, &values));
    failed == 0
}

fn write_spans(path: &str, spans: &Spans, run: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans.to_chrome_trace(run))
}

/// The `--trace 0` run: `SETUP_REPS` set-ups (the last one measured),
/// then the crash phase, then peak memory.
fn untraced(spec: &Spec, plan: &Plan, args: &Args, spans: &mut Spans) -> (u64, u64, Vec<f64>) {
    let reps = if args.smoke { 1 } else { spec::SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    for _ in 1..reps {
        let (setup_s, ()) = run::with_instance(spec, plan, args.seed, false, spans, |_, _| ());
        setups.push(setup_s);
    }
    let (setup_s, measured) =
        run::with_instance(spec, plan, args.seed, false, spans, |live, spans| {
            run::measure(live, plan, spans)
        });
    setups.push(setup_s);
    let crash = crash::crash_phase(spec, args.seed, plan.smoke, spans);
    let (lo, hi) = measured
        .window_tps
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    eprintln!(
        "{}: window tps min {lo:.0} median {:.0} max {hi:.0}; set-ups {setups:.3?} s; crash phase replayed {} tx",
        spec.name,
        run::median(&measured.window_tps),
        crash.report.replayed
    );
    // In END_TO_END order.
    let values = vec![
        run::median(&setups),
        measured.tps,
        measured.nvm_bytes_per_tx,
        sys::rss_peak_mb(),
    ];
    (
        measured.attempted + crash.attempted,
        measured.failed + crash.failed,
        values,
    )
}

fn print_list() {
    println!("workloads:");
    for s in &SPECS {
        println!("  {:<14} {}", s.name, s.why);
    }
    for (title, defs) in [
        ("end-to-end metrics (--trace 0)", &END_TO_END[..]),
        ("per-layer metrics (--trace 1)", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for d in defs {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", bound {}%", b * 100.0));
            println!(
                "  {:<34} [{}, {} is better{bound}] {}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.what
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dude-perf: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.list {
        print_list();
        true
    } else if let Some(n) = args.aa {
        aa::run_aa(n, &args)
    } else if let Some(name) = &args.workload {
        match spec::spec_named(name) {
            Some(spec) => run_one(spec, &args),
            None => {
                eprintln!("dude-perf: unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else if args.all || args.smoke {
        aa::run_all(&args)
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
