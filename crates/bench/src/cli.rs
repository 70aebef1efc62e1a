//! The `dude-bench` command-line interface.
//!
//! Subcommands: `list`, `run`, `diff`, `render`, `baseline`, `manifest`.
//! Exit codes: `0` success, `1` gate regression or
//! `--check` mismatch, `2` usage or typed setup error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::diff::{baseline_bundle, diff_records, load_baseline, load_records, parse_tolerance};
use crate::manifest::manifest_text;
use crate::record::Record;
use crate::registry::{find, SPECS};
use crate::render::render_doc;
use crate::runner::{run_spec, RunOptions};
use crate::spec::{SpecCtx, Tier, TierField};

const USAGE: &str = "\
dude-bench — the experiment driver for the DudeTM reproduction

USAGE:
  dude-bench list
  dude-bench run [<spec>...] [--all] [--quick|--full] [--out-dir DIR]
                 [--seed N] [--threads N] [--ops N] [--deterministic]
                 [--workload LABEL]... [--trace-out PATH]
                 [--metrics-out PATH]
  dude-bench diff --baseline PATH [--current DIR] [--tolerance PCT]
                  [--include-walltime]
  dude-bench render [--check] [--doc PATH] [--results DIR]
  dude-bench baseline [--from DIR] [--out PATH]
  dude-bench manifest [--check] [--results DIR] [--out PATH]

Defaults: --out-dir/--results bench_results, --doc EXPERIMENTS.md,
--tolerance 15%, --baseline-out bench_results/baseline.json, quick tier.
Exit codes: 0 ok; 1 regression or --check mismatch; 2 usage error.";

/// A minimal argument cursor: positionals plus `--flag [value]` options.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Args {
        Args { rest: args }
    }

    /// Removes `--name`, returning whether it was present.
    fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes `--name VALUE`, returning the value.
    fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                if i + 1 >= self.rest.len() {
                    return Err(format!("{name} takes a value"));
                }
                let v = self.rest.remove(i + 1);
                self.rest.remove(i);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Removes every `--name VALUE` occurrence.
    fn multi(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(v) = self.opt(name)? {
            out.push(v);
        }
        Ok(out)
    }

    /// Remaining positional arguments; errors on unconsumed `--flags`.
    fn positionals(self) -> Result<Vec<String>, String> {
        if let Some(bad) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown option {bad}"));
        }
        Ok(self.rest)
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name}: bad number '{v}'"))
}

/// Runs the CLI on `args` (without the program name); returns the process
/// exit code.
#[must_use]
pub fn main_with_args(args: Vec<String>) -> i32 {
    match dispatch(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dude-bench: {msg}");
            eprintln!("{USAGE}");
            2
        }
    }
}

fn dispatch(mut args: Vec<String>) -> Result<i32, String> {
    if args.is_empty() {
        return Err("missing subcommand".into());
    }
    let cmd = args.remove(0);
    let args = Args::new(args);
    match cmd.as_str() {
        "list" => cmd_list(args),
        "run" => cmd_run(args),
        "diff" => cmd_diff(args),
        "render" => cmd_render(args),
        "baseline" => cmd_baseline(args),
        "manifest" => cmd_manifest(args),
        "--help" | "help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn cmd_list(args: Args) -> Result<i32, String> {
    args.positionals()?;
    println!("{:<28} {:<10} TITLE", "SPEC", "TABLES");
    for spec in SPECS {
        println!("{:<28} {:<10} {}", spec.name, spec.tables.len(), spec.title);
    }
    Ok(0)
}

fn cmd_run(mut args: Args) -> Result<i32, String> {
    let all = args.flag("--all");
    let quick = args.flag("--quick");
    let full = args.flag("--full");
    if quick && full {
        return Err("--quick and --full are mutually exclusive".into());
    }
    let out_dir = args
        .opt("--out-dir")?
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from);
    let seed = match args.opt("--seed")? {
        Some(v) => parse_num("--seed", &v)?,
        None => 42u64,
    };
    let threads = args
        .opt("--threads")?
        .map(|v| parse_num("--threads", &v))
        .transpose()?;
    let ops = args
        .opt("--ops")?
        .map(|v| parse_num("--ops", &v))
        .transpose()?;
    let deterministic = args.flag("--deterministic");
    let workloads = args.multi("--workload")?;
    let trace_out = args.opt("--trace-out")?;
    if let Some(path) = args.opt("--metrics-out")? {
        // Arms the process-global sink: every DudeTM cell below runs with
        // a 10 ms sampler and appends its frame series to `path` as JSONL.
        crate::metrics_out::arm(&path);
    }
    let names = args.positionals()?;
    let specs: Vec<_> = if all || names.is_empty() {
        if !all && names.is_empty() {
            return Err("run: name specs or pass --all".into());
        }
        SPECS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| find(n).ok_or_else(|| format!("unknown spec '{n}' (see dude-bench list)")))
            .collect::<Result<_, _>>()?
    };
    let ctx = SpecCtx {
        tier: TierField(if full { Tier::Full } else { Tier::Quick }),
        seed,
        threads,
        ops,
        deterministic,
        workload_filter: if workloads.is_empty() {
            None
        } else {
            Some(workloads)
        },
        trace_out,
    };
    let opts = RunOptions { out_dir };
    for spec in specs {
        run_spec(spec, &ctx, &opts);
    }
    Ok(0)
}

fn cmd_diff(mut args: Args) -> Result<i32, String> {
    let baseline_path = args
        .opt("--baseline")?
        .ok_or("diff: --baseline is required")?;
    let current_dir = args
        .opt("--current")?
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from);
    let tolerance = parse_tolerance(
        &args
            .opt("--tolerance")?
            .unwrap_or_else(|| "15%".to_string()),
    )
    .map_err(|e| e.to_string())?;
    let include_walltime = args.flag("--include-walltime");
    args.positionals()?;
    let baseline = load_baseline(Path::new(&baseline_path)).map_err(|e| e.to_string())?;
    let current = load_records(&current_dir).map_err(|e| e.to_string())?;
    let report = diff_records(&baseline, &current, tolerance, include_walltime)
        .map_err(|e| e.to_string())?;
    println!(
        "diff: {} gated metric(s) checked at {:.1}% tolerance",
        report.checked,
        tolerance * 100.0
    );
    for imp in &report.improvements {
        println!(
            "  improved  {}/{}: {} -> {} ({:+.1}%)",
            imp.spec,
            imp.metric,
            imp.baseline,
            imp.current,
            imp.change * 100.0
        );
    }
    for reg in &report.regressions {
        let direction = match reg.better {
            crate::spec::Better::Higher => "higher is better",
            crate::spec::Better::Lower => "lower is better",
            crate::spec::Better::TwoSided => "two-sided gate",
        };
        println!(
            "  REGRESSED {}/{}: {} -> {} ({:+.1}%, {})",
            reg.spec,
            reg.metric,
            reg.baseline,
            reg.current,
            reg.change * 100.0,
            direction
        );
    }
    if report.pass() {
        println!("diff: PASS");
        Ok(0)
    } else {
        println!("diff: FAIL ({} regression(s))", report.regressions.len());
        Ok(1)
    }
}

fn cmd_render(mut args: Args) -> Result<i32, String> {
    let check = args.flag("--check");
    let doc_path = args
        .opt("--doc")?
        .map_or_else(|| PathBuf::from("EXPERIMENTS.md"), PathBuf::from);
    let results = args
        .opt("--results")?
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from);
    args.positionals()?;
    let records: BTreeMap<String, Record> = load_records(&results)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|r| (r.spec.clone(), r))
        .collect();
    let doc =
        std::fs::read_to_string(&doc_path).map_err(|e| format!("{}: {e}", doc_path.display()))?;
    let (out, n) = render_doc(&doc, &records).map_err(|e| e.to_string())?;
    if check {
        if out == doc {
            println!(
                "render --check: {} up to date ({n} block(s))",
                doc_path.display()
            );
            Ok(0)
        } else {
            eprintln!(
                "render --check: {} is stale — run `dude-bench render` and commit the result",
                doc_path.display()
            );
            Ok(1)
        }
    } else {
        std::fs::write(&doc_path, &out).map_err(|e| format!("{}: {e}", doc_path.display()))?;
        println!(
            "render: {} block(s) regenerated in {}",
            n,
            doc_path.display()
        );
        Ok(0)
    }
}

fn cmd_baseline(mut args: Args) -> Result<i32, String> {
    let from = args
        .opt("--from")?
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from);
    let out = args.opt("--out")?.map_or_else(
        || PathBuf::from("bench_results/baseline.json"),
        PathBuf::from,
    );
    args.positionals()?;
    let records = load_records(&from).map_err(|e| e.to_string())?;
    // A baseline gates future runs, so only keep records that actually
    // carry gated metrics or that a diff must find present.
    if records.is_empty() {
        return Err(format!("no BENCH_*.json records under {}", from.display()));
    }
    std::fs::write(&out, baseline_bundle(&records).pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "baseline: {} record(s) written to {}",
        records.len(),
        out.display()
    );
    Ok(0)
}

fn cmd_manifest(mut args: Args) -> Result<i32, String> {
    let check = args.flag("--check");
    let results = args
        .opt("--results")?
        .map_or_else(|| PathBuf::from("bench_results"), PathBuf::from);
    let out = args
        .opt("--out")?
        .map_or_else(|| results.join("MANIFEST.md"), PathBuf::from);
    args.positionals()?;
    let text = manifest_text(&results);
    if check {
        let existing = std::fs::read_to_string(&out).unwrap_or_default();
        if existing == text {
            println!("manifest --check: {} up to date", out.display());
            Ok(0)
        } else {
            eprintln!(
                "manifest --check: {} is stale — run `dude-bench manifest` and commit",
                out.display()
            );
            Ok(1)
        }
    } else {
        std::fs::write(&out, &text).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("manifest: written to {}", out.display());
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> i32 {
        main_with_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["frobnicate"]), 2);
        assert_eq!(run(&["run"]), 2); // no specs, no --all
        assert_eq!(run(&["run", "no_such_spec"]), 2);
        assert_eq!(run(&["diff"]), 2); // --baseline required
        assert_eq!(run(&["run", "--quick", "--full", "table1"]), 2);
    }

    #[test]
    fn list_and_help_succeed() {
        assert_eq!(run(&["list"]), 0);
        assert_eq!(run(&["help"]), 0);
    }
}
