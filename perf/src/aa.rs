//! Modes that run the suite through child processes — one process per
//! workload run, exactly as the driver does it: `--all` / `--smoke`
//! (every metric by name with its unit) and `--aa N` (does the same tree
//! agree with itself?).

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::median;
use crate::spec::{Better, MetricDef, END_TO_END, SPECS};
use crate::Args;

/// The parsed result line of one child run.
struct ChildResult {
    env: String,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order the child printed them.
    metrics: Vec<(String, f64, String)>,
}

/// Runs this binary once for `workload` and parses what it printed.
fn run_child(workload: &str, seed: u64, traced: bool, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let env = lines.next().unwrap_or_default().to_string();
    let last = lines.next_back().ok_or_else(|| {
        format!(
            "{workload} (traced={traced}) printed no result, exit {}",
            out.status
        )
    })?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: result lacks {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: result lacks metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    let result = ChildResult {
        env,
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    };
    if !out.status.success() || result.failed > 0 {
        return Err(format!(
            "{workload} (traced={traced}): {} of {} operations failed, exit {}",
            result.failed, result.attempted, out.status
        ));
    }
    Ok(result)
}

/// `--all` / `--smoke`: every workload untraced then traced; prints every
/// metric by name with its unit, then one JSON summary line.
pub fn run_all(args: &Args) -> bool {
    let mut ok = true;
    let mut summary = String::from("{\"workloads\": {");
    for (i, spec) in SPECS.iter().enumerate() {
        if i > 0 {
            summary.push_str(", ");
        }
        json::push_str(&mut summary, spec.name);
        summary.push_str(": {");
        for (j, (section, traced)) in [("end_to_end", false), ("per_layer", true)]
            .into_iter()
            .enumerate()
        {
            if j > 0 {
                summary.push_str(", ");
            }
            let _ = write!(summary, "\"{section}\": {{");
            match run_child(spec.name, args.seed, traced, args) {
                Ok(result) => {
                    println!("# {} {section}: {}", spec.name, result.env);
                    println!(
                        "{:<14} {:<34} {} attempted, {} failed",
                        spec.name, "operations", result.attempted, result.failed
                    );
                    for (k, (name, value, unit)) in result.metrics.iter().enumerate() {
                        println!("{:<14} {name:<34} {value:>16.4} {unit}", spec.name);
                        if k > 0 {
                            summary.push_str(", ");
                        }
                        json::push_metric(&mut summary, name, *value, unit);
                    }
                }
                Err(e) => {
                    eprintln!("dude-perf: {e}");
                    ok = false;
                }
            }
            summary.push('}');
        }
        summary.push('}');
    }
    let _ = write!(summary, "}}, \"ok\": {ok}}}");
    println!("{summary}");
    ok
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): what the driver computes spreads from.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// `--aa N`: runs the untraced suite `N` times on this tree, each run with
/// another seed, splits the runs into a first and a second half like two
/// driver sets, and prints per workload × end-to-end metric both medians,
/// both spreads, their difference and the bound. Fails if a second-half
/// median is worse than the first by more than the bound, or a spread
/// (other than `setup_s`'s) exceeds it.
pub fn run_aa(n: usize, args: &Args) -> bool {
    if n < 2 {
        eprintln!("dude-perf: --aa needs at least 2 runs");
        return false;
    }
    // samples[workload][metric] = one value per run, in run order.
    let mut samples = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; SPECS.len()];
    for i in 0..n {
        for (w, spec) in SPECS.iter().enumerate() {
            let seed = args.seed + i as u64;
            let result = match run_child(spec.name, seed, false, args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("dude-perf: {e}");
                    return false;
                }
            };
            if i == 0 && w == 0 {
                println!("# {}", result.env);
            }
            let mut line = format!("run {i:>2} seed {seed:<4} {:<14}", spec.name);
            for (k, def) in END_TO_END.iter().enumerate() {
                let Some((_, value, _)) = result.metrics.iter().find(|(name, ..)| name == def.name)
                else {
                    eprintln!("dude-perf: {} did not report {}", spec.name, def.name);
                    return false;
                };
                samples[w][k].push(*value);
                let _ = write!(line, " {}={value:.4}", def.name);
            }
            println!("{line}");
        }
    }
    println!(
        "\n{:<14} {:<17} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    let mut ok = true;
    for (w, spec) in SPECS.iter().enumerate() {
        for (k, def) in END_TO_END.iter().enumerate() {
            let (a, b) = samples[w][k].split_at(n / 2);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let shift = worse_by(def, median(a), median(b));
            let (sa, sb) = (spread(a), spread(b));
            let steady = def.name == "setup_s" || sa.max(sb) <= bound;
            let pass = shift <= bound && steady;
            ok &= pass;
            println!(
                "{:<14} {:<17} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.1}%  {}",
                spec.name,
                def.name,
                median(a),
                median(b),
                100.0 * shift,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                if pass { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    println!("\nA/A {}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
