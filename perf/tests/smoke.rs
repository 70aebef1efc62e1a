//! Runs the whole suite at `--smoke` scale (op counts ÷ 1000, both trace
//! modes, one child process per run) and checks that every workload and
//! metric `BENCHMARK.json` names is reported, finite, and spelled and
//! united exactly as there — so the contract file and the program cannot
//! drift apart unnoticed.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;

fn names(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{section} entry lacks {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_suite_reports_every_metric_named_in_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits in the repository root");
    let contract = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let contract = json::parse(&contract).expect("BENCHMARK.json parses");

    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dude-perf"))
        .arg("--smoke")
        .current_dir(root)
        .output()
        .expect("dude-perf starts");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        elapsed.as_secs() < 60,
        "--smoke is meant to take seconds, took {elapsed:?}"
    );
    let summary = stdout.lines().last().expect("summary line");
    let summary = json::parse(summary).expect("summary parses");
    assert_eq!(summary.get("ok"), Some(&Value::Bool(true)));

    let workloads = contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let reported = summary
            .get("workloads")
            .and_then(|all| all.get(name))
            .unwrap_or_else(|| panic!("{name} missing from the summary"));
        for section in ["end_to_end", "per_layer"] {
            let got = reported
                .get(section)
                .and_then(Value::as_object)
                .unwrap_or_else(|| panic!("{name} lacks {section}"));
            let want = names(&contract, section);
            assert_eq!(
                got.len(),
                want.len(),
                "{name}/{section}: reported metrics differ from BENCHMARK.json"
            );
            for (metric, unit) in want {
                let m = reported
                    .get(section)
                    .and_then(|s| s.get(&metric))
                    .unwrap_or_else(|| panic!("{name} did not report {metric}"));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}/{metric} is not a finite number: {value:?}"
                );
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}/{metric} unit"
                );
            }
        }
        // The traced run wrote its span file.
        let spans = root.join(format!("perf/out/spans_{name}.json"));
        let spans =
            std::fs::read_to_string(&spans).unwrap_or_else(|e| panic!("{}: {e}", spans.display()));
        let spans = json::parse(&spans).expect("span file parses");
        let events = spans
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        for wanted in [
            "create",
            "load",
            "run",
            "wait_durable",
            "quiesce",
            "recover",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Value::as_str) == Some(wanted)),
                "{name}: no {wanted} span"
            );
        }
    }
}
