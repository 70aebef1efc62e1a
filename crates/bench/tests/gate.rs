//! Regression-gate semantics: tolerance boundaries, typed errors, and
//! walltime opt-in for `dude-bench diff`.

use dude_bench::diff::{diff_records, parse_tolerance, DiffError};
use dude_bench::record::{EnvMeta, Record};
use dude_bench::spec::{Better, Metric, SpecOutput, Tier};

fn env() -> EnvMeta {
    EnvMeta {
        os: "linux".into(),
        arch: "x86_64".into(),
        cpus: 4,
        git_sha: "abc123".into(),
        source: "run".into(),
    }
}

fn metric(name: &str, value: f64, gated: bool, better: Better, walltime: bool) -> Metric {
    Metric {
        name: name.into(),
        unit: "tps",
        value,
        samples: vec![value],
        gated,
        better,
        walltime,
    }
}

fn record(spec: &str, tier: Tier, metrics: Vec<Metric>) -> Record {
    Record {
        spec: spec.into(),
        title: spec.into(),
        paper_ref: "test".into(),
        tier,
        deterministic: false,
        seed: 42,
        env: env(),
        metrics,
        tables: vec![],
        notes: vec![],
    }
}

#[test]
fn exactly_at_tolerance_boundary_passes() {
    // Baseline 100, Higher-is-better, 15% tolerance: 85.0 is ON the
    // boundary and must pass; anything strictly below fails.
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    let at = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 85.0, true, Better::Higher, false)],
    )];
    let report = diff_records(&base, &at, 0.15, false).unwrap();
    assert!(report.pass(), "value exactly at the boundary must pass");
    assert_eq!(report.checked, 1);

    let below = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 84.9, true, Better::Higher, false)],
    )];
    let report = diff_records(&base, &below, 0.15, false).unwrap();
    assert!(!report.pass());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].metric, "m");
    assert!((report.regressions[0].change - (-0.151)).abs() < 1e-9);
}

#[test]
fn improvement_passes_and_is_reported() {
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    let cur = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 200.0, true, Better::Higher, false)],
    )];
    let report = diff_records(&base, &cur, 0.15, false).unwrap();
    assert!(report.pass(), "improvements never fail the gate");
    assert_eq!(report.improvements.len(), 1);
    assert_eq!(report.improvements[0].current, 200.0);
}

#[test]
fn two_sided_metrics_fail_in_both_directions() {
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![metric("wtx", 10.0, true, Better::TwoSided, false)],
    )];
    for drifted in [8.0, 12.0] {
        let cur = vec![record(
            "s",
            Tier::Quick,
            vec![metric("wtx", drifted, true, Better::TwoSided, false)],
        )];
        let report = diff_records(&base, &cur, 0.15, false).unwrap();
        assert!(!report.pass(), "{drifted} should fail two-sided at 15%");
    }
    let ok = vec![record(
        "s",
        Tier::Quick,
        vec![metric("wtx", 10.5, true, Better::TwoSided, false)],
    )];
    assert!(diff_records(&base, &ok, 0.15, false).unwrap().pass());
}

#[test]
fn missing_spec_is_a_typed_error() {
    let base = vec![record("gone", Tier::Quick, vec![])];
    let err = diff_records(&base, &[], 0.15, false).unwrap_err();
    assert_eq!(
        err,
        DiffError::MissingSpec {
            spec: "gone".into()
        }
    );
    // And it is an error, not a regression: distinct from a failing report.
    assert!(err.to_string().contains("gone"));
}

#[test]
fn environment_mismatch_is_a_typed_error() {
    // Tier mismatch: a quick current run cannot gate against a full
    // baseline.
    let base = vec![record(
        "s",
        Tier::Full,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    let cur = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    match diff_records(&base, &cur, 0.15, false).unwrap_err() {
        DiffError::EnvMismatch {
            spec,
            field,
            baseline,
            current,
        } => {
            assert_eq!(spec, "s");
            assert_eq!(field, "tier");
            assert_eq!(baseline, "full");
            assert_eq!(current, "quick");
        }
        other => panic!("expected EnvMismatch, got {other:?}"),
    }

    // Unit mismatch on a gated metric is also an environment mismatch.
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    let mut bad_unit = metric("m", 100.0, true, Better::Higher, false);
    bad_unit.unit = "us";
    let cur = vec![record("s", Tier::Quick, vec![bad_unit])];
    assert!(matches!(
        diff_records(&base, &cur, 0.15, false).unwrap_err(),
        DiffError::EnvMismatch { .. }
    ));
}

#[test]
fn missing_metric_is_a_typed_error_distinct_from_missing_spec() {
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![metric("m", 100.0, true, Better::Higher, false)],
    )];
    let cur = vec![record("s", Tier::Quick, vec![])];
    let err = diff_records(&base, &cur, 0.15, false).unwrap_err();
    assert_eq!(
        err,
        DiffError::MissingMetric {
            spec: "s".into(),
            metric: "m".into()
        }
    );
}

#[test]
fn walltime_metrics_gate_only_on_opt_in() {
    let base = vec![record(
        "s",
        Tier::Quick,
        vec![
            metric("tps", 100.0, false, Better::Higher, true),
            metric("wtx", 10.0, true, Better::TwoSided, false),
        ],
    )];
    let cur = vec![record(
        "s",
        Tier::Quick,
        vec![
            metric("tps", 10.0, false, Better::Higher, true), // huge walltime drop
            metric("wtx", 10.0, true, Better::TwoSided, false),
        ],
    )];
    let without = diff_records(&base, &cur, 0.15, false).unwrap();
    assert!(without.pass(), "walltime excluded by default");
    assert_eq!(without.checked, 1);
    let with = diff_records(&base, &cur, 0.15, true).unwrap();
    assert!(!with.pass(), "walltime gated with --include-walltime");
    assert_eq!(with.checked, 2);
}

/// A latency recorded through `walltime_metric(.., Better::Lower, ..)`, as
/// the `p50_ns/…`, `p99_ns/…` and `slowdown_*` sites do, gates downwards: a
/// rise past tolerance fails, a fall past it is reported as an improvement.
#[test]
fn walltime_latency_gates_lower_is_better() {
    let latency = |ns: f64| {
        let mut out = SpecOutput::default();
        out.walltime_metric("p99_ns/tatp", "ns", Better::Lower, ns);
        vec![record("s", Tier::Quick, out.metrics)]
    };
    let base = latency(1000.0);
    let rose = diff_records(&base, &latency(1200.0), 0.15, true).unwrap();
    assert!(!rose.pass(), "a latency increase is a regression");
    assert_eq!(rose.regressions[0].metric, "p99_ns/tatp");
    assert!(rose.improvements.is_empty());
    let fell = diff_records(&base, &latency(800.0), 0.15, true).unwrap();
    assert!(fell.pass(), "a latency drop never fails the gate");
    assert_eq!(fell.improvements.len(), 1);
    assert_eq!(fell.improvements[0].metric, "p99_ns/tatp");
}

#[test]
fn tolerance_accepts_percent_and_fraction() {
    assert_eq!(parse_tolerance("15%").unwrap(), 0.15);
    assert_eq!(parse_tolerance("0.15").unwrap(), 0.15);
    assert!(matches!(
        parse_tolerance("banana").unwrap_err(),
        DiffError::BadTolerance(_)
    ));
}
