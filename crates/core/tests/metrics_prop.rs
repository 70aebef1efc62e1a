//! Property tests for the metrics layer's math: histogram quantiles
//! against an exact nearest-rank oracle, and the Prometheus exposition's
//! structural invariants under arbitrary histogram contents.

use proptest::prelude::*;

use dudetm::trace::bucket_bounds;
use dudetm::{render_histogram, validate_exposition, LatencyHistogram};

/// `(lo, hi)` of the power-of-two bucket holding `v` — the oracle's view
/// of the resolution the histogram quantizes to.
fn bounds_of(v: u64) -> (u64, u64) {
    for b in 0..=64 {
        let (lo, hi) = bucket_bounds(b);
        if (lo..=hi).contains(&v) {
            return (lo, hi);
        }
    }
    unreachable!("every u64 lands in some bucket");
}

/// Exact nearest-rank quantile over the raw values (the definition the
/// histogram approximates): the smallest value with at least
/// `ceil(q * n)` values at or below it.
fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram quantile brackets the exact nearest-rank value: never
    /// below it, and never past the upper bound of its power-of-two bucket
    /// (clamped to the true maximum). This pins the estimator to its
    /// documented resolution for any value distribution and any quantile.
    #[test]
    fn quantile_brackets_the_nearest_rank_oracle(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        q_millis in 1u32..1001,
    ) {
        let q = f64::from(q_millis) / 1000.0;
        let hist = LatencyHistogram::default();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_nearest_rank(&sorted, q);
        let max = *sorted.last().expect("non-empty");
        let estimate = snap.quantile(q);
        prop_assert!(
            estimate >= exact,
            "quantile({q}) = {estimate} underestimates exact {exact}"
        );
        prop_assert!(
            estimate <= bounds_of(exact).1.min(max),
            "quantile({q}) = {estimate} overshoots bucket {:?} of exact {exact} (max {max})",
            bounds_of(exact)
        );
    }

    /// Quantiles are monotone in `q`, and the extremes behave: any
    /// quantile is at most the recorded maximum, and the top quantile
    /// reaches the maximum's bucket.
    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let hist = LatencyHistogram::default();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let max = *values.iter().max().expect("non-empty");
        let mut prev = 0u64;
        for q_millis in [10u32, 250, 500, 750, 900, 950, 990, 1000] {
            let est = snap.quantile(f64::from(q_millis) / 1000.0);
            prop_assert!(est >= prev, "quantile must be monotone in q");
            prop_assert!(est <= max, "quantile {est} exceeds max {max}");
            prev = est;
        }
        prop_assert_eq!(snap.quantile(1.0), max, "p100 is the exact maximum");
    }

    /// Any histogram, rendered into the exposition, satisfies the
    /// Prometheus structural invariants the validator checks: cumulative
    /// buckets, `+Inf == _count`, declared families — including histograms
    /// holding extreme values (bucket 64) and empty ones, alone or as a
    /// labeled member of the same family.
    #[test]
    fn exposition_validates_for_arbitrary_histograms(
        values in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let hist = LatencyHistogram::default();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut text = String::new();
        render_histogram(&mut text, "latency_ns", "latency", None, &snap);
        render_histogram(&mut text, "latency_ns", "latency", Some(("shard", 1)), &snap);
        prop_assert!(
            validate_exposition(&text).is_ok(),
            "invalid exposition:\n{}",
            text
        );
        for labels in ["", "shard=\"1\","] {
            let inf_line = format!(
                "dudetm_latency_ns_bucket{{{labels}le=\"+Inf\"}} {}",
                values.len()
            );
            prop_assert!(text.contains(&inf_line), "missing {}:\n{}", inf_line, text);
        }
    }
}
