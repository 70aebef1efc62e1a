//! The declarative experiment model: a [`Spec`] names one table/figure/
//! ablation of the evaluation, a [`SpecCtx`] carries the run parameters
//! (tier, seed, overrides), and a [`SpecOutput`] is what a spec's runner
//! hands back — tables for the report renderer plus named metrics for the
//! regression gate.

use crate::env::BenchEnv;
use crate::report::{fmt_tps, Table};

/// Measurement tier: how much work a run buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reduced sweep, smoke-sized cells (seconds; CI uses this).
    Quick,
    /// The full recorded configuration (the numbers in `EXPERIMENTS.md`).
    Full,
}

impl Tier {
    /// Stable on-disk name (`"quick"` / `"full"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }

    /// Parses the on-disk name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Tier> {
        match s {
            "quick" => Some(Tier::Quick),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }
}

/// Which direction of change counts as a regression for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, savings): regression = drop.
    Higher,
    /// Smaller is better (latency, wear): regression = rise.
    Lower,
    /// The value is structural and should hold (writes/tx, counts):
    /// regression = drift in either direction.
    TwoSided,
}

impl Better {
    /// Stable on-disk name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::TwoSided => "two-sided",
        }
    }

    /// Parses the on-disk name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            "two-sided" => Some(Better::TwoSided),
            _ => None,
        }
    }
}

/// One named scalar a spec reports.
///
/// `samples` holds every repeat's raw value (one entry for single-shot
/// cells); `value` is the headline (the median the spec's repeat policy
/// selected). Only `gated` metrics participate in `dude-bench diff` by
/// default: wall-clock throughputs vary across hosts far more than any
/// sane tolerance, so specs gate structural values (counts, ratios,
/// writes/tx, wear) and leave timings as recorded-but-informational
/// unless the operator opts in with `--include-walltime`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, unique within the spec.
    pub name: String,
    /// Unit label (`"tps"`, `"writes/tx"`, ...).
    pub unit: &'static str,
    /// Headline value (median under the spec's repeat policy).
    pub value: f64,
    /// Raw per-repeat samples.
    pub samples: Vec<f64>,
    /// Whether `dude-bench diff` gates on this metric by default.
    pub gated: bool,
    /// Regression direction.
    pub better: Better,
    /// Whether the value is wall-clock derived (machine-dependent).
    pub walltime: bool,
}

/// One rendered table plus the stable slug naming its CSV artifact
/// (`<spec>__<slug>.csv`).
#[derive(Debug, Clone)]
pub struct SpecTable {
    /// File-name slug (lowercase, `[a-z0-9_]`).
    pub slug: String,
    /// The table.
    pub table: Table,
}

/// Everything a spec's runner produces.
#[derive(Debug, Clone, Default)]
pub struct SpecOutput {
    /// Tables in presentation order.
    pub tables: Vec<SpecTable>,
    /// Metrics for the JSON record and the regression gate.
    pub metrics: Vec<Metric>,
    /// Free-form notes carried into the JSON record.
    pub notes: Vec<String>,
}

impl SpecOutput {
    /// Appends a table under `slug`.
    pub fn table(&mut self, slug: &str, table: Table) {
        self.tables.push(SpecTable {
            slug: slug.to_string(),
            table,
        });
    }

    /// Appends an ungated wall-clock metric (recorded, gated only under
    /// `diff --include-walltime`, in the direction `better` names).
    pub fn walltime_metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        value: f64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: vec![value],
            gated: false,
            better,
            walltime: true,
        });
    }

    /// Appends a gated structural metric (`TwoSided` unless overridden via
    /// the returned entry).
    pub fn gated_metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: vec![value],
            gated: true,
            better: Better::TwoSided,
            walltime: false,
        });
    }

    /// Appends a wall-clock metric with all repeat samples; `value` is the
    /// median.
    pub fn walltime_samples(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        samples: Vec<f64>,
    ) {
        let value = median(&samples);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
            gated: false,
            better: Better::Higher,
            walltime: true,
        });
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Median of a non-empty sample set (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The `p95` of a sample set by nearest-rank (0 when empty).
#[must_use]
pub fn p95(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run parameters handed to every spec runner.
#[derive(Debug, Clone, Default)]
pub struct SpecCtx {
    /// Quick or full tier.
    pub tier: TierField,
    /// RNG seed (flows into [`BenchEnv::seed`]).
    pub seed: u64,
    /// Worker-thread override (specs default to the tier's standard).
    pub threads: Option<usize>,
    /// Per-cell operation-count override (test-sized runs).
    pub ops: Option<u64>,
    /// Deterministic rendering: wall-clock cells print as `-` so two
    /// pinned-seed runs render byte-identical tables (the docs-freshness
    /// determinism contract; see `DESIGN.md §Benchmark methodology`).
    pub deterministic: bool,
    /// Restrict multi-workload specs to these workload labels.
    pub workload_filter: Option<Vec<String>>,
    /// Prometheus exposition output path for the last traced run
    /// (honored by the ablation specs).
    pub trace_out: Option<String>,
}

/// Newtype default for [`Tier`] inside `SpecCtx` (quick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierField(pub Tier);

impl Default for TierField {
    fn default() -> Self {
        TierField(Tier::Quick)
    }
}

impl SpecCtx {
    /// A quick-tier context with the standard seed.
    #[must_use]
    pub fn quick() -> Self {
        SpecCtx {
            seed: 42,
            ..SpecCtx::default()
        }
    }

    /// A full-tier context with the standard seed.
    #[must_use]
    pub fn full() -> Self {
        SpecCtx {
            tier: TierField(Tier::Full),
            ..SpecCtx::quick()
        }
    }

    /// The tier.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier.0
    }

    /// `true` in quick tier.
    #[must_use]
    pub fn is_quick(&self) -> bool {
        self.tier() == Tier::Quick
    }

    /// The base environment for this context: the tier's standard
    /// [`BenchEnv`] with seed/thread/ops overrides applied.
    #[must_use]
    pub fn env(&self) -> BenchEnv {
        let mut env = BenchEnv::from_quick(self.is_quick());
        env.seed = self.seed;
        if let Some(t) = self.threads {
            env.threads = t;
        }
        if let Some(ops) = self.ops {
            env.ops = ops;
        }
        env
    }

    /// Repeat count under the tier's median policy (`1` in quick tier).
    #[must_use]
    pub fn reps(&self, full: usize) -> usize {
        if self.is_quick() {
            1
        } else {
            full
        }
    }

    /// Formats a throughput cell, masking it as `-` in deterministic mode.
    #[must_use]
    pub fn tps(&self, v: f64) -> String {
        if self.deterministic {
            "-".to_string()
        } else {
            fmt_tps(v)
        }
    }

    /// Formats an arbitrary wall-clock-derived cell, masking it as `-` in
    /// deterministic mode.
    #[must_use]
    pub fn walltime_cell(&self, s: String) -> String {
        if self.deterministic {
            "-".to_string()
        } else {
            s
        }
    }

    /// `true` if `label` passes the workload filter (no filter = all).
    #[must_use]
    pub fn wants_workload(&self, label: &str) -> bool {
        match &self.workload_filter {
            None => true,
            Some(labels) => labels.iter().any(|l| l == label),
        }
    }
}

/// One registered experiment.
pub struct Spec {
    /// Canonical name (`table2`, `fig3`, `ablation_flush_workers`, ...):
    /// the JSON record is `BENCH_<name>.json`, CSVs are
    /// `<name>__<slug>.csv`, and the doc marker is `<!-- bench:<name> -->`.
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// What part of the paper (or which extension) this reproduces.
    pub paper_ref: &'static str,
    /// Declared table slugs with one-line descriptions (drives
    /// `MANIFEST.md`; runners must emit exactly these slugs).
    pub tables: &'static [(&'static str, &'static str)],
    /// Executes the spec.
    pub runner: fn(&SpecCtx) -> SpecOutput,
}

impl std::fmt::Debug for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spec")
            .field("name", &self.name)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_and_better_names_round_trip() {
        for t in [Tier::Quick, Tier::Full] {
            assert_eq!(Tier::from_name(t.name()), Some(t));
        }
        for b in [Better::Higher, Better::Lower, Better::TwoSided] {
            assert_eq!(Better::from_name(b.name()), Some(b));
        }
        assert_eq!(Tier::from_name("warp"), None);
    }

    #[test]
    fn ctx_overrides_flow_into_env() {
        let ctx = SpecCtx {
            threads: Some(2),
            ops: Some(123),
            seed: 7,
            ..SpecCtx::quick()
        };
        let env = ctx.env();
        assert_eq!(env.threads, 2);
        assert_eq!(env.ops, 123);
        assert_eq!(env.seed, 7);
        assert_eq!(ctx.reps(3), 1);
        assert_eq!(SpecCtx::full().reps(3), 3);
    }

    #[test]
    fn deterministic_masks_walltime_cells() {
        let det = SpecCtx {
            deterministic: true,
            ..SpecCtx::quick()
        };
        assert_eq!(det.tps(123_000.0), "-");
        assert_eq!(SpecCtx::quick().tps(123_000.0), "123.0 KTPS");
    }

    #[test]
    fn median_and_p95() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(p95(&[1.0, 2.0, 3.0, 4.0]), 4.0);
    }

    #[test]
    fn workload_filter() {
        let ctx = SpecCtx {
            workload_filter: Some(vec!["Bank".into()]),
            ..SpecCtx::quick()
        };
        assert!(ctx.wants_workload("Bank"));
        assert!(!ctx.wants_workload("HashTable"));
        assert!(SpecCtx::quick().wants_workload("anything"));
    }
}
