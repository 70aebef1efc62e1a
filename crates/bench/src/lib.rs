//! Benchmark harness regenerating every table and figure of the DudeTM
//! paper's evaluation (§5).
//!
//! Every experiment — each paper table/figure plus the repo's ablations
//! and endurance extension — is a declarative [`spec::Spec`] in
//! [`registry::SPECS`]: a name, the paper reference, the tables it
//! declares, and a runner `fn(&SpecCtx) -> SpecOutput`. The `dude-bench`
//! binary ([`cli`]) owns the whole measurement loop on top of it:
//!
//! | Subcommand | Module | What it does |
//! |---|---|---|
//! | `list` | [`registry`] | enumerate specs, their tables and paper refs |
//! | `run` | [`runner`] | execute specs at `--quick`/`--full` tier, write `<spec>__<slug>.csv` + `BENCH_<spec>.json` ([`record`]) |
//! | `diff` | [`diff`] | gate a run against a baseline bundle at a tolerance; typed errors, nonzero exit on regression |
//! | `render` | [`render`] | regenerate the `<!-- bench:... -->` blocks of `EXPERIMENTS.md` from records (`--check` for CI) |
//! | `baseline` | [`diff`] | bundle a run's records into `bench_results/baseline.json` |
//! | `manifest` | [`manifest`] | regenerate `bench_results/MANIFEST.md` mapping specs to artifacts |
//!
//! Records are hand-rolled JSON ([`json`]) — no serde, byte-stable
//! pretty-printing so deterministic runs diff clean. Scale-downs relative
//! to the paper (single-CPU container, smaller heaps) are documented in
//! `EXPERIMENTS.md`; `DESIGN.md §13` describes the methodology.

#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod env;
pub mod json;
pub mod manifest;
pub mod metrics_out;
pub mod record;
pub mod registry;
pub mod render;
pub mod report;
pub mod runner;
pub mod spec;
pub mod systems;
pub mod workloads;

pub use env::BenchEnv;
pub use report::Table;
pub use spec::{Spec, SpecCtx, SpecOutput, Tier};
pub use systems::{run_combo, run_combo_median, SystemKind};
pub use workloads::WorkloadKind;
