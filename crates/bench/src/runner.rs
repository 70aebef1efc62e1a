//! Executes registered specs: prints their tables, writes the canonical
//! `<spec>__<slug>.csv` and `BENCH_<spec>.json` artifacts.

use std::path::{Path, PathBuf};

use crate::record::{EnvMeta, Record};
use crate::spec::{Spec, SpecCtx};

/// Where a run writes its artifacts.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Output directory (default `bench_results`).
    pub out_dir: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            out_dir: PathBuf::from("bench_results"),
        }
    }
}

/// Runs one spec end to end: executes the runner, prints every table,
/// writes per-table CSVs and the spec's JSON record, and returns the
/// record.
pub fn run_spec(spec: &Spec, ctx: &SpecCtx, opts: &RunOptions) -> Record {
    println!(
        "== {} [{} tier, seed {}{}] ==",
        spec.name,
        ctx.tier().name(),
        ctx.seed,
        if ctx.deterministic {
            ", deterministic"
        } else {
            ""
        }
    );
    let out = (spec.runner)(ctx);
    for t in &out.tables {
        t.table.print();
        t.table
            .save_csv_as(&opts.out_dir, &format!("{}__{}", spec.name, t.slug));
    }
    for note in &out.notes {
        println!("({note})");
    }
    let record = Record::from_output(spec, ctx, out, EnvMeta::capture());
    write_record(&record, &opts.out_dir);
    record
}

/// Writes a record as `BENCH_<spec>.json` under `dir`.
pub fn write_record(record: &Record, dir: &Path) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(record.file_name());
    match std::fs::write(&path, record.to_json().pretty()) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Tier;

    #[test]
    fn run_spec_writes_csv_and_json() {
        let dir = std::env::temp_dir().join(format!("dude_bench_runner_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = SpecCtx {
            ops: Some(64),
            threads: Some(1),
            deterministic: true,
            workload_filter: Some(vec!["HashTable".into()]),
            ..SpecCtx::quick()
        };
        let opts = RunOptions {
            out_dir: dir.clone(),
        };
        let spec = crate::registry::find("table1").unwrap();
        let record = run_spec(spec, &ctx, &opts);
        assert_eq!(record.tier, Tier::Quick);
        assert!(dir.join("table1__main.csv").is_file());
        let loaded = Record::load(&dir.join("BENCH_table1.json")).expect("record loads");
        assert_eq!(loaded.spec, "table1");
        assert!(loaded.deterministic);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
