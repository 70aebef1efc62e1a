//! Captures `rustc -V` at build time for the environment stamp, so the
//! benchmark itself never has to spawn a process for it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=DUDE_PERF_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
