//! `dude-bench`: the experiment driver owning the whole measurement loop —
//! registry listing, spec execution, regression gating, report rendering.
//! See `dude_bench::cli` for the subcommands.

#![deny(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dude_bench::cli::main_with_args(args));
}
