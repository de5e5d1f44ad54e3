//! Inspect one run in full detail: a Figure-2-style breakdown for any
//! (benchmark, CPU count, policy) combination, with optional structured
//! exports.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin inspect -- tomcatv 8 cdpc
//! cargo run --release -p cdpc-bench --bin inspect -- swim 16 bin-hopping --scale 4
//! cargo run --release -p cdpc-bench --bin inspect -- swim 8 cdpc \
//!     --json report.json --trace trace.json --series series.csv
//! ```

use cdpc_bench::{Preset, Setup};
use cdpc_machine::render_report;

fn main() {
    let (setup, positional) = Setup::from_args_with_positionals();
    let usage = "usage: inspect <benchmark> [cpus] [policy] [--scale N] \
                 [--json <path>] [--trace <path>] [--series <path>] \
                 [--sample-interval <cycles>]\n  \
                 policies: page-coloring | bin-hopping | cdpc | cdpc-touch | dynamic-recolor";
    let (bench, cpus, policy) = cdpc_bench::run_positionals(&positional, usage);
    let report = setup.run_bench(&bench, Preset::Base1MbDm, cpus, policy, false, true);
    print!("{}", render_report(&report));
}
