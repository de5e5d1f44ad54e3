//! Miss attribution for one run: which array, on which page color, on
//! which CPU, causes which class of cache miss.
//!
//! Runs a single (benchmark, CPU count, policy) combination with the
//! attribution probe installed and reports the per-array/per-color miss
//! decomposition — the paper's conflict-tracing methodology (Figure 6's
//! "which arrays fight over the cache" question) as a tool.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin attrib -- tomcatv 8 cdpc
//! cargo run --release -p cdpc-bench --bin attrib -- swim 4 page-coloring --attrib swim.json
//! cargo run --release -p cdpc-bench --bin attrib -- tomcatv 4 cdpc --quick --attrib out.json
//! ```
//!
//! With `--attrib <path>` the JSON document is written to `path` and a
//! self-contained HTML report (inline SVG heatmap, offender table,
//! occupancy timeline) next to it with an `.html` extension. Without
//! `--attrib`, or with `--top`, the terminal summary is printed. `--quick`
//! is shorthand for `--scale 64`: the CI-friendly fast mode (the
//! simulator is deterministic, so quick-mode output is byte-stable and
//! diffable against a golden file).

use cdpc_bench::{exit_usage, run_positionals, Setup};
use cdpc_machine::summary_line;

const USAGE: &str = "usage: attrib <benchmark> [cpus] [policy] [--scale N | --quick] \
                     [--attrib <path>] [--top] [--threads N]\n  \
                     policies: page-coloring | bin-hopping | cdpc | cdpc-touch | dynamic-recolor";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut setup = Setup::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    let value = |i: usize, flag: &str| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| exit_usage(&format!("{flag} needs a value"), USAGE))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value(i, "--scale");
                setup.scale = match v.parse::<u64>() {
                    Ok(n) if n.is_power_of_two() => n,
                    _ => exit_usage(&format!("--scale must be a power of two, got `{v}`"), USAGE),
                };
                i += 2;
            }
            "--quick" => {
                setup.scale = 64;
                i += 1;
            }
            "--attrib" => {
                setup.obs.attrib = Some(value(i, "--attrib").into());
                i += 2;
            }
            "--top" => {
                setup.obs.top = true;
                i += 1;
            }
            "--threads" => {
                let v = value(i, "--threads");
                setup.threads = v.parse().unwrap_or_else(|_| {
                    exit_usage(&format!("--threads needs a thread count, got `{v}`"), USAGE)
                });
                i += 2;
            }
            other if other.starts_with("--") => {
                exit_usage(&format!("unknown flag `{other}`"), USAGE)
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    // No output requested at all: default to the terminal summary.
    if setup.obs.attrib.is_none() {
        setup.obs.top = true;
    }
    let (bench, cpus, policy) = run_positionals(&positional, USAGE);

    let report = setup.run_bench(
        &bench,
        cdpc_bench::Preset::Base1MbDm,
        cpus,
        policy,
        false,
        true,
    );
    eprintln!("{}", summary_line(&report));
    if let Some(path) = &setup.obs.attrib {
        eprintln!(
            "attribution report: {} (+ {})",
            path.display(),
            path.with_extension("html").display()
        );
    }
}
