//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--record` regenerates the correctness references in `ref/`.

mod host;
mod matrix;
mod probe;
mod reference;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use cdpc_memsim::MissClass;
use cdpc_obs::{JsonValue, SplitMix64};

use crate::host::{median, percentile};
use crate::spans::{durations, Tracer};
use crate::workloads::{CacheRoundtrip, Evidence, Fig6Sweep, ProveSuite, Workload};

/// Where the benchmark writes: cache rounds and trace files, inside the
/// directory it runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

const USAGE: &str = "usage: perfbench --workload fig6_sweep|prove_suite|cache_roundtrip \
                     --seed N --seconds S --trace 0|1   |   perfbench --record";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().map_err(|_| bad("a number"))?).filter(|s| *s > 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Some(Args {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err("--workload, --seed, --seconds (> 0) and --trace are required".into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return record(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "fig6_sweep" => measure::<Fig6Sweep>(&args),
        "prove_suite" => measure::<ProveSuite>(&args),
        "cache_roundtrip" => measure::<CacheRoundtrip>(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", result.to_string_compact());
}

/// A metric as the result line carries it.
fn metric(metrics: &mut JsonValue, name: &str, value: f64, unit: &str) {
    let mut m = JsonValue::object();
    m.push("value", JsonValue::Float(value));
    m.push("unit", JsonValue::Str(unit.into()));
    metrics.push(name, m);
}

fn count(metrics: &mut JsonValue, name: &str, value: u64) {
    let mut m = JsonValue::object();
    m.push("value", JsonValue::UInt(value));
    m.push("unit", JsonValue::Str("count".into()));
    metrics.push(name, m);
}

/// Per-pass figures of a run's passes.
#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    busy: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// A whole-pass check (the Figure 6 table) failed.
    mismatch: bool,
}

impl Passes {
    fn run<W: Workload>(&mut self, w: &mut W, rng: &mut SplitMix64, tracer: &Tracer) {
        let mut pass = tracer.span("bench.pass", None, |id| w.pass(rng, tracer, id));
        let wall = pass.wall_s;
        let busy: f64 = pass.op_ms.iter().sum::<f64>() / 1e3;
        self.busy.push(busy / (w.workers() as f64 * wall));
        self.wall_s.push(wall);
        self.p50_ms.push(percentile(&mut pass.op_ms, 0.5));
        self.p90_ms.push(percentile(&mut pass.op_ms, 0.9));
        self.attempted += pass.op_ms.len() as u64;
        self.failed += pass.failed;
        self.mismatch |= !pass.whole_ok;
    }
}

fn measure<W: Workload>(args: &Args) -> JsonValue {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::off();
    let calib = host::calib_ms();
    println!("host {}", host::facts(calib).to_string_compact());

    let mut setup_s = Vec::new();
    let mut set_up = |times: usize, w: &mut Option<W>| {
        for _ in 0..times {
            drop(w.take());
            let t = Instant::now();
            *w = Some(tracer.span("bench.setup", None, |id| W::setup(&tracer, id)));
            setup_s.push(t.elapsed().as_secs_f64());
        }
    };
    let mut w = None;
    set_up(W::SETUPS, &mut w);

    let mut rng = SplitMix64::new(args.seed);
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    let start = Instant::now();
    loop {
        let live = w.as_mut().expect("set up before every pass");
        untraced.run(live, &mut rng, &off);
        if args.trace {
            traced.run(live, &mut rng, &tracer);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        set_up(W::RESETUPS, &mut w);
    }
    let mut w = w.expect("set up before every pass");

    eprintln!(
        "perfbench: {} seed {}: pass walls (s) {:?}, traced {:?}",
        args.workload, args.seed, untraced.wall_s, traced.wall_s,
    );
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let mut metrics = JsonValue::object();
    if args.trace {
        let mut evidence = w.evidence();
        let counts = tracer.span("bench.probe", None, |id| {
            probe::run_probe(w.matrix(), &tracer, id, &mut evidence)
        });
        layer_metrics(
            &mut metrics,
            &tracer,
            &evidence,
            &counts,
            &untraced,
            &traced,
        );
        metric(&mut metrics, "host.calib_ms", calib, "ms");
        metric(
            &mut metrics,
            "failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
        );
        write_trace(args, &tracer, &metrics);
    } else {
        let wall = median(&mut untraced.wall_s);
        metric(&mut metrics, "wall_s", wall, "s");
        metric(
            &mut metrics,
            "op_p50_ms",
            median(&mut untraced.p50_ms),
            "ms",
        );
        metric(
            &mut metrics,
            "op_p90_ms",
            median(&mut untraced.p90_ms),
            "ms",
        );
        metric(
            &mut metrics,
            "sim_refs_per_s",
            w.refs_per_pass() as f64 / wall,
            "1/s",
        );
        metric(&mut metrics, "setup_s", median(&mut setup_s), "s");
        metric(&mut metrics, "peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    eprintln!("perfbench: {attempted} ops, {failed} failed");
    let mut out = JsonValue::object();
    out.push(
        "correct",
        JsonValue::Bool(failed == 0 && !untraced.mismatch && !traced.mismatch),
    );
    out.push("attempted", JsonValue::UInt(attempted));
    out.push("failed", JsonValue::UInt(failed));
    out.push("metrics", metrics);
    out
}

fn median_us(spans: &[spans::Span], name: &str) -> f64 {
    let mut v: Vec<f64> = durations(spans, name)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&mut v)
}

fn total_ns(spans: &[spans::Span], name: &str) -> f64 {
    durations(spans, name).iter().sum::<u64>() as f64
}

fn layer_metrics(
    m: &mut JsonValue,
    tracer: &Tracer,
    ev: &Evidence,
    counts: &probe::Counts,
    untraced: &Passes,
    traced: &Passes,
) {
    let spans = tracer.spans();
    let probe = spans
        .iter()
        .find(|s| s.name == "bench.probe")
        .map(|s| s.id)
        .expect("the layer probe ran");
    metric(
        m,
        "workloads.build_us",
        median_us(&spans, "workloads.Benchmark::build"),
        "us",
    );
    metric(
        m,
        "compiler.compile_us",
        median_us(&spans, "compiler.compile"),
        "us",
    );
    metric(
        m,
        "compiler.trace_ns_per_op",
        total_ns(&spans, "compiler.OpSpec::ops") / counts.trace_ops as f64,
        "ns",
    );
    count(m, "compiler.trace_ops", counts.trace_ops);
    metric(
        m,
        "core.hints_us",
        median_us(&spans, "core.generate_hints_with"),
        "us",
    );
    count(m, "core.hinted_pages", counts.hinted_pages);

    let faults = ev.reports.iter().fold((0, 0, 0), |(f, p, h), r| {
        let s = &r.fault_stats;
        (f + s.faults, p + s.preferred, h + s.honored)
    });
    metric(
        m,
        "vm.fault_ns",
        total_ns(&spans, "vm.AddressSpace::fault") / counts.faults as f64,
        "ns",
    );
    count(m, "vm.page_faults", faults.0);
    metric(
        m,
        "vm.hint_honor_ratio",
        faults.2 as f64 / faults.1.max(1) as f64,
        "ratio",
    );

    metric(
        m,
        "memsim.l1_hit_ns",
        total_ns(&spans, "memsim.MemorySystem::access/l1_hit") / counts.l1_refs as f64,
        "ns",
    );
    metric(
        m,
        "memsim.miss_ns",
        total_ns(&spans, "memsim.MemorySystem::access/miss") / counts.miss_refs as f64,
        "ns",
    );
    for (name, class) in [
        ("conflict", MissClass::Conflict),
        ("capacity", MissClass::Capacity),
        ("true_sharing", MissClass::TrueSharing),
        ("false_sharing", MissClass::FalseSharing),
        ("cold", MissClass::Cold),
    ] {
        let n = ev
            .reports
            .iter()
            .map(|r| r.mem_stats.aggregate().misses.get(class))
            .sum();
        count(m, &format!("memsim.l2_misses.{name}"), n);
    }
    let bus = ev
        .reports
        .iter()
        .map(|r| r.bus.data_cycles + r.bus.writeback_cycles + r.bus.upgrade_cycles)
        .sum();
    count(m, "memsim.bus_busy_cycles", bus);

    let mut run_ms: Vec<f64> = durations(&spans, "machine.run")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    metric(m, "machine.run_ms.p50", percentile(&mut run_ms, 0.5), "ms");
    metric(m, "machine.run_ms.p90", percentile(&mut run_ms, 0.9), "ms");
    let probe_runs: f64 = spans
        .iter()
        .filter(|s| s.name == "machine.run" && s.parent == Some(probe))
        .map(|s| s.dur_ns() as f64)
        .sum();
    metric(
        m,
        "machine.ns_per_ref",
        probe_runs / counts.run_refs as f64,
        "ns",
    );
    count(
        m,
        "machine.simulated_refs",
        ev.reports.iter().map(|r| r.simulated_refs).sum(),
    );
    metric(
        m,
        "machine.sweep_busy_ratio",
        median(&mut untraced.busy.clone()),
        "ratio",
    );
    metric(
        m,
        "machine.run_key_us",
        median_us(&spans, "machine.run_key"),
        "us",
    );
    metric(
        m,
        "machine.cache_load_us",
        median_us(&spans, "machine.ResultCache::load"),
        "us",
    );
    metric(
        m,
        "machine.cache_store_us",
        median_us(&spans, "machine.ResultCache::store"),
        "us",
    );
    let (hits, probes, deduped) = ev.memo.iter().fold((0, 0, 0), |(h, p, d), s| {
        (h + s.hits, p + s.hits + s.misses, d + s.deduped)
    });
    metric(
        m,
        "machine.cache_hit_ratio",
        hits as f64 / probes.max(1) as f64,
        "ratio",
    );
    count(m, "machine.deduped", deduped);

    let mut predict_ms: Vec<f64> = durations(&spans, "analyze.predict_program")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    metric(
        m,
        "analyze.predict_ms.p50",
        percentile(&mut predict_ms, 0.5),
        "ms",
    );
    metric(
        m,
        "analyze.predict_ms.p90",
        percentile(&mut predict_ms, 0.9),
        "ms",
    );
    count(
        m,
        "analyze.predicted_cells",
        ev.proofs.iter().map(|p| p.cells.len() as u64).sum(),
    );
    count(
        m,
        "analyze.phases_proven_free",
        ev.proofs
            .iter()
            .map(|p| p.phases.iter().filter(|ph| ph.proven_free).count() as u64)
            .sum(),
    );

    metric(
        m,
        "obs.attrib_overhead_ratio",
        total_ns(&spans, "machine.run_attributed") / probe_runs,
        "ratio",
    );
    metric(
        m,
        "obs.report_json_us",
        median_us(&spans, "obs.report_to_json"),
        "us",
    );
    metric(
        m,
        "bench.trace_overhead_ratio",
        median(&mut traced.wall_s.clone()) / median(&mut untraced.wall_s.clone()),
        "ratio",
    );
    metric(
        m,
        "bench.span_coverage",
        spans::coverage(&spans, "bench.pass"),
        "ratio",
    );
}

/// Writes the spans as a Chrome trace, with the self-time table and the
/// per-layer metrics as its `summary`, and prints the table to stderr.
fn write_trace(args: &Args, tracer: &Tracer, metrics: &JsonValue) {
    let spans = tracer.spans();
    let mut table = Vec::new();
    eprintln!(
        "{:<40} {:>8} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, calls, total, own) in spans::by_name(&spans) {
        eprintln!(
            "{name:<40} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
        let mut row = JsonValue::object();
        row.push("span", JsonValue::Str(name.into()));
        row.push("calls", JsonValue::UInt(calls));
        row.push("total_ns", JsonValue::UInt(total));
        row.push("self_ns", JsonValue::UInt(own));
        table.push(row);
    }
    let mut summary = JsonValue::object();
    summary.push("workload", JsonValue::Str(args.workload.clone()));
    summary.push("seed", JsonValue::UInt(args.seed));
    summary.push("self_time", JsonValue::Array(table));
    if let Some(split) = run_split(&spans) {
        eprintln!("run split (by subtraction): {}", split.to_string_compact());
        summary.push("run_split", split);
    }
    summary.push("metrics", metrics.clone());
    let dir = work_dir();
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_trace(&spans, summary)))
        .unwrap_or_else(|e| panic!("cannot write `{}`: {e}", path.display()));
    eprintln!("perfbench: trace written to {}", path.display());
}

/// Splits the `run` time of the traced passes into trace generation, hint
/// generation and the remainder (run loop + memsim + vm), from the probe's
/// separate calls on the same programs. Every program runs under PC and
/// CDPC and each run drains every cursor twice (warm-up and measured
/// pass), so trace generation is 4 × the probe's drains; each CDPC run
/// generates hints once. The remainder is by subtraction. `None` when the
/// passes run no simulations.
fn run_split(spans: &[spans::Span]) -> Option<JsonValue> {
    let passes: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "bench.pass")
        .map(|s| s.id)
        .collect();
    let run_ns: f64 = spans
        .iter()
        .filter(|s| s.name == "machine.run" && s.parent.is_some_and(|p| passes.contains(&p)))
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / passes.len().max(1) as f64;
    if run_ns == 0.0 {
        return None;
    }
    let trace = 4.0 * total_ns(spans, "compiler.OpSpec::ops") / run_ns;
    let hints = total_ns(spans, "core.generate_hints_with") / run_ns;
    let mut split = JsonValue::object();
    split.push("run_s_per_pass", JsonValue::Float(run_ns / 1e9));
    split.push("trace_generation_share", JsonValue::Float(trace));
    split.push("hint_generation_share", JsonValue::Float(hints));
    split.push(
        "run_loop_memsim_vm_share",
        JsonValue::Float(1.0 - trace - hints),
    );
    Some(split)
}

/// Regenerates `ref/` from the current code: the Figure 6 table and
/// report digests, and the prover outputs.
fn record() {
    let off = Tracer::off();
    let mut rng = SplitMix64::new(0);
    let mut fig6 = Fig6Sweep::setup(&off, None);
    fig6.pass(&mut rng, &off, None);
    let reports = fig6.evidence().reports;
    let table = workloads::fig6_table(fig6.matrix(), &reports);
    let report_refs: Vec<_> = (0..reports.len())
        .map(|i| {
            (
                fig6.matrix().label(i),
                reference::ReportRef::of(&reports[i]),
            )
        })
        .collect();

    let mut prove = ProveSuite::setup(&off, None);
    prove.pass(&mut rng, &off, None);
    let labels: Vec<String> = (0..prove.matrix().cells.len())
        .map(|i| prove.matrix().label(i))
        .collect();
    let proofs = prove.evidence().proofs;
    let proof_refs: Vec<_> = labels
        .into_iter()
        .zip(&proofs)
        .map(|(l, p)| (l, reference::ProofRef::of(p)))
        .collect();

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("ref");
    reference::write(&dir, &table, &report_refs, &proof_refs)
        .unwrap_or_else(|e| panic!("cannot write references to `{}`: {e}", dir.display()));
    eprintln!("perfbench: references written to {}", dir.display());
}
