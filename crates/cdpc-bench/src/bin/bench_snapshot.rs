//! Regenerates `results/bench_snapshot.json`: simulator-throughput
//! self-profiles (refs/sec, event counts) for every workload at the
//! default scale under the CDPC policy, plus microbenchmarks covering each
//! hot path: the miss-storm bound on the memory system, the streaming
//! trace generator (`trace_stream`), the L1-hit fast path (`l1_hit_1p`),
//! and end-to-end run-loop measurements (`run_loop_tomcatv_8p`).
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin bench_snapshot             # print
//! cargo run --release -p cdpc-bench --bin bench_snapshot -- --write  # update file
//! cargo run --release -p cdpc-bench --bin bench_snapshot -- --quick  # microbench only
//! cargo run --release -p cdpc-bench --bin bench_snapshot -- --quick --check
//! ```
//!
//! `--quick` skips the per-workload simulations and runs only the
//! microbenchmarks; `--check` then compares their throughput against the
//! committed snapshot and exits non-zero on a regression of more than
//! 50% — the CI smoke gate for the simulator hot paths, including the
//! end-to-end tomcatv refs/sec metric. The band is wide because shared
//! runners are noisy; a genuine hot-path regression costs 2x or more.
//!
//! The snapshot is a machine-local perf record, not a correctness
//! artifact: refs/sec depend on the host. What the checked-in file pins
//! is the schema and the simulated-side numbers (`simulated_refs`,
//! `simulated_cycles`, `events`), which are deterministic.

use cdpc_bench::{Preset, Setup};
use cdpc_compiler::ir::AccessPattern;
use cdpc_compiler::locality::AccessPrefetch;
use cdpc_compiler::trace::{OpSpec, ResolvedAccess, TraceOp};
use cdpc_machine::{
    run, run_attributed, run_observed, run_sweep_memo, sweep_map, PolicyKind, ResultCache,
};
use cdpc_memsim::{AccessKind, MemConfig, MemorySystem};
use cdpc_obs::selfprof::{time_iters, SelfProfile, Stopwatch};
use cdpc_obs::{CountingProbe, JsonValue, Probe};
use cdpc_vm::addr::{PhysAddr, VirtAddr};

const SNAPSHOT_PATH: &str = "results/bench_snapshot.json";

/// Throughput below `committed * (1 - REGRESSION_TOLERANCE)` fails
/// `--check`. The band is wide on purpose: shared CI runners (and the
/// oversubscribed 4/16-thread miss storms in particular) swing well over
/// 30% between scheduling windows, while the regressions this gate
/// exists to catch — losing a hot-path optimization — cost 2x or more.
const REGRESSION_TOLERANCE: f64 = 0.50;

/// `--check` fails if the warm (all-hits) pass of the cached Figure-6
/// sweep is not at least this many times faster than the cold
/// (simulate-and-store) pass. Unlike the throughput floors this is a
/// *measured ratio* on the same host in the same process, so it is
/// immune to runner speed — a warm pass only loses its advantage if the
/// cache stops hitting or simulation sneaks back in.
const MIN_CACHED_SWEEP_SPEEDUP: f64 = 5.0;

fn small_cfg(cpus: usize) -> MemConfig {
    let mut m = MemConfig::paper_base(cpus);
    m.l2 = cdpc_memsim::CacheConfig::new(128 << 10, 128, 1);
    m.l1d = cdpc_memsim::CacheConfig::new(4 << 10, 32, 2);
    m.l1i = cdpc_memsim::CacheConfig::new(4 << 10, 32, 2);
    m
}

/// The worst case for the memory system: every reference misses and goes
/// over the contended bus (same shape as `benches/memsim.rs`).
fn miss_storm(cpus: usize) -> (f64, u64) {
    const REFS: u64 = 2_000;
    let mut mem = MemorySystem::new(small_cfg(cpus));
    let mut t = 0u64;
    let mut addr = 0u64;
    let timing = time_iters(3, 20, || {
        for _ in 0..REFS {
            t += 50;
            addr += 128; // new line every time: guaranteed miss
            let cpu = (addr / 128) as usize % cpus;
            std::hint::black_box(mem.access(
                cpu,
                t,
                VirtAddr(addr),
                PhysAddr(addr),
                AccessKind::Read,
            ));
        }
    });
    (timing.iters_per_sec() * REFS as f64, REFS)
}

/// The opposite extreme from the miss storm: a working set of 32 lines
/// that fits the L1 with room to spare, so after warm-up every reference
/// takes the early L1-hit return in `MemorySystem::access`.
fn l1_hit_storm() -> (f64, u64) {
    const REFS: u64 = 2_000;
    const LINES: u64 = 32;
    let mut mem = MemorySystem::new(small_cfg(1));
    let mut t = 0u64;
    for i in 0..LINES {
        t += 50;
        let a = i * 32;
        mem.access(0, t, VirtAddr(a), PhysAddr(a), AccessKind::Read);
    }
    let timing = time_iters(3, 20, || {
        for i in 0..REFS {
            t += 1;
            let a = (i % LINES) * 32;
            std::hint::black_box(mem.access(0, t, VirtAddr(a), PhysAddr(a), AccessKind::Read));
        }
    });
    (timing.iters_per_sec() * REFS as f64, REFS)
}

/// A spec exercising every trace generator: cyclic ifetch, instruction
/// work, software-pipelined prefetches, a wraparound stencil, a
/// whole-array stream, and an irregular (xorshift) stream. Mirrors the
/// zero-allocation test in `cdpc-compiler`.
fn trace_spec() -> OpSpec {
    let acc = |pattern, is_write, prefetch| ResolvedAccess {
        base: 0x10_000,
        bytes: 64 << 10,
        pattern,
        is_write,
        prefetch,
    };
    OpSpec {
        lo: 0,
        hi: 256,
        total_iters: 256,
        accesses: vec![
            acc(
                AccessPattern::Stencil {
                    unit_bytes: 256,
                    halo_units: 1,
                    wraparound: true,
                },
                false,
                AccessPrefetch {
                    enabled: true,
                    lookahead: 2,
                },
            ),
            acc(
                AccessPattern::Partitioned { unit_bytes: 256 },
                true,
                AccessPrefetch {
                    enabled: true,
                    lookahead: 0,
                },
            ),
            acc(AccessPattern::WholeArray, false, AccessPrefetch::OFF),
            acc(
                AccessPattern::Irregular {
                    touches_per_iter: 4,
                },
                true,
                AccessPrefetch::OFF,
            ),
        ],
        work_per_iter: 100,
        code_base: 0x100_000,
        code_bytes: 256,
        granularity: 32,
        l2_line: 128,
        seed: 42,
    }
}

/// Steady-state throughput of the streaming trace generator: ops drained
/// per second from a rewound `OpCursor` (zero allocations per drain).
fn trace_stream() -> (f64, u64) {
    let spec = trace_spec();
    let ops_per_drain = spec.ops().count() as u64;
    let mut cursor = spec.ops();
    cursor.by_ref().for_each(drop); // warm the scratch buffer
    let timing = time_iters(3, 50, || {
        cursor.rewind();
        let mut sum = 0u64;
        for op in cursor.by_ref() {
            if let TraceOp::Instr(n) = op {
                sum += n;
            }
        }
        std::hint::black_box(sum);
    });
    (timing.iters_per_sec() * ops_per_drain as f64, ops_per_drain)
}

/// End-to-end run-loop throughput: a full tomcatv simulation at the
/// snapshot's scale on 8 CPUs under CDPC, reported as simulated refs per
/// wall second. This is the number the batching scheduler and the
/// micro-translation-cache exist to move.
fn run_loop_tomcatv(setup: &Setup) -> (f64, u64) {
    let bench = cdpc_workloads::by_name("tomcatv").expect("tomcatv exists");
    let job = setup.job(&bench, Preset::Base1MbDm, 8, PolicyKind::Cdpc, false, true);
    let refs = run(&job.compiled, &job.cfg).simulated_refs;
    let timing = time_iters(1, 3, || {
        std::hint::black_box(run(&job.compiled, &job.cfg));
    });
    (timing.iters_per_sec() * refs as f64, refs)
}

/// The same end-to-end run with the miss-attribution probe installed:
/// its refs/s against `run_loop_tomcatv_8p`'s measures the attribution
/// overhead (target: within 5% — the probe is a handful of array writes
/// per L2 miss, and misses are rare next to the hits dominating the run).
fn run_loop_tomcatv_attrib(setup: &Setup) -> (f64, u64) {
    let bench = cdpc_workloads::by_name("tomcatv").expect("tomcatv exists");
    let job = setup.job(&bench, Preset::Base1MbDm, 8, PolicyKind::Cdpc, false, true);
    let refs = run(&job.compiled, &job.cfg).simulated_refs;
    let timing = time_iters(1, 3, || {
        std::hint::black_box(run_attributed(&job.compiled, &job.cfg));
    });
    (timing.iters_per_sec() * refs as f64, refs)
}

/// The persistent result cache measured end to end on a Figure-6-shaped
/// sweep (tomcatv/swim/hydro2d × three policies × {4, 8} CPUs): one cold
/// pass that simulates every point and stores it into a fresh cache, then
/// one warm pass answered entirely from disk. Emits three entries —
/// `sweep_fig6_cold` and `sweep_fig6_warm` (simulated refs per wall
/// second) and `sweep_cached_speedup` (the cold:warm wall-time ratio,
/// gated by [`MIN_CACHED_SWEEP_SPEEDUP`] under `--check`).
///
/// Scale 64 keeps the cold pass to tens of milliseconds; the ratio is
/// what matters and only grows at bigger scales (simulation cost scales
/// with refs, cache hits with file size).
fn sweep_cached_vs_cold(threads: usize) -> Vec<(String, f64)> {
    let setup = Setup::with_scale(64);
    let mut jobs = Vec::new();
    for name in ["tomcatv", "swim", "hydro2d"] {
        let bench = cdpc_workloads::by_name(name).expect("exists");
        for cpus in [4usize, 8] {
            for policy in [
                PolicyKind::PageColoring,
                PolicyKind::BinHopping,
                PolicyKind::Cdpc,
            ] {
                jobs.push(setup.job(&bench, Preset::Base1MbDm, cpus, policy, false, true));
            }
        }
    }
    let dir = std::env::temp_dir().join(format!("cdpc-bench-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ResultCache::new(&dir);

    let watch = Stopwatch::start();
    let (cold_reports, cold_stats) = run_sweep_memo(&jobs, threads, Some(&cache));
    let cold_secs = watch.elapsed_secs().max(1e-9);
    assert_eq!(cold_stats.hits, 0, "cold pass starts from an empty cache");

    let watch = Stopwatch::start();
    let (warm_reports, warm_stats) = run_sweep_memo(&jobs, threads, Some(&cache));
    let warm_secs = watch.elapsed_secs().max(1e-9);
    assert_eq!(warm_stats.misses, 0, "warm pass must hit on every point");
    assert_eq!(cold_reports, warm_reports, "cache must be bit-faithful");
    std::fs::remove_dir_all(&dir).ok();

    let refs: u64 = cold_reports.iter().map(|r| r.simulated_refs).sum();
    let speedup = cold_secs / warm_secs;
    eprintln!(
        "sweep_fig6 ({} points)   cold {:>8.1} ms   warm {:>8.3} ms   speedup {speedup:>7.1}x",
        jobs.len(),
        cold_secs * 1e3,
        warm_secs * 1e3,
    );
    vec![
        ("sweep_fig6_cold".to_string(), refs as f64 / cold_secs),
        ("sweep_fig6_warm".to_string(), refs as f64 / warm_secs),
        ("sweep_cached_speedup".to_string(), speedup),
    ]
}

/// Measures one microbenchmark three times and keeps the best run:
/// throughput noise on a shared host is one-sided (interference only
/// slows the run down), so the maximum is the stable estimator.
fn best_of_3(name: &str, mut f: impl FnMut() -> (f64, u64)) -> (String, f64) {
    let mut best = 0.0f64;
    let mut refs = 0;
    for _ in 0..3 {
        let (refs_per_sec, r) = f();
        best = best.max(refs_per_sec);
        refs = r;
    }
    eprintln!("{name:<22} {refs:>10} refs/iter  {best:>12.0} refs/s (best of 3)");
    (name.to_string(), best)
}

/// Runs every microbenchmark, returning `(name, refs_per_sec)` pairs.
fn run_microbench(setup: &Setup) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    for cpus in [1usize, 4, 16] {
        entries.push(best_of_3(&format!("miss_storm_{cpus}p"), || {
            miss_storm(cpus)
        }));
    }
    entries.push(best_of_3("l1_hit_1p", l1_hit_storm));
    entries.push(best_of_3("trace_stream", trace_stream));
    entries.push(best_of_3("run_loop_tomcatv_8p", || run_loop_tomcatv(setup)));
    entries.push(best_of_3("run_loop_tomcatv_8p_attrib", || {
        run_loop_tomcatv_attrib(setup)
    }));
    entries.extend(sweep_cached_vs_cold(setup.threads));
    entries
}

/// The measured-ratio gate on the cached sweep: unlike the throughput
/// floors, `sweep_cached_speedup` is compared against an absolute minimum
/// rather than the committed snapshot, because both sides of the ratio
/// come from the same process on the same host.
fn check_cached_speedup(fresh: &[(String, f64)]) -> bool {
    let Some((_, speedup)) = fresh.iter().find(|(n, _)| n == "sweep_cached_speedup") else {
        return true;
    };
    let ok = *speedup >= MIN_CACHED_SWEEP_SPEEDUP;
    eprintln!(
        "--check: sweep_cached_speedup: {speedup:.1}x vs required {MIN_CACHED_SWEEP_SPEEDUP:.1}x {}",
        if ok { "ok" } else { "REGRESSED" }
    );
    ok
}

/// Compares fresh microbench throughput against the committed snapshot.
/// Returns false (check failed) on a >50% regression of any entry.
fn check_against_snapshot(fresh: &[(String, f64)]) -> bool {
    let text = match std::fs::read_to_string(SNAPSHOT_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--check: cannot read `{SNAPSHOT_PATH}` ({e}); nothing to compare");
            return true;
        }
    };
    let doc = JsonValue::parse(&text).expect("committed snapshot must be valid JSON");
    let Some(entries) = doc.get("microbench").and_then(|m| m.as_array()) else {
        eprintln!("--check: committed snapshot has no `microbench` section; skipping");
        return true;
    };
    let mut ok = true;
    for (name, measured) in fresh {
        // The warm pass is microseconds of JSON parsing and the speedup is
        // a host-dependent ratio (disk vs CPU speed); both swing far more
        // than 50% between runners. The speedup has its own absolute gate
        // (`check_cached_speedup`); the cold pass is simulation-bound and
        // stays under the relative check.
        if name == "sweep_fig6_warm" || name == "sweep_cached_speedup" {
            continue;
        }
        let committed = entries.iter().find_map(|e| {
            (e.get("name").and_then(|n| n.as_str()) == Some(name))
                .then(|| e.get("refs_per_sec").and_then(|r| r.as_f64()))
                .flatten()
        });
        let Some(committed) = committed else {
            eprintln!("--check: `{name}` not in committed snapshot; skipping");
            continue;
        };
        let floor = committed * (1.0 - REGRESSION_TOLERANCE);
        let verdict = if *measured >= floor {
            "ok"
        } else {
            "REGRESSED"
        };
        eprintln!(
            "--check: {name}: {measured:.0} refs/s vs committed {committed:.0} (floor {floor:.0}) {verdict}"
        );
        ok &= *measured >= floor;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut quick = false;
    let mut check = false;
    let mut setup = Setup::default(); // scale 8, the experiments' default
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--write" => write = true,
            "--quick" => quick = true,
            "--check" => check = true,
            "--threads" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("--threads needs a thread count"));
                assert!(v >= 1, "--threads must be at least 1");
                setup.threads = v;
            }
            other => panic!(
                "unknown argument `{other}` (supported: --write, --quick, --check, \
                 --threads N)"
            ),
        }
        i += 1;
    }
    assert!(
        !(quick && write),
        "--quick skips the workload profiles; refusing to overwrite the full snapshot"
    );
    let cpus = 8;

    let micro = run_microbench(&setup);
    if check && !check_against_snapshot(&micro) {
        eprintln!("--check: microbenchmark throughput regressed more than 50%");
        std::process::exit(1);
    }
    if check && !check_cached_speedup(&micro) {
        eprintln!(
            "--check: cached sweep speedup fell below {MIN_CACHED_SWEEP_SPEEDUP:.0}x — the \
             result cache is no longer paying for itself"
        );
        std::process::exit(1);
    }

    let workloads: Vec<JsonValue> = if quick {
        Vec::new()
    } else {
        let benches = cdpc_workloads::all();
        let jobs: Vec<_> = benches
            .iter()
            .map(|bench| {
                setup.job(
                    bench,
                    Preset::Base1MbDm,
                    cpus,
                    PolicyKind::Cdpc,
                    false,
                    true,
                )
            })
            .collect();
        // Two sweeps, keeping each workload's faster wall time: the
        // simulation is deterministic (identical reports and event
        // counts), and host noise is one-sided, so the minimum is the
        // stable wall-clock estimator — same reasoning as the
        // microbenchmarks' best-of-3.
        let sweep = || {
            sweep_map(&jobs, setup.threads, |job| {
                let mut probe = CountingProbe::default();
                let watch = Stopwatch::start();
                let (report, _) = run_observed(&job.compiled, &job.cfg, &mut probe, None);
                (report, probe.event_count(), watch.elapsed_secs())
            })
        };
        let profiles: Vec<_> = sweep()
            .into_iter()
            .zip(sweep())
            .map(|(a, b)| if a.2 <= b.2 { a } else { b })
            .collect();
        benches
            .iter()
            .zip(profiles)
            .map(|(bench, (report, events, wall_secs))| {
                let profile = SelfProfile {
                    name: bench.name.to_string(),
                    wall_secs,
                    simulated_refs: report.simulated_refs,
                    simulated_cycles: report.elapsed_cycles,
                    events,
                };
                eprintln!(
                    "{:<10} {:>12} refs  {:>12.0} refs/s  {:>10} events",
                    profile.name,
                    profile.simulated_refs,
                    profile.refs_per_sec(),
                    profile.events
                );
                profile.to_json()
            })
            .collect()
    };

    if quick && !write {
        return; // microbench (and optional check) was the whole job
    }

    let mut doc = JsonValue::object();
    doc.push("scale", JsonValue::UInt(setup.scale));
    doc.push("cpus", JsonValue::UInt(cpus as u64));
    doc.push("policy", JsonValue::Str("cdpc".into()));
    doc.push(
        "microbench",
        JsonValue::Array(
            micro
                .iter()
                .map(|(name, refs_per_sec)| {
                    let mut e = JsonValue::object();
                    e.push("name", JsonValue::Str(name.clone()));
                    e.push(
                        "refs_per_sec",
                        JsonValue::Float((refs_per_sec * 1000.0).round() / 1000.0),
                    );
                    e
                })
                .collect(),
        ),
    );
    doc.push("workloads", JsonValue::Array(workloads));
    let text = doc.to_string_pretty();
    if write {
        std::fs::write(SNAPSHOT_PATH, &text)
            .unwrap_or_else(|e| panic!("cannot write `{SNAPSHOT_PATH}`: {e}"));
        eprintln!("wrote {SNAPSHOT_PATH}");
    } else {
        print!("{text}");
    }
}
