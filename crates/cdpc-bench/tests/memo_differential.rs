//! Differential proof that the memoization layer is **bit-identical** to
//! fresh serial simulation across the whole SPEC95fp suite × CPU counts ×
//! policies.
//!
//! The same job list is executed four ways — plain [`run_sweep`] (the
//! audited baseline), [`run_sweep_memo`] without a cache (in-sweep dedup),
//! a cold persistent cache (simulate + store), and a warm persistent cache
//! (every job answered from disk) — and every way
//! must produce *exactly* the same bytes in all three rendered artifacts:
//! the structured [`RunReport`]s, their JSON exports, and a CSV table of
//! every report field the figures consume. Not "close": identical.

use cdpc_bench::{Preset, Setup};
use cdpc_machine::{
    render_report, report_to_json, run_sweep, run_sweep_memo, PolicyKind, ResultCache, RunReport,
    SweepJob,
};

const SCALE: u64 = 64;
const THREADS: usize = 4;

/// Suite × CPU counts × policies, plus renamed-content twins (jobs that
/// differ from another only in `compiled.name`), plus the remaining
/// policy families on one workload.
fn suite_jobs(setup: &Setup) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for bench in cdpc_workloads::all() {
        for cpus in [4usize, 8] {
            for policy in [PolicyKind::PageColoring, PolicyKind::Cdpc] {
                jobs.push(setup.job(&bench, Preset::Base1MbDm, cpus, policy, false, true));
            }
        }
    }
    // Same content, different report name: a different key, so each twin
    // simulates on its own and its report carries its own name.
    for (i, job) in twin_seeds(&jobs) {
        let mut renamed = (*jobs[i].compiled).clone();
        renamed.name = format!("{}-renamed", renamed.name);
        jobs.push(SweepJob::new(renamed, job));
    }
    // Policy families not in the main matrix.
    let bench = cdpc_workloads::by_name("hydro2d").expect("exists");
    for policy in [
        PolicyKind::BinHopping,
        PolicyKind::CdpcTouch,
        PolicyKind::DynamicRecolor,
    ] {
        jobs.push(setup.job(&bench, Preset::Base1MbDm, 4, policy, false, true));
    }
    jobs
}

/// Picks two jobs to twin under a new name (first and last of the matrix,
/// so both CPU counts are covered), returning `(index, cfg)` pairs.
fn twin_seeds(jobs: &[SweepJob]) -> Vec<(usize, cdpc_machine::RunConfig)> {
    vec![
        (0, jobs[0].cfg.clone()),
        (jobs.len() - 1, jobs[jobs.len() - 1].cfg.clone()),
    ]
}

/// One CSV row per report: every scalar field a figure or table reads.
fn to_csv(reports: &[RunReport]) -> String {
    let mut out = String::from(
        "name,policy,cpus,instructions,exec_cycles,elapsed_cycles,combined_cycles,\
         l2_hit,conflict,capacity,cold,true_sharing,false_sharing,prefetch,upgrade,\
         kernel,load_imbalance,sequential,suppressed,synchronization,\
         bus_data,bus_writeback,bus_upgrade,bus_utilization_bits,\
         faults,honored,fallback,recolorings,simulated_refs\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.name,
            r.policy,
            r.num_cpus,
            r.instructions,
            r.exec_cycles,
            r.elapsed_cycles,
            r.combined_cycles,
            r.stalls.l2_hit,
            r.stalls.conflict,
            r.stalls.capacity,
            r.stalls.cold,
            r.stalls.true_sharing,
            r.stalls.false_sharing,
            r.stalls.prefetch,
            r.stalls.upgrade,
            r.overheads.kernel,
            r.overheads.load_imbalance,
            r.overheads.sequential,
            r.overheads.suppressed,
            r.overheads.synchronization,
            r.bus.data_cycles,
            r.bus.writeback_cycles,
            r.bus.upgrade_cycles,
            r.bus.utilization.to_bits(),
            r.fault_stats.faults,
            r.fault_stats.honored,
            r.fault_stats.fallback,
            r.recolorings,
            r.simulated_refs,
        ));
    }
    out
}

/// Renders all three artifacts for a result set.
fn artifacts(reports: &[RunReport]) -> (String, String, String) {
    let text: String = reports.iter().map(render_report).collect();
    let json: String = reports
        .iter()
        .map(|r| report_to_json(r).to_string_pretty())
        .collect();
    (text, json, to_csv(reports))
}

#[test]
fn memoized_sweeps_are_byte_identical_to_fresh_serial_runs() {
    let setup = Setup::with_scale(SCALE);
    let jobs = suite_jobs(&setup);
    let dir = std::env::temp_dir().join(format!("cdpc-memo-diff-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ResultCache::new(&dir);

    // The audited baseline: plain sweep, no memoization anywhere.
    let baseline = run_sweep(&jobs, THREADS);
    let (base_text, base_json, base_csv) = artifacts(&baseline);

    // Dedup only, no persistent cache. No two jobs share a key — a
    // renamed twin included — so every job simulates under its own name.
    let (memo, memo_stats) = run_sweep_memo(&jobs, THREADS, None);
    assert_eq!(memo_stats.deduped, 0, "no job duplicates another");
    assert_eq!(memo_stats.bypassed, jobs.len() as u64);
    assert_eq!(baseline, memo, "memoized sweep reports diverge");
    for (job, report) in jobs.iter().zip(&memo) {
        assert_eq!(report.name, job.compiled.name);
    }

    // Cold cache: simulate everything, store everything.
    let (cold, cold_stats) = run_sweep_memo(&jobs, THREADS, Some(&cache));
    assert_eq!(cold_stats.hits, 0, "cache starts empty");
    assert_eq!(cold_stats.misses, jobs.len() as u64);
    assert_eq!(baseline, cold, "cold cached sweep reports diverge");

    // Warm cache: every job answered from disk, zero simulation.
    let (warm, warm_stats) = run_sweep_memo(&jobs, THREADS, Some(&cache));
    assert_eq!(warm_stats.misses, 0, "warm pass must hit on every job");
    assert_eq!(warm_stats.hits, jobs.len() as u64);
    assert_eq!(baseline, warm, "warm cached sweep reports diverge");

    // Byte-identity of every rendered artifact, for every path.
    for (label, reports) in [("memo", &memo), ("cold", &cold), ("warm", &warm)] {
        let (text, json, csv) = artifacts(reports);
        assert_eq!(base_text, text, "{label}: rendered report text diverges");
        assert_eq!(base_json, json, "{label}: JSON export diverges");
        assert_eq!(base_csv, csv, "{label}: CSV table diverges");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The memoized path must also be independent of the worker-thread count,
/// like the plain sweep.
#[test]
fn memoized_sweep_is_thread_count_invariant() {
    let setup = Setup::with_scale(SCALE);
    let bench = cdpc_workloads::by_name("tomcatv").expect("exists");
    let mut jobs = Vec::new();
    for cpus in [4usize, 8] {
        for policy in [PolicyKind::PageColoring, PolicyKind::Cdpc] {
            jobs.push(setup.job(&bench, Preset::Base1MbDm, cpus, policy, false, true));
        }
    }
    let mut renamed = (*jobs[0].compiled).clone();
    renamed.name = "tomcatv-twin".to_string();
    jobs.push(SweepJob::new(renamed, jobs[0].cfg.clone()));

    let (one, _) = run_sweep_memo(&jobs, 1, None);
    for threads in [2usize, 4, 8] {
        let (many, _) = run_sweep_memo(&jobs, threads, None);
        assert_eq!(one, many, "threads={threads}");
    }
}
