//! Correctness proofs for the memoization layer: in-sweep dedup and the
//! persistent result cache must be invisible in the results — every
//! memoized path produces reports **byte-identical** to a fresh
//! straight-line [`run`], and every tampered or mismatched cache entry is
//! rejected rather than believed.

use cdpc_compiler::ir::{Access, AccessPattern, LoopNest, Phase, Program, Stmt, StmtKind};
use cdpc_compiler::{compile, CompileOptions, CompiledProgram};
use cdpc_machine::{run_sweep, run_sweep_memo, PolicyKind, ResultCache, RunConfig, SweepJob};
use cdpc_memsim::MemConfig;

/// A small machine: 32 KB direct-mapped L2 (8 colors), tiny L1s.
fn small_mem(cpus: usize) -> MemConfig {
    let mut m = MemConfig::paper_base(cpus);
    m.l1d = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
    m.l1i = cdpc_memsim::CacheConfig::new(1 << 10, 32, 2);
    m.l2 = cdpc_memsim::CacheConfig::new(32 << 10, 128, 1);
    m
}

/// A stencil + partitioned-write workload: enough traffic to exercise
/// misses, coherence, prefetch-free sharing, and page faults.
fn program_named(name: &str, cpus: usize) -> CompiledProgram {
    let mut p = Program::new(name);
    let a = p.array("A", 12 << 10);
    let b = p.array("B", 12 << 10);
    let nest = LoopNest::new("sweep", 12, 400)
        .with_access(Access::read(
            a,
            AccessPattern::Stencil {
                unit_bytes: 1024,
                halo_units: 1,
                wraparound: false,
            },
        ))
        .with_access(Access::write(
            b,
            AccessPattern::Partitioned { unit_bytes: 1024 },
        ));
    p.phase(Phase {
        name: "main".into(),
        stmts: vec![Stmt {
            kind: StmtKind::Parallel,
            nest,
        }],
        count: 3,
    });
    compile(&p, &CompileOptions::new(cpus).with_l2_cache(32 << 10)).unwrap()
}

fn temp_cache(tag: &str) -> ResultCache {
    let dir = std::env::temp_dir().join(format!("cdpc-memo-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ResultCache::new(dir)
}

/// The memoized sweep is a drop-in for the plain one: same jobs, same
/// order, same bytes — while dedup silently removes redundant
/// simulation. Stats must partition the job list exactly.
#[test]
fn memoized_sweep_is_bit_identical_to_plain_sweep() {
    let cpus = 2;
    let cfg = RunConfig::new(small_mem(cpus), PolicyKind::Cdpc);
    let jobs = vec![
        SweepJob::new(program_named("job-a", cpus), cfg.clone()),
        // Exact duplicate of job-a: in-sweep dedup.
        SweepJob::new(program_named("job-a", cpus), cfg.clone()),
        // Same content, different name: simulates under its own name.
        SweepJob::new(program_named("job-b", cpus), cfg.clone()),
        // Genuinely different machine: simulates on its own.
        SweepJob::new(
            program_named("job-a", 4),
            RunConfig::new(small_mem(4), PolicyKind::PageColoring),
        ),
    ];
    let plain = run_sweep(&jobs, 2);
    for threads in [1, 4] {
        let (memo, stats) = run_sweep_memo(&jobs, threads, None);
        assert_eq!(plain, memo, "threads={threads}");
        assert_eq!(stats.total(), jobs.len() as u64);
        assert_eq!(stats.deduped, 1, "the duplicate job dedups");
        assert_eq!(
            stats.bypassed, 3,
            "no cache attached: simulated jobs bypass"
        );
        assert_eq!(stats.hits + stats.misses, 0);
    }
}

/// Persistent-cache round trip through the sweep: a cold sweep misses and
/// stores, a warm sweep answers every job from disk, and both return the
/// exact bytes of the uncached sweep.
#[test]
fn warm_sweep_serves_every_job_from_the_cache() {
    let cache = temp_cache("sweep");
    let cpus = 2;
    let jobs = vec![
        SweepJob::new(
            program_named("cache-a", cpus),
            RunConfig::new(small_mem(cpus), PolicyKind::Cdpc),
        ),
        SweepJob::new(
            program_named("cache-b", cpus),
            RunConfig::new(small_mem(cpus), PolicyKind::PageColoring),
        ),
    ];
    let plain = run_sweep(&jobs, 1);

    let (cold, cold_stats) = run_sweep_memo(&jobs, 2, Some(&cache));
    assert_eq!(plain, cold);
    assert_eq!(cold_stats.misses, 2);
    assert_eq!(cold_stats.hits, 0);

    let (warm, warm_stats) = run_sweep_memo(&jobs, 2, Some(&cache));
    assert_eq!(plain, warm);
    assert_eq!(warm_stats.hits, 2, "everything answers from disk");
    assert_eq!(warm_stats.misses, 0);

    std::fs::remove_dir_all(cache.root()).ok();
}

/// Poisoned cache entries (truncated, corrupted, or from a different
/// format version) must be treated as misses — the sweep re-simulates and
/// overwrites, never trusts damaged bytes.
#[test]
fn sweep_resimulates_over_poisoned_cache_entries() {
    let cache = temp_cache("poison");
    let cpus = 2;
    let jobs = vec![SweepJob::new(
        program_named("poisoned", cpus),
        RunConfig::new(small_mem(cpus), PolicyKind::Cdpc),
    )];
    let plain = run_sweep(&jobs, 1);
    let (_, stats) = run_sweep_memo(&jobs, 1, Some(&cache));
    assert_eq!(stats.misses, 1);

    // Corrupt every stored entry in place.
    for entry in std::fs::read_dir(cache.versioned_dir()).unwrap() {
        std::fs::write(entry.unwrap().path(), "{\"format_version\": 1, garbage").unwrap();
    }
    let (healed, stats) = run_sweep_memo(&jobs, 1, Some(&cache));
    assert_eq!(plain, healed, "poisoned entry must not leak into results");
    assert_eq!(stats.misses, 1, "damaged entry re-simulates");
    assert_eq!(stats.hits, 0);

    // The re-simulation repaired the entry: next sweep hits again.
    let (_, stats) = run_sweep_memo(&jobs, 1, Some(&cache));
    assert_eq!(stats.hits, 1);

    std::fs::remove_dir_all(cache.root()).ok();
}
