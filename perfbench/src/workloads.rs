//! The three workloads. Each has a set-up and a timed pass of at least
//! 100 ops; the seed only permutes the order of the ops within a pass.

use std::path::PathBuf;
use std::time::Instant;

use cdpc_analyze::{predict_program, ConflictPrediction, MachineModel, ProverPolicy};
use cdpc_bench::{table, Preset};
use cdpc_compiler::CompileOptions;
use cdpc_machine::{run, run_key, run_sweep_memo, sweep_map, ResultCache, RunKey, RunReport};
use cdpc_obs::{SplitMix64, SweepCacheStats};

use crate::host::nproc;
use crate::matrix::{Matrix, CPU_COUNTS};
use crate::reference::{refs, ProofRef, Refs, ReportRef, FIG6_TABLE};
use crate::spans::Tracer;

/// Default workload scale of the experiment binaries.
const SCALE: u64 = 8;
/// `cache_roundtrip` runs at the scale the cache smoke tests use.
const CACHE_SCALE: u64 = 64;
/// Cache rounds per `cache_roundtrip` pass.
const ROUNDS: usize = 100;

/// The outcome of one timed pass.
pub struct Pass {
    /// Wall time of the ops, without the output checks.
    pub wall_s: f64,
    /// Latency of each op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops whose output differed from the reference.
    pub failed: u64,
    /// Whole-pass checks beyond the per-op ones (the Figure 6 table).
    pub whole_ok: bool,
}

/// What the per-layer counts are summed over: the run reports, proofs and
/// cache rounds a workload produced.
#[derive(Default)]
pub struct Evidence {
    pub reports: Vec<RunReport>,
    pub proofs: Vec<ConflictPrediction>,
    pub memo: Vec<SweepCacheStats>,
}

pub trait Workload: Sized {
    /// Set-ups before the first pass and before each later pass;
    /// `setup_s` is the median of all of them. Spreading cheap set-ups
    /// over the run samples the host's state as widely as the passes do.
    const SETUPS: usize;
    const RESETUPS: usize;
    fn setup(tracer: &Tracer, parent: Option<u32>) -> Self;
    fn pass(&mut self, rng: &mut SplitMix64, tracer: &Tracer, parent: Option<u32>) -> Pass;
    /// Fan-out workers of a pass.
    fn workers(&self) -> usize;
    /// Simulated references a pass delivers or stands in for.
    fn refs_per_pass(&self) -> u64;
    /// The matrix the layer probe measures the crates on.
    fn matrix(&self) -> &Matrix;
    /// Moves out what the last pass (or the set-up) produced.
    fn evidence(&mut self) -> Evidence;
}

fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- fig6_sweep

/// The paper's Figure 6 sweep at scale 8, cache off: `sweep_map` + `run`
/// over 100 jobs on `nproc` workers.
pub struct Fig6Sweep {
    matrix: Matrix,
    refs: &'static Refs,
    reports: Vec<RunReport>,
}

impl Workload for Fig6Sweep {
    const SETUPS: usize = 20;
    const RESETUPS: usize = 20;

    fn setup(tracer: &Tracer, parent: Option<u32>) -> Self {
        Fig6Sweep {
            matrix: Matrix::build_jobs(SCALE, &[Preset::Base1MbDm], tracer, parent),
            refs: refs(),
            reports: Vec::new(),
        }
    }

    fn pass(&mut self, rng: &mut SplitMix64, tracer: &Tracer, parent: Option<u32>) -> Pass {
        let order = shuffled(self.matrix.jobs.len(), rng);
        let jobs = &self.matrix.jobs;
        let start = Instant::now();
        let out = sweep_map(&order, nproc(), |&i| {
            let t = Instant::now();
            let report = tracer.span("machine.run", parent, |_| {
                run(&jobs[i].compiled, &jobs[i].cfg)
            });
            (i, report, ms_since(t))
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut reports: Vec<Option<RunReport>> = vec![None; jobs.len()];
        let mut op_ms = Vec::with_capacity(out.len());
        for (i, report, ms) in out {
            reports[i] = Some(report);
            op_ms.push(ms);
        }
        self.reports = reports
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect();
        let failed = (0..jobs.len())
            .filter(|&i| {
                self.refs.reports.get(&self.matrix.label(i))
                    != Some(&ReportRef::of(&self.reports[i]))
            })
            .count() as u64;
        Pass {
            wall_s,
            op_ms,
            failed,
            whole_ok: fig6_table(&self.matrix, &self.reports) == FIG6_TABLE,
        }
    }

    fn workers(&self) -> usize {
        nproc()
    }

    fn refs_per_pass(&self) -> u64 {
        self.refs.fig6_refs()
    }

    fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    fn evidence(&mut self) -> Evidence {
        Evidence {
            reports: std::mem::take(&mut self.reports),
            ..Evidence::default()
        }
    }
}

/// The `fig6` binary's stdout, rendered with `cdpc_bench::table` from
/// reports in canonical order.
pub fn fig6_table(m: &Matrix, reports: &[RunReport]) -> String {
    let widths = [4, 10, 10, 9, 10, 8];
    let cols = [
        "cpus",
        "PC time",
        "CDPC time",
        "PC repl%",
        "CDPC repl%",
        "speedup",
    ];
    let mut header = String::new();
    for (c, w) in cols.iter().zip(widths) {
        header += &format!("{c:>w$} ");
    }
    let mut out = format!(
        "Figure 6: page coloring (PC) vs compiler-directed page coloring (CDPC)\n\
         1MB direct-mapped external cache, scale {}\n\n",
        m.setup.scale
    );
    let repl_pct = |r: &RunReport| {
        let total = r.exec_cycles + r.stalls.total() + r.overheads.total();
        r.stalls.replacement() as f64 / total.max(1) as f64
    };
    let mut rows = reports.chunks(2);
    for name in &m.names {
        out += &format!("== {name} ==\n{header}\n{}\n", "-".repeat(header.len()));
        for cpus in CPU_COUNTS {
            let [pc, cdpc] = rows.next().expect("one PC/CDPC pair per row") else {
                unreachable!("reports come in PC/CDPC pairs")
            };
            out += &format!(
                "{:>4} {:>10} {:>10} {:>9} {:>10} {:>8}\n",
                cpus,
                table::cycles(pc.elapsed_cycles),
                table::cycles(cdpc.elapsed_cycles),
                table::pct(repl_pct(pc)),
                table::pct(repl_pct(cdpc)),
                table::ratio(cdpc.speedup_over(pc)),
            );
        }
        out += "\n";
    }
    out
}

// --------------------------------------------------------------- prove_suite

/// The static prover on the Figure 6 matrix at scale 8: 100
/// `predict_program` calls on `nproc` workers, no simulation.
pub struct ProveSuite {
    matrix: Matrix,
    /// Prover inputs per cell, made in set-up.
    inputs: Vec<(CompileOptions, MachineModel, ProverPolicy)>,
    refs: &'static Refs,
    proofs: Vec<ConflictPrediction>,
}

impl Workload for ProveSuite {
    const SETUPS: usize = 20;
    const RESETUPS: usize = 20;

    fn setup(tracer: &Tracer, parent: Option<u32>) -> Self {
        let matrix = Matrix::build(SCALE, &[Preset::Base1MbDm], tracer, parent);
        let inputs = matrix
            .cells
            .iter()
            .map(|c| {
                let policy = if c.cdpc {
                    ProverPolicy::Cdpc
                } else {
                    ProverPolicy::PageColoring
                };
                let machine = MachineModel::from_mem(&matrix.mem(c.preset, c.cpus));
                (matrix.options(c.preset, c.cpus), machine, policy)
            })
            .collect();
        ProveSuite {
            matrix,
            inputs,
            refs: refs(),
            proofs: Vec::new(),
        }
    }

    fn pass(&mut self, rng: &mut SplitMix64, tracer: &Tracer, parent: Option<u32>) -> Pass {
        let order = shuffled(self.matrix.cells.len(), rng);
        let (cells, programs, inputs) = (&self.matrix.cells, &self.matrix.programs, &self.inputs);
        let start = Instant::now();
        let out = sweep_map(&order, nproc(), |&i| {
            let (opts, machine, policy) = &inputs[i];
            let t = Instant::now();
            let (proof, _) = tracer.span("analyze.predict_program", parent, |_| {
                predict_program(&programs[cells[i].bench], opts, machine, *policy)
            });
            (i, proof, ms_since(t))
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut proofs: Vec<Option<ConflictPrediction>> = vec![None; order.len()];
        let mut op_ms = Vec::with_capacity(out.len());
        for (i, proof, ms) in out {
            proofs[i] = Some(proof);
            op_ms.push(ms);
        }
        self.proofs = proofs
            .into_iter()
            .map(|p| p.expect("every proof ran"))
            .collect();
        let failed = (0..self.proofs.len())
            .filter(|&i| {
                self.refs.proofs.get(&self.matrix.label(i)) != Some(&ProofRef::of(&self.proofs[i]))
            })
            .count() as u64;
        Pass {
            wall_s,
            op_ms,
            failed,
            whole_ok: true,
        }
    }

    fn workers(&self) -> usize {
        nproc()
    }

    /// The proofs stand in for the Figure 6 simulations of the same cells.
    fn refs_per_pass(&self) -> u64 {
        self.refs.fig6_refs()
    }

    fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    fn evidence(&mut self) -> Evidence {
        Evidence {
            proofs: std::mem::take(&mut self.proofs),
            ..Evidence::default()
        }
    }
}

// ----------------------------------------------------------- cache_roundtrip

/// The result cache alone: the 300 Figure 6/7 matrix jobs (ten workloads,
/// three L2 presets) at scale 64 are simulated once in set-up. A pass
/// stores every report into an empty directory (the write side), then
/// runs 100 rounds; each round, one op, answers the job list, listed
/// twice, through `run_sweep_memo` (the read side).
///
/// The write side runs once per pass, not once per round: 30 000 file
/// creations, renames and deletions per pass slowed this host's ext4
/// file system progressively (2-3× within minutes of sustained runs),
/// which no median over passes can hide.
pub struct CacheRoundtrip {
    matrix: Matrix,
    keys: Vec<RunKey>,
    reports: Vec<RunReport>,
    work: PathBuf,
    passes: u64,
    last_stats: Option<SweepCacheStats>,
}

impl Workload for CacheRoundtrip {
    const SETUPS: usize = 3;
    const RESETUPS: usize = 0;

    fn setup(tracer: &Tracer, parent: Option<u32>) -> Self {
        let presets = [Preset::Base1MbDm, Preset::TwoWay1Mb, Preset::FourMbDm];
        let matrix = Matrix::build_jobs(CACHE_SCALE, &presets, tracer, parent);
        let jobs = &matrix.jobs;
        let reports = sweep_map(jobs, nproc(), |job| {
            tracer.span("machine.run", parent, |_| run(&job.compiled, &job.cfg))
        });
        let keys = jobs.iter().map(|j| run_key(&j.compiled, &j.cfg)).collect();
        CacheRoundtrip {
            matrix,
            keys,
            reports,
            work: crate::work_dir().join(format!("cache-{}", std::process::id())),
            passes: 0,
            last_stats: None,
        }
    }

    fn pass(&mut self, rng: &mut SplitMix64, tracer: &Tracer, parent: Option<u32>) -> Pass {
        let n = self.matrix.jobs.len();
        self.passes += 1;
        let dir = self.work.join(format!("pass-{}", self.passes));
        let cache = ResultCache::new(&dir);
        let start = Instant::now();
        for i in shuffled(n, rng) {
            tracer
                .span("machine.ResultCache::store", parent, |_| {
                    cache.store(&self.keys[i], &self.reports[i])
                })
                .expect("cache directory is writable");
        }
        let mut wall_s = start.elapsed().as_secs_f64();

        let mut op_ms = Vec::with_capacity(ROUNDS);
        let mut failed = 0;
        for _ in 0..ROUNDS {
            let answer: Vec<usize> = shuffled(2 * n, rng).into_iter().map(|i| i % n).collect();
            let jobs: Vec<_> = answer
                .iter()
                .map(|&i| self.matrix.jobs[i].clone())
                .collect();
            let t = Instant::now();
            let (got, stats) = tracer.span("machine.run_sweep_memo", parent, |_| {
                run_sweep_memo(&jobs, nproc(), Some(&cache))
            });
            op_ms.push(ms_since(t));
            wall_s += op_ms[op_ms.len() - 1] / 1e3;

            let exact = got.iter().zip(&answer).all(|(r, &i)| *r == self.reports[i]);
            let n = n as u64;
            if !(exact && stats.misses == 0 && stats.hits == n && stats.deduped == n) {
                failed += 1;
            }
            self.last_stats = Some(stats);
        }
        std::fs::remove_dir_all(&dir).expect("pass directory is removable");
        Pass {
            wall_s,
            op_ms,
            failed,
            whole_ok: true,
        }
    }

    fn workers(&self) -> usize {
        1
    }

    /// Each round answers every job twice.
    fn refs_per_pass(&self) -> u64 {
        2 * ROUNDS as u64 * self.reports.iter().map(|r| r.simulated_refs).sum::<u64>()
    }

    fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    fn evidence(&mut self) -> Evidence {
        Evidence {
            reports: self.reports.clone(),
            memo: self.last_stats.take().into_iter().collect(),
            ..Evidence::default()
        }
    }
}

impl Drop for CacheRoundtrip {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampered_report_digest_fails_exactly_its_op() {
        let off = Tracer::off();
        let mut w = Fig6Sweep::setup(&off, None);
        let mut tampered = refs().clone();
        let label = w.matrix.label(7);
        tampered
            .reports
            .get_mut(&label)
            .expect("recorded job")
            .digest ^= 1;
        w.refs = Box::leak(Box::new(tampered));
        let pass = w.pass(&mut SplitMix64::new(1), &off, None);
        // Every other job still matches its recorded digest.
        assert_eq!(pass.failed, 1);
        assert!(pass.whole_ok, "the table does not depend on the digest");
        let failed_frac = pass.failed as f64 / pass.op_ms.len() as f64;
        assert_eq!(failed_frac, 0.01);
    }

    #[test]
    fn seeds_change_order_not_outputs() {
        let off = Tracer::off();
        let mut w = ProveSuite::setup(&off, None);
        let mut outputs = Vec::new();
        for seed in [1, 2] {
            let pass = w.pass(&mut SplitMix64::new(seed), &off, None);
            assert_eq!(pass.failed, 0);
            let proofs = w.evidence().proofs;
            outputs.push(proofs.iter().map(ProofRef::of).collect::<Vec<_>>());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_ne!(
            shuffled(100, &mut SplitMix64::new(1)),
            shuffled(100, &mut SplitMix64::new(2))
        );
    }

    #[test]
    fn tampered_proof_fails_its_op() {
        let off = Tracer::off();
        let mut w = ProveSuite::setup(&off, None);
        let mut tampered = refs().clone();
        let label = w.matrix.label(0);
        tampered
            .proofs
            .get_mut(&label)
            .expect("recorded proof")
            .est_misses += 1;
        w.refs = Box::leak(Box::new(tampered));
        assert_eq!(w.pass(&mut SplitMix64::new(3), &off, None).failed, 1);
    }
}
