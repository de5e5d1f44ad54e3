//! The layer probe of the traced run: calls each crate's public entry
//! points directly, on the workload's own matrix, so that every per-layer
//! metric is measured on every workload. Trace generation and hint
//! generation, which `run` performs internally, are timed here by
//! separate calls on the same inputs.

use std::hint::black_box;
use std::sync::Arc;

use cdpc_analyze::{predict_program, MachineModel, ProverPolicy};
use cdpc_bench::Preset;
use cdpc_compiler::trace::TraceOp;
use cdpc_compiler::{CompiledProgram, CompiledStmt};
use cdpc_core::{generate_hints_with, MachineParams};
use cdpc_machine::{
    report_to_json, run, run_attributed, run_key, run_sweep_memo, ResultCache, RunReport,
};
use cdpc_memsim::{AccessKind, MemorySystem};
use cdpc_vm::addr::{ColorSpace, PageGeometry, PhysAddr, VirtAddr};
use cdpc_vm::policy::{CdpcPolicy, MappingPolicy, PageColoring};
use cdpc_vm::AddressSpace;

use crate::matrix::Matrix;
use crate::spans::Tracer;
use crate::workloads::Evidence;

/// Exact work counts of the probe (times live in its spans).
#[derive(Default)]
pub struct Counts {
    pub trace_ops: u64,
    pub hinted_pages: u64,
    pub faults: u64,
    pub l1_refs: u64,
    pub miss_refs: u64,
    /// Simulated refs of the probe's `run` calls.
    pub run_refs: u64,
}

const L1_REFS: u64 = 200_000;
const MISS_REFS: u64 = 20_000;

pub fn run_probe(
    matrix: &Matrix,
    tracer: &Tracer,
    parent: Option<u32>,
    evidence: &mut Evidence,
) -> Counts {
    let mut counts = Counts::default();
    let want_reports = evidence.reports.is_empty();
    let want_proofs = evidence.proofs.is_empty();
    let compiled_here;
    let m = if matrix.jobs.is_empty() {
        compiled_here = Matrix::build_jobs(matrix.setup.scale, &presets(matrix), tracer, parent);
        &compiled_here
    } else {
        matrix
    };

    // Trace generation: every distinct program, every CPU's stream, once.
    let mut last: Option<&Arc<CompiledProgram>> = None;
    for job in &m.jobs {
        if last.is_some_and(|p| Arc::ptr_eq(p, &job.compiled)) {
            continue;
        }
        last = Some(&job.compiled);
        counts.trace_ops += tracer.span("compiler.OpSpec::ops", parent, |_| drain(&job.compiled));
    }

    // Hint generation, then page faults over the hinted pages under both
    // policies.
    for job in m
        .jobs
        .iter()
        .filter(|j| j.cfg.policy == cdpc_machine::PolicyKind::Cdpc)
    {
        let mem = &job.cfg.mem;
        let params = MachineParams::new(
            mem.num_cpus,
            mem.page_size,
            mem.l2.size_bytes(),
            mem.l2.associativity(),
        );
        let hints = tracer.span("core.generate_hints_with", parent, |_| {
            generate_hints_with(&job.compiled.summary, &params, job.cfg.hint_options)
                .expect("compiler summaries are valid")
        });
        counts.hinted_pages += hints.len() as u64;
        let colors = ColorSpace::new(mem.l2.size_bytes(), mem.page_size, mem.l2.associativity());
        let n = colors.num_colors() as usize;
        let phys = (hints.len() * 2).div_ceil(n).max(1) * n;
        let geometry = PageGeometry::new(mem.page_size);
        let mut policies: [Box<dyn MappingPolicy>; 2] = [
            Box::new(PageColoring::new(colors)),
            Box::new(CdpcPolicy::new(
                hints.to_hint_table(),
                PageColoring::new(colors),
            )),
        ];
        for policy in &mut policies {
            let mut vm = AddressSpace::new(geometry, phys, colors);
            tracer.span("vm.AddressSpace::fault", parent, |_| {
                for &vpn in hints.order() {
                    vm.fault(vpn, policy.as_mut())
                        .expect("physical memory sized for the hints");
                }
            });
            counts.faults += hints.len() as u64;
        }
    }

    // Synthetic memory-system streams: L1-resident and all-miss.
    for cpus in [1, 4, 16] {
        let mem = m.mem(Preset::Base1MbDm, cpus);
        let mut sys = MemorySystem::new(mem.clone());
        sys.access(0, 0, VirtAddr(0), PhysAddr(0), AccessKind::Read);
        tracer.span("memsim.MemorySystem::access/l1_hit", parent, |_| {
            for t in 1..=L1_REFS {
                black_box(sys.access(0, t, VirtAddr(8), PhysAddr(8), AccessKind::Read));
            }
        });
        let mut sys = MemorySystem::new(mem);
        let line = 128;
        tracer.span("memsim.MemorySystem::access/miss", parent, |_| {
            for i in 1..=MISS_REFS {
                let a = i * line;
                let cpu = i as usize % cpus;
                black_box(sys.access(cpu, i * 50, VirtAddr(a), PhysAddr(a), AccessKind::Read));
            }
        });
        counts.l1_refs += L1_REFS;
        counts.miss_refs += MISS_REFS;
    }

    // The 8-CPU slice: plain and attributed runs (alternating which goes
    // first), report rendering, cache keys, stores, loads and one memoized
    // answer of the slice listed twice, and the prover.
    let slice = m.probe_slice();
    let dir = crate::work_dir().join(format!("probe-{}", std::process::id()));
    let cache = ResultCache::new(&dir);
    let mut reports: Vec<RunReport> = Vec::new();
    for (k, &i) in slice.iter().enumerate() {
        let job = &m.jobs[i];
        let plain = || tracer.span("machine.run", parent, |_| run(&job.compiled, &job.cfg));
        let attributed = || {
            tracer.span("machine.run_attributed", parent, |_| {
                run_attributed(&job.compiled, &job.cfg)
            })
        };
        let report = if k % 2 == 0 {
            let r = plain();
            black_box(attributed());
            r
        } else {
            black_box(attributed());
            plain()
        };
        counts.run_refs += report.simulated_refs;
        black_box(tracer.span("obs.report_to_json", parent, |_| report_to_json(&report)));
        let key = tracer.span("machine.run_key", parent, |_| {
            run_key(&job.compiled, &job.cfg)
        });
        tracer
            .span("machine.ResultCache::store", parent, |_| {
                cache.store(&key, &report)
            })
            .expect("probe cache directory is writable");
        let loaded = tracer.span("machine.ResultCache::load", parent, |_| cache.load(&key));
        assert_eq!(
            loaded.as_ref(),
            Some(&report),
            "cache round trip is lossless"
        );
        reports.push(report);

        let cell = m.cells[i];
        let policy = if cell.cdpc {
            ProverPolicy::Cdpc
        } else {
            ProverPolicy::PageColoring
        };
        let machine = MachineModel::from_mem(&job.cfg.mem);
        let opts = m.options(cell.preset, cell.cpus);
        let (proof, _) = tracer.span("analyze.predict_program", parent, |_| {
            predict_program(&m.programs[cell.bench], &opts, &machine, policy)
        });
        if want_proofs {
            evidence.proofs.push(proof);
        }
    }
    let twice: Vec<_> = slice
        .iter()
        .chain(&slice)
        .map(|&i| m.jobs[i].clone())
        .collect();
    let (_, stats) = tracer.span("machine.run_sweep_memo", parent, |_| {
        run_sweep_memo(&twice, crate::host::nproc(), Some(&cache))
    });
    evidence.memo.push(stats);
    if want_reports {
        evidence.reports = reports;
    }
    std::fs::remove_dir_all(&dir).expect("probe cache directory is removable");
    counts
}

/// The distinct presets of a matrix, in order.
fn presets(m: &Matrix) -> Vec<Preset> {
    let mut out: Vec<Preset> = Vec::new();
    for c in &m.cells {
        if !out.contains(&c.preset) {
            out.push(c.preset);
        }
    }
    out
}

/// Drains every CPU's op cursor of every statement once; returns the op
/// count.
fn drain(p: &CompiledProgram) -> u64 {
    let mut ops = 0u64;
    let mut sum = 0u64;
    for phase in &p.phases {
        for stmt in &phase.stmts {
            let specs = match stmt {
                CompiledStmt::Parallel { specs } => specs.as_slice(),
                CompiledStmt::Master { spec, .. } => std::slice::from_ref(spec),
            };
            for spec in specs {
                for op in spec.ops() {
                    ops += 1;
                    sum = sum.wrapping_add(match op {
                        TraceOp::Instr(n) => n,
                        TraceOp::Load(a) | TraceOp::Store(a) | TraceOp::IFetch(a) => a.0,
                        TraceOp::Prefetch { addr, .. } => addr.0,
                    });
                }
            }
        }
    }
    black_box(sum);
    ops
}
