//! The Figure 6 job matrix every workload draws from: the ten workload
//! models × {1, 2, 4, 8, 16} CPUs × {page coloring, CDPC}, over one or
//! more L2 presets, at one scale.

use std::sync::Arc;

use cdpc_bench::{Preset, Setup};
use cdpc_compiler::ir::Program;
use cdpc_compiler::{compile, CompileOptions, CompiledProgram};
use cdpc_machine::{PolicyKind, RunConfig, SweepJob};
use cdpc_memsim::MemConfig;

use crate::spans::Tracer;

pub const CPU_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One matrix point, in canonical (preset, workload, cpus, policy) order.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub preset: Preset,
    pub bench: usize,
    pub cpus: usize,
    pub cdpc: bool,
}

impl Cell {
    pub fn policy(&self) -> PolicyKind {
        if self.cdpc {
            PolicyKind::Cdpc
        } else {
            PolicyKind::PageColoring
        }
    }
}

pub struct Matrix {
    pub setup: Setup,
    pub names: Vec<&'static str>,
    pub programs: Vec<Program>,
    pub cells: Vec<Cell>,
    /// One simulation job per cell (empty unless compiled).
    pub jobs: Vec<SweepJob>,
}

impl Matrix {
    /// Builds every workload model at `scale` (spans
    /// `workloads.Benchmark::build`) and lists the cells.
    pub fn build(scale: u64, presets: &[Preset], tracer: &Tracer, parent: Option<u32>) -> Self {
        let setup = Setup::with_scale(scale);
        let benches = cdpc_workloads::all();
        let programs = benches
            .iter()
            .map(|b| {
                tracer.span("workloads.Benchmark::build", parent, |_| {
                    (b.build)(setup.workload_scale())
                })
            })
            .collect();
        let mut cells = Vec::new();
        for &preset in presets {
            for bench in 0..benches.len() {
                for cpus in CPU_COUNTS {
                    for cdpc in [false, true] {
                        cells.push(Cell {
                            preset,
                            bench,
                            cpus,
                            cdpc,
                        });
                    }
                }
            }
        }
        Matrix {
            setup,
            names: benches.iter().map(|b| b.name).collect(),
            programs,
            cells,
            jobs: Vec::new(),
        }
    }

    /// [`build`](Self::build), then compiles each (preset, workload, cpus)
    /// once (spans `compiler.compile`) and makes one job per cell.
    pub fn build_jobs(
        scale: u64,
        presets: &[Preset],
        tracer: &Tracer,
        parent: Option<u32>,
    ) -> Self {
        let mut m = Self::build(scale, presets, tracer, parent);
        let mut shared: Option<(usize, usize, Preset, Arc<CompiledProgram>)> = None;
        let mut jobs = Vec::with_capacity(m.cells.len());
        for cell in &m.cells {
            let compiled = match &shared {
                Some((b, c, p, prog)) if (*b, *c, *p) == (cell.bench, cell.cpus, cell.preset) => {
                    Arc::clone(prog)
                }
                _ => {
                    let opts = m.options(cell.preset, cell.cpus);
                    let prog = tracer.span("compiler.compile", parent, |_| {
                        compile(&m.programs[cell.bench], &opts).expect("workload models compile")
                    });
                    let prog = Arc::new(prog);
                    shared = Some((cell.bench, cell.cpus, cell.preset, Arc::clone(&prog)));
                    prog
                }
            };
            let cfg = RunConfig::new(m.mem(cell.preset, cell.cpus), cell.policy());
            jobs.push(SweepJob::new(compiled, cfg));
        }
        m.jobs = jobs;
        m
    }

    /// The scaled machine for `preset` at `cpus`.
    pub fn mem(&self, preset: Preset, cpus: usize) -> MemConfig {
        self.setup.scaled_mem(preset, cpus)
    }

    /// The compile options the experiment binaries use for `preset` at
    /// `cpus` (aligned layout, no prefetching).
    pub fn options(&self, preset: Preset, cpus: usize) -> CompileOptions {
        let mem = self.mem(preset, cpus);
        let mut opts = CompileOptions::new(cpus).with_l2_cache(mem.l2.size_bytes() as u64);
        opts.prefetch = false;
        opts.aligned = true;
        opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;
        opts
    }

    /// `101.tomcatv/Base1MbDm/8/cdpc`: the key of a cell in the
    /// reference files.
    pub fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        let policy = if c.cdpc { "cdpc" } else { "pc" };
        format!("{}/{:?}/{}/{policy}", self.names[c.bench], c.preset, c.cpus)
    }

    /// Indices of the 8-CPU cells: the slice the layer probe runs.
    pub fn probe_slice(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].cpus == 8)
            .collect()
    }
}
