//! Correctness references, recorded from the seed commit with `--record`
//! and compiled into the binary. A pass counts an op as failed when its
//! output differs from these.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

use cdpc_analyze::ConflictPrediction;
use cdpc_machine::{report_to_json, RunReport};

use crate::host::digest;

pub const FIG6_TABLE: &str = include_str!("../ref/fig6.txt");
const FIG6_REPORTS: &str = include_str!("../ref/fig6_reports.txt");
const PROOFS: &str = include_str!("../ref/proofs.txt");

/// What a run report must reproduce: the digest of its `report_to_json`
/// rendering, and its simulated reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportRef {
    pub digest: u64,
    pub simulated_refs: u64,
}

impl ReportRef {
    pub fn of(report: &RunReport) -> Self {
        ReportRef {
            digest: digest(report_to_json(report).to_string_compact().as_bytes()),
            simulated_refs: report.simulated_refs,
        }
    }
}

/// What a proof must reproduce: `(cells, proven_free, est_misses,
/// confidence)`, with the cell set kept as its size and digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofRef {
    pub cells: u64,
    pub cells_digest: u64,
    pub proven_free: bool,
    pub est_misses: u64,
    pub confidence: u8,
}

impl ProofRef {
    pub fn of(p: &ConflictPrediction) -> Self {
        let cells: String = p.cells.iter().map(|(r, c)| format!("{r}:{c},")).collect();
        ProofRef {
            cells: p.cells.len() as u64,
            cells_digest: digest(cells.as_bytes()),
            proven_free: p.proven_free,
            est_misses: p.est_misses,
            confidence: p.confidence,
        }
    }
}

#[derive(Clone)]
pub struct Refs {
    pub reports: BTreeMap<String, ReportRef>,
    pub proofs: BTreeMap<String, ProofRef>,
}

fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
}

fn hex(s: &str) -> u64 {
    u64::from_str_radix(s, 16).expect("reference digest is hex")
}

fn num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().ok().expect("reference field is a number")
}

/// The references, parsed once per process.
pub fn refs() -> &'static Refs {
    static REFS: OnceLock<Refs> = OnceLock::new();
    REFS.get_or_init(Refs::parse)
}

impl Refs {
    fn parse() -> Self {
        let reports = rows(FIG6_REPORTS)
            .map(|r| {
                let v = ReportRef {
                    digest: hex(r[1]),
                    simulated_refs: num(r[2]),
                };
                (r[0].to_string(), v)
            })
            .collect();
        let proofs = rows(PROOFS)
            .map(|r| {
                let v = ProofRef {
                    cells: num(r[1]),
                    cells_digest: hex(r[2]),
                    proven_free: num(r[3]),
                    est_misses: num(r[4]),
                    confidence: num(r[5]),
                };
                (r[0].to_string(), v)
            })
            .collect();
        Refs { reports, proofs }
    }

    /// Simulated references of every recorded Figure 6 job.
    pub fn fig6_refs(&self) -> u64 {
        self.reports.values().map(|r| r.simulated_refs).sum()
    }
}

/// Writes the three reference files into `dir`.
pub fn write(
    dir: &Path,
    table: &str,
    reports: &[(String, ReportRef)],
    proofs: &[(String, ProofRef)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("fig6.txt"), table)?;
    let mut text = String::from("# label report_to_json-fnv64 simulated_refs\n");
    for (label, r) in reports {
        text += &format!("{label} {:016x} {}\n", r.digest, r.simulated_refs);
    }
    std::fs::write(dir.join("fig6_reports.txt"), text)?;
    let mut text = String::from("# label cells cells-fnv64 proven_free est_misses confidence\n");
    for (label, p) in proofs {
        text += &format!(
            "{label} {} {:016x} {} {} {}\n",
            p.cells, p.cells_digest, p.proven_free, p.est_misses, p.confidence
        );
    }
    std::fs::write(dir.join("proofs.txt"), text)
}
