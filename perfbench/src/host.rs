//! Host facts recorded with every result, a fixed calibration loop that
//! shows host-speed drift beside each run, peak memory, and the small
//! statistics and digest helpers the workloads share.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use cdpc_obs::JsonValue;

/// Worker threads for every fan-out: the host's available parallelism.
pub fn nproc() -> usize {
    cdpc_machine::default_threads()
}

/// `nproc`, CPU model, rustc version and git commit, as one JSON object.
pub fn facts(calib_ms: f64) -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut v = JsonValue::object();
    v.push("nproc", JsonValue::UInt(nproc() as u64));
    v.push("cpu_model", JsonValue::Str(cpu));
    v.push(
        "rustc",
        JsonValue::Str(command_line("rustc", &["--version"])),
    );
    v.push(
        "git_commit",
        JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    v.push("calib_ms", JsonValue::Float(calib_ms));
    v
}

/// First line of a command's stdout, or `unknown` (a checkout that is not
/// a git repository has no commit to report).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Milliseconds for a fixed integer-mixing loop (median of 5). It touches
/// no repository code, so it moves only with the host.
pub fn calib_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..4_000_000u64 {
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1) of `v`; sorts `v` in place.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// 64-bit FNV-1a. The benchmark owns its digest so that reference values
/// do not move when the repository's hashing does.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv_reference_value() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
