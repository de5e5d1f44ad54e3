//! Bad command-line input to the binaries with their own argument parsing
//! (`attrib`, `bench_snapshot`) and to the single-run positionals
//! (`inspect`, `attrib`) must end in an error message, the usage text and
//! exit status 2 — never a panic (status 101). Every case here is rejected
//! before any simulation starts, so the binaries return at once.

use std::process::Command;

/// Runs `bin` with `args` and asserts a usage error: status 2, with
/// `usage` and `error` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], usage: &str, error: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("CDPC_CACHE_DIR")
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(usage),
        "{bin} {args:?} must print `{usage}`; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(error),
        "{bin} {args:?} must explain `{error}`; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
}

#[test]
fn attrib_rejects_bad_flags_and_positionals() {
    let bin = env!("CARGO_BIN_EXE_attrib");
    let usage = "usage: attrib <benchmark>";
    for (args, error) in [
        (
            &["tomcatv", "--scale", "3"][..],
            "--scale must be a power of two",
        ),
        (
            &["tomcatv", "--scale", "x"],
            "--scale must be a power of two",
        ),
        (&["tomcatv", "--scale"], "--scale needs a value"),
        (
            &["tomcatv", "--threads", "x"],
            "--threads needs a thread count",
        ),
        (&["tomcatv", "--attrib"], "--attrib needs a value"),
        (&["tomcatv", "--bogus"], "unknown flag `--bogus`"),
        (&["tomcatv", "x"], "cpus must be a number"),
        (&["tomcatv", "0"], "cpus must be a number"),
        (&["tomcatv", "4", "nope"], "unknown policy `nope`"),
    ] {
        assert_usage_error(bin, args, usage, error);
    }
}

#[test]
fn inspect_rejects_a_non_numeric_cpu_count() {
    let bin = env!("CARGO_BIN_EXE_inspect");
    let usage = "usage: inspect <benchmark>";
    assert_usage_error(bin, &["tomcatv", "x"], usage, "cpus must be a number");
    assert_usage_error(bin, &["tomcatv", "64"], usage, "cpus must be a number");
    assert_usage_error(bin, &["tomcatv", "4", "nope"], usage, "unknown policy");
}

#[test]
fn bench_snapshot_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_bench_snapshot");
    let usage = "usage: bench_snapshot";
    for (args, error) in [
        (&["--bogus"][..], "unknown argument `--bogus`"),
        (&["--threads"], "--threads needs a thread count"),
        (&["--threads", "x"], "--threads needs a thread count"),
        (&["--threads", "0"], "--threads needs a thread count"),
        (&["--quick", "--write"], "refusing to overwrite"),
    ] {
        assert_usage_error(bin, args, usage, error);
    }
}
