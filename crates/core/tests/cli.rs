//! End-to-end tests of the `sqlcheck` binary: golden listings, exit
//! codes, a reader that closes the pipe early, and strict argument
//! parsing.
//!
//! The golden listings under `tests/golden/` were produced by the binary
//! before its report path was rewritten (buffered output, per-unique
//! detection, memoized fixes, bucketed ranking); the rewrite must keep
//! them byte for byte. The script covers a `Fix::Rewrite`, a
//! `Fix::SchemaChange` with impacted queries, `Fix::Textual` advice,
//! duplicate statements that each carry their own byte span, and
//! findings inside a trigger body.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sqlcheck");

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn read_golden(name: &str) -> String {
    std::fs::read_to_string(golden(name)).expect("golden file")
}

/// Run the binary with `args`, feeding `stdin` (empty when `None`).
fn run(args: &[&str], stdin: Option<&str>) -> Output {
    run_in(args, stdin, None)
}

fn run_in(args: &[&str], stdin: Option<&str>, dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args)
        .stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let mut child = cmd.spawn().expect("spawn sqlcheck");
    if let Some(input) = stdin {
        // A run that rejects its arguments exits without reading stdin.
        let _ = child.stdin.take().expect("stdin").write_all(input.as_bytes());
    }
    child.wait_with_output().expect("wait for sqlcheck")
}

fn stdout(o: &Output) -> &str {
    std::str::from_utf8(&o.stdout).expect("utf-8 stdout")
}

fn stderr(o: &Output) -> &str {
    std::str::from_utf8(&o.stderr).expect("utf-8 stderr")
}

fn assert_golden(flags: &[&str], listing: &str) {
    let script = golden("report.sql");
    let mut args = flags.to_vec();
    args.push(script.to_str().expect("utf-8 path"));
    let out = run(&args, None);
    assert_eq!(stdout(&out), read_golden(listing), "sqlcheck {flags:?}");
    assert_eq!(out.status.code(), Some(1), "findings exit 1: {flags:?}");
    assert_eq!(stderr(&out), "", "{flags:?}");
}

#[test]
fn default_listing_matches_golden() {
    assert_golden(&[], "report.default.out");
}

#[test]
fn summary_matches_golden() {
    assert_golden(&["--summary"], "report.summary.out");
}

#[test]
fn no_fix_listing_matches_golden() {
    assert_golden(&["--no-fix"], "report.no_fix.out");
}

#[test]
fn batch_engine_flags_keep_the_listing() {
    assert_golden(&["--parallel"], "report.default.out");
    assert_golden(&["--threads", "2"], "report.default.out");
    assert_golden(&["--cache"], "report.default.out");
}

#[test]
fn stdin_matches_file_input() {
    let out = run(&["-"], Some(&read_golden("report.sql")));
    assert_eq!(stdout(&out), read_golden("report.default.out"));
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn exit_codes() {
    // A clean run exits 0.
    let clean = "GRANT SELECT ON t TO u;";
    let out = run(&["-"], Some(clean));
    assert_eq!(stdout(&out), "no anti-patterns detected in 1 statement(s)\n");
    assert_eq!(out.status.code(), Some(0));
    // The same statement parses degraded: exit 3 under --fail-on-degraded.
    let out = run(&["--fail-on-degraded", "-"], Some(clean));
    assert_eq!(stdout(&out), "no anti-patterns detected in 1 statement(s)\n");
    assert_eq!(out.status.code(), Some(3));
    // Degradation takes precedence over findings.
    let out = run(&["--fail-on-degraded", "-"], Some("GRANT SELECT ON t TO u; SELECT * FROM t;"));
    assert_eq!(out.status.code(), Some(3));
    // An unreadable input is an IO error.
    let out = run(&["/nonexistent/dir/script.sql"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("sqlcheck: cannot read "), "{}", stderr(&out));
}

/// `sqlcheck FILE | head -1`: the reader goes away after one line. The
/// CLI stops writing without a panic message and exits with the
/// findings code.
#[test]
fn closed_pipe_ends_output_quietly() {
    // ~1 MB of report, far more than a pipe buffers.
    let script = read_golden("report.sql").repeat(200);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-broken-pipe.sql");
    std::fs::write(&path, script).expect("write script");
    let mut child = Command::new(BIN)
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sqlcheck");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("read first line");
    assert!(first.starts_with("  1. ["), "{first}");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("wait for sqlcheck");
    assert_eq!(stderr(&out), "", "no panic text on a closed pipe");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn strict_arguments() {
    let script = golden("report.sql");
    let script = script.to_str().expect("utf-8 path");
    // (arguments, expected stderr prefix) — every case exits 2 before
    // reading any input.
    let rejected: &[(&[&str], &str)] = &[
        (&["--statz", "--dialcet", "mysql"], "sqlcheck: unknown flag '--statz'"),
        (&["-x", script], "sqlcheck: unknown flag '-x'"),
        (&["--weights", "c9", script], "sqlcheck: --weights expects c1|c2, got 'c9'"),
        (&["--rank-by", "size", script], "sqlcheck: --rank-by expects score|count, got 'size'"),
        (&["--dialect", "oracle", script], "sqlcheck: --dialect expects generic|postgres"),
        (&["--threads", "many", script], "sqlcheck: --threads expects a non-negative integer"),
        (&["--threads", "-1", script], "sqlcheck: --threads expects a non-negative integer"),
        (&[script, "--threads"], "sqlcheck: --threads expects a non-negative integer"),
        (&[script, script], "sqlcheck: more than one input given"),
        (&["-", script], "sqlcheck: more than one input given"),
    ];
    for (args, message) in rejected {
        let out = run(args, Some("SELECT * FROM t;"));
        assert_eq!(out.status.code(), Some(2), "sqlcheck {args:?}");
        assert!(stderr(&out).starts_with(message), "sqlcheck {args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "sqlcheck {args:?}");
    }

    // Accepted spellings.
    for args in [
        &["--weights", "C1", script][..],
        &["--rank-by", "score", script],
        &["--rank-by", "count", script],
        &["--threads", "0", script],
        &["--dialect", "generic", script],
    ] {
        let out = run(args, None);
        assert_eq!(stdout(&out), read_golden("report.default.out"), "sqlcheck {args:?}");
        assert_eq!(out.status.code(), Some(1), "sqlcheck {args:?}");
    }

    let out = run(&["--help"], None);
    assert!(stdout(&out).starts_with("sqlcheck — "), "{}", stdout(&out));
    assert_eq!(out.status.code(), Some(0));
}

/// A flag's value is the next argument and nothing else: `--threads 4 4`
/// reads the file `4` (not stdin).
#[test]
fn flag_values_bind_by_position() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-positional");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(golden("report.sql"), dir.join("4")).expect("copy script");
    let out = run_in(&["--threads", "4", "4"], Some("SELECT 1;"), Some(&dir));
    assert_eq!(stdout(&out), read_golden("report.default.out"));
    assert_eq!(out.status.code(), Some(1));
}
