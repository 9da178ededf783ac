//! Building and running the release `sqlcheck` binary the way a user
//! does: `cargo build --release`, then `sqlcheck FILE` with default flags.

use crate::sys;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Scratch space for generated inputs and traces, beside the build
/// output this binary was run from.
pub fn work_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| io::Error::other("benchmark binary has no target directory"))?;
    let dir = target.join("perfbench-work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Build the release CLI from the repository's own workspace into its own
/// target directory under `work`, and return the binary's path.
pub fn build(work: &Path) -> io::Result<PathBuf> {
    let target = work.join("cli-target");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "sqlcheck",
            "--bin",
            "sqlcheck",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .env_remove("CARGO_TARGET_DIR")
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building the sqlcheck CLI failed: {status}"
        )));
    }
    Ok(target.join("release").join("sqlcheck"))
}

/// One CLI invocation, timed from spawn until exit with stdout drained.
#[derive(Debug)]
pub struct Invocation {
    pub wall_ms: f64,
    pub code: Option<i32>,
    pub maxrss_kib: u64,
}

/// Run `bin FILE` with stdout piped to this process, collecting the
/// report into `out` (cleared first).
pub fn run(bin: &Path, file: &Path, out: &mut Vec<u8>) -> io::Result<Invocation> {
    out.clear();
    let t = Instant::now();
    let mut child = Command::new(bin)
        .arg(file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(out);
    let exit = sys::wait_child(child.id())?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    read?;
    Ok(Invocation {
        wall_ms,
        code: exit.code,
        maxrss_kib: exit.maxrss_kib,
    })
}
