//! End-to-end and per-layer benchmark of sqlcheck.
//!
//! Four seeded workloads, each run by one closed-loop caller:
//!
//! * `plain_log` and `skewed_log` run the release `sqlcheck` CLI with
//!   default flags on one generated 100k-statement script;
//! * `repo_corpus` checks every repository of the labelled GitHub corpus
//!   through `SqlCheck::check_workload`, then ranks and fixes;
//! * `edit_session` re-checks a retained `CheckSession` after small edits.
//!
//! An untraced run prints the end-to-end metrics; a traced run replays
//! the same inputs layer by layer and prints the per-layer metrics. See
//! `BENCHMARK.json` at the repository root for what each one measures.

pub mod answers;
pub mod cli;
pub mod corpus;
pub mod gen;
pub mod layers;
pub mod logs;
pub mod report;
pub mod session;
pub mod sys;
pub mod trace;

use report::Outcome;
use std::io;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["plain_log", "skewed_log", "repo_corpus", "edit_session"];

/// Input sizes. `Full` is the benchmark; `Tiny` keeps the smoke test fast
/// and is set only by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl RunConfig {
    /// The measuring deadline, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// Run one workload and return its outcome.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    match cfg.workload.as_str() {
        "plain_log" => logs::run(logs::Log::Plain, cfg),
        "skewed_log" => logs::run(logs::Log::Skewed, cfg),
        "repo_corpus" => corpus::run(cfg),
        "edit_session" => session::run(cfg),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
