//! `plain_log` and `skewed_log`: the release CLI, default flags, on one
//! generated query-log script per run.

use crate::answers::{self, Findings, Score};
use crate::layers::{self, finish_trace, median_of, set_layer_metrics, Entry, Layers};
use crate::report::{median, Outcome};
use crate::trace::Trace;
use crate::{cli, gen, ms_since, RunConfig, Scale};
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Log {
    /// 100k statements over 100 exactly repeating templates.
    Plain,
    /// 100k statements, ~90% one hot template with fresh literals, plus
    /// one 400-body procedure.
    Skewed,
}

impl Log {
    fn name(self) -> &'static str {
        match self {
            Log::Plain => "plain_log",
            Log::Skewed => "skewed_log",
        }
    }

    pub fn script(self, scale: Scale, seed: u64) -> gen::Script {
        let (n, templates) = match scale {
            Scale::Full => (100_000, 100),
            Scale::Tiny => (400, 16),
        };
        let shape = match self {
            Log::Plain => "plain",
            Log::Skewed => "skewed",
        };
        gen::Script::of_shape(shape, n, templates, seed)
    }
}

/// CLI start-ups timed for `setup_s`.
fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 31,
        Scale::Tiny => 3,
    }
}

/// The verdict on one CLI listing.
#[derive(Debug)]
pub struct Verdict {
    pub ok: bool,
    pub score: Score,
    pub entries: usize,
}

/// Check a CLI run against the known answer: the findings exit code, and
/// exactly the expected statement-locus kinds, each listed once.
pub fn check_listing(stdout: &[u8], code: Option<i32>, expected: &Findings) -> Verdict {
    let want_code = if expected.is_empty() { 0 } else { 1 };
    let listing = answers::parse_listing(&String::from_utf8_lossy(stdout));
    let score = Score::of(&listing.statements, expected);
    Verdict {
        ok: code == Some(want_code) && score.exact() && listing.duplicates == 0,
        score,
        entries: listing.entries,
    }
}

pub fn run(log: Log, cfg: &RunConfig) -> io::Result<Outcome> {
    let work = cli::work_dir()?;
    let bin = cli::build(&work)?;
    let script = log.script(cfg.scale, cfg.seed);
    let path = work.join(format!("{}-{}.sql", log.name(), cfg.seed));
    std::fs::write(&path, &script.text)?;
    let expected = answers::expected_findings(&script.shapes);

    // The first invocation warms the page cache and is checked in full;
    // every later one must reproduce its output byte for byte.
    let mut reference = Vec::new();
    let first = cli::run(&bin, &path, &mut reference)?;
    let verdict = check_listing(&reference, first.code, &expected);
    let probe = Probe {
        bin: &bin,
        path: &path,
        reference: &reference,
        code: first.code,
        verdict: &verdict,
    };

    let mut out = if cfg.trace {
        traced(cfg, &probe, &script.text, &work)?
    } else {
        untraced(cfg, &probe, &work)?
    };
    out.set("label_precision", verdict.score.precision());
    out.set("label_recall", verdict.score.recall());
    Ok(out)
}

/// Everything needed to run and check one more CLI op.
struct Probe<'a> {
    bin: &'a Path,
    path: &'a Path,
    reference: &'a [u8],
    code: Option<i32>,
    verdict: &'a Verdict,
}

impl Probe<'_> {
    /// One op: returns the invocation and whether it passed.
    fn op(&self, buf: &mut Vec<u8>) -> io::Result<(cli::Invocation, bool)> {
        let inv = cli::run(self.bin, self.path, buf)?;
        let ok = self.verdict.ok && inv.code == self.code && buf.as_slice() == self.reference;
        Ok((inv, ok))
    }
}

fn untraced(cfg: &RunConfig, p: &Probe, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Set-up: the CLI's start-up, from spawn to exit, on a one-statement
    // script with no findings.
    let setup_path = work.join("setup.sql");
    std::fs::write(&setup_path, "SELECT c0 FROM app_t0 WHERE c0 = 1;\n")?;
    let mut buf = Vec::with_capacity(p.reference.len());
    let mut setup = Vec::new();
    for _ in 0..setup_reps(cfg.scale) {
        let inv = cli::run(p.bin, &setup_path, &mut buf)?;
        if inv.code != Some(0) {
            return Err(io::Error::other(format!(
                "set-up run exited with {:?}",
                inv.code
            )));
        }
        setup.push(inv.wall_ms / 1e3);
    }

    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    while walls.len() < 3 || Instant::now() < deadline {
        let (inv, ok) = p.op(&mut buf)?;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        walls.push(inv.wall_ms);
        rss.push(inv.maxrss_kib as f64 / 1024.0);
    }
    out.set("op_p50_ms", median(&walls));
    out.set("peak_rss_mb", median(&rss));
    out.set("setup_s", median(&setup));
    Ok(out)
}

fn traced(cfg: &RunConfig, p: &Probe, sql: &str, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let mut buf = Vec::with_capacity(p.reference.len());
    let (mut cli_walls, mut untraced_ms, mut runs) = (Vec::new(), Vec::new(), Vec::<Layers>::new());
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let min_iters = if cfg.scale == Scale::Full { 3 } else { 1 };
    while runs.len() < min_iters || Instant::now() < deadline {
        let (res, _) = trace.span("cli", |_| p.op(&mut buf));
        let (inv, ok) = res?;
        cli_walls.push(inv.wall_ms);
        let l = layers::attribute(&mut trace, sql, Some(p.path), Entry::Script);
        // The replay must find what the CLI listed.
        out.attempted += 1;
        out.failed += u64::from(!ok || l.detections != p.verdict.entries || !l.split_agrees);
        runs.push(l);

        let t = Instant::now();
        let text = sqlcheck::input::read_script(p.path.to_str().expect("input paths are UTF-8"))?;
        let outcome = sqlcheck::SqlCheck::new()
            .with_dialect_detection(true)
            .check_script(&text);
        std::hint::black_box((outcome.ranked().len(), outcome.fixes().len()));
        untraced_ms.push(ms_since(t));
    }
    let cli_ms = median(&cli_walls);
    set_layer_metrics(&mut out, &runs, median(&untraced_ms));
    let parts: [fn(&Layers) -> f64; 5] = [
        |l| l.read_ms,
        |l| l.build_ms,
        |l| l.detect_ms,
        |l| l.rank_ms,
        |l| l.fix_ms,
    ];
    let in_process: f64 = parts.into_iter().map(|f| median_of(&runs, f)).sum();
    out.set("cli.wall_ms", cli_ms);
    out.set("cli.unattributed_ms", cli_ms - in_process);
    out.set("cli.stdout_mb", p.reference.len() as f64 / 1e6);
    finish_trace(&mut out, &trace, work, cfg)?;
    Ok(out)
}
