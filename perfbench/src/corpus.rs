//! `repo_corpus`: the labelled GitHub corpus, one library check per
//! repository: `check_workload(BatchOptions::default())`, then `ranked()`
//! and `fixes()`.

use crate::answers::Score;
use crate::layers::{self, finish_trace, set_layer_metrics, Entry, Layers};
use crate::report::{median, Outcome};
use crate::trace::Trace;
use crate::{cli, ms_since, sys, RunConfig, Scale};
use sqlcheck::{AntiPatternKind, BatchOptions, CheckOutcome, Locus, SqlCheck};
use sqlcheck_parser::ast::Statement;
use sqlcheck_workload::github::{generate_corpus, CorpusConfig, Repository};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::io;
use std::time::Instant;

/// The corpus for `seed`: paper scale (1406 repositories of ~124
/// statements) or a tiny one.
pub fn corpus(scale: Scale, seed: u64) -> Vec<Repository> {
    let cfg = match scale {
        Scale::Full => CorpusConfig {
            seed,
            ..CorpusConfig::default()
        },
        Scale::Tiny => CorpusConfig {
            repositories: 12,
            statements_per_repo: 30,
            seed,
        },
    };
    generate_corpus(cfg)
}

type Labels = BTreeSet<(usize, AntiPatternKind)>;

/// The generator's ground truth for one repository.
fn truth(repo: &Repository) -> Labels {
    repo.statements
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.labels.iter().map(move |k| (i, *k)))
        .collect()
}

/// What a check found, per statement: table and column loci map to the
/// statement that creates the table, as the corpus labels do.
pub fn found(outcome: &CheckOutcome) -> Labels {
    let ctx = &outcome.context;
    let create_site = |table: &str| {
        ctx.statements.iter().position(
            |s| matches!(&s.parsed.stmt, Statement::CreateTable(ct) if ct.name.name_eq(table)),
        )
    };
    outcome
        .report
        .detections
        .iter()
        .filter_map(|d| {
            let idx = d.statement_index().or_else(|| match &d.locus {
                Locus::Table { table } | Locus::Column { table, .. } => create_site(table),
                _ => None,
            })?;
            Some((idx, d.kind))
        })
        .collect()
}

/// A digest of a check's ranked, fixed result, so a repeated check of the
/// same repository can be compared with the verified first one.
fn digest(outcome: &CheckOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    for (r, f) in outcome.ranked().iter().zip(outcome.fixes()) {
        format!("{:?}|{}|{:?}", r.detection, r.score, f.fix).hash(&mut h);
    }
    outcome.ranked().len().hash(&mut h);
    outcome.fixes().len().hash(&mut h);
    h.finish()
}

/// The first check of a repository is correct when the batch engine's
/// report equals the sequential reference path's and every ranked
/// detection has its fix.
pub fn verify(tool: &SqlCheck, script: &str, outcome: &CheckOutcome) -> bool {
    let reference = tool.check_script(script);
    reference.report.detections == outcome.report.detections
        && outcome.ranked().len() == outcome.report.detections.len()
        && outcome.fixes().len() == outcome.ranked().len()
}

/// One op: check, rank and fix one repository.
fn check(tool: &SqlCheck, script: &str) -> (sqlcheck::WorkloadOutcome, f64) {
    let t = Instant::now();
    let w = tool.check_workload(script, &BatchOptions::default());
    std::hint::black_box((w.outcome.ranked().len(), w.outcome.fixes().len()));
    (w, ms_since(t))
}

pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let repos = corpus(cfg.scale, cfg.seed);
    let scripts: Vec<String> = repos.iter().map(Repository::script).collect();
    sys::reset_peak_rss()?;
    let floor = sys::rss_kib()?;
    let mut out = if cfg.trace {
        traced(cfg, &scripts)?
    } else {
        untraced(cfg, &scripts, &repos)?
    };
    if !cfg.trace {
        let peak = sys::peak_rss_kib()?.saturating_sub(floor);
        out.set("peak_rss_mb", peak as f64 / 1024.0);
    }
    Ok(out)
}

fn untraced(cfg: &RunConfig, scripts: &[String], repos: &[Repository]) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Set-up: a fresh checker made ready, i.e. constructed and through its
    // first repository check.
    let reps = if cfg.scale == Scale::Full { 31 } else { 3 };
    let mut setup = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let tool = SqlCheck::new();
        let (w, _) = check(&tool, &scripts[0]);
        setup.push(t.elapsed().as_secs_f64());
        drop(w);
    }

    // Verify and score every repository once, untimed: the batch result
    // must equal the sequential reference path's, and its findings are
    // scored against the labels. Timed ops then compare digests.
    let tool = SqlCheck::new();
    let mut digests: Vec<u64> = Vec::with_capacity(scripts.len());
    let mut verified = Vec::with_capacity(scripts.len());
    let mut score = Score::default();
    for (script, repo) in scripts.iter().zip(repos) {
        let (w, _) = check(&tool, script);
        score.add(Score::of(&found(&w.outcome), &truth(repo)));
        digests.push(digest(&w.outcome));
        verified.push(verify(&tool, script, &w.outcome));
    }

    let mut walls = Vec::new();
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let mut i = 0;
    while i < scripts.len() || Instant::now() < deadline {
        let r = i % scripts.len();
        let (w, ms) = check(&tool, &scripts[r]);
        let ok = verified[r] && digest(&w.outcome) == digests[r];
        out.attempted += 1;
        out.failed += u64::from(!ok);
        walls.push(ms);
        i += 1;
    }
    out.set("op_p50_ms", median(&walls));
    out.set("setup_s", median(&setup));
    out.set("label_precision", score.precision());
    out.set("label_recall", score.recall());
    Ok(out)
}

fn traced(cfg: &RunConfig, scripts: &[String]) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let tool = SqlCheck::new();
    let sequential = BatchOptions::sequential();
    let (mut runs, mut untraced_ms, mut overhead) = (Vec::<Layers>::new(), Vec::new(), Vec::new());
    let (mut busy_max, mut busy_mean) = (0.0, 0.0);
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let mut i = 0;
    while i < 3.min(scripts.len()) || (Instant::now() < deadline && i < scripts.len()) {
        let script = &scripts[i];
        let (w, ms) = check(&tool, script);
        untraced_ms.push(ms);
        let busy = &w.stats.worker_busy_micros;
        if !busy.is_empty() {
            busy_max += *busy.iter().max().expect("non-empty") as f64;
            busy_mean += busy.iter().sum::<u128>() as f64 / busy.len() as f64;
        }
        let t = Instant::now();
        let s = tool.check_workload(script, &sequential);
        std::hint::black_box((s.outcome.ranked().len(), s.outcome.fixes().len()));
        overhead.push(ms - ms_since(t));

        let l = layers::attribute(&mut trace, script, None, Entry::Workload);
        out.attempted += 1;
        out.failed +=
            u64::from(l.detections != w.outcome.report.detections.len() || !l.split_agrees);
        runs.push(l);
        i += 1;
    }
    set_layer_metrics(&mut out, &runs, median(&untraced_ms));
    out.set("sched.parallel_overhead_ms", median(&overhead));
    out.set(
        "sched.busy_imbalance",
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            0.0
        },
    );
    finish_trace(&mut out, &trace, &cli::work_dir()?, cfg)?;
    Ok(out)
}
