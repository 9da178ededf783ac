//! `edit_session`: an editor's re-check loop. One cold `into_session`
//! on a trigger-shaped script, then re-checks after small edits, reading
//! the ranked list after each one.

use crate::answers::Score;
use crate::layers::{self, finish_trace, set_layer_metrics, Entry};
use crate::report::{mean, median, Outcome};
use crate::trace::Trace;
use crate::{cli, gen, ms_since, sys, RunConfig, Scale};
use sqlcheck::{BatchOptions, CheckSession, Edit, IncrementalCache, Locus, SqlCheck};
use sqlcheck_bench::experiments::throughput::script_for_shape;
use std::collections::BTreeSet;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Base script size, set-up repetitions, the re-checks after which
/// `peak_rss_mb` is read, and the re-checks a run makes at least. The
/// session's RSS grows with every edit, so the figure is read after a
/// fixed op count to stay comparable between runs.
fn sizes(scale: Scale) -> (usize, usize, usize, usize) {
    match scale {
        Scale::Full => (20_000, 15, 300, 1000),
        Scale::Tiny => (120, 2, 20, 40),
    }
}

/// The traced run reports RSS growth per re-check after this many.
const GROWTH_AFTER: usize = 100;

/// The base script of the session.
pub fn base_script(scale: Scale, seed: u64) -> String {
    let templates = if scale == Scale::Full { 100 } else { 16 };
    script_for_shape("trigger", sizes(scale).0, templates, seed)
}

/// A cold session with its own cache; the cache handle is kept so its
/// counters can be read.
pub fn open(script: &str) -> (CheckSession, Arc<IncrementalCache>) {
    let cache = Arc::new(IncrementalCache::new(
        sqlcheck::detect::DEFAULT_CACHE_CAPACITY,
    ));
    let session = SqlCheck::new()
        .with_shared_cache(cache.clone())
        .into_session(script.to_string(), BatchOptions::default());
    (session, cache)
}

/// One op: apply an editor action and read the ranked list. Returns the
/// op's time and the statements the session re-checked
/// (`warm_dirty_statements`; 0 after a full rebuild).
fn recheck(session: &mut CheckSession, step: &gen::EditStep) -> (f64, usize) {
    let edits: Vec<Edit> = step
        .edits
        .iter()
        .map(|(i, t)| Edit::new(*i, t.as_str()))
        .collect();
    let t = Instant::now();
    let w = session.recheck(&edits);
    std::hint::black_box(w.outcome.ranked().len());
    (ms_since(t), w.stats.warm_dirty_statements)
}

fn statement_kinds(outcome: &sqlcheck::CheckOutcome) -> BTreeSet<(usize, String)> {
    outcome
        .report
        .detections
        .iter()
        .filter_map(|d| match d.locus {
            Locus::Statement { index } => Some((index, d.kind.name().to_string())),
            _ => None,
        })
        .collect()
}

/// Compare a re-checked outcome with a cold check of `script`: equal
/// reports and equal rankings.
pub fn verify(warm: &sqlcheck::CheckOutcome, script: &str) -> (bool, Score) {
    let cold = SqlCheck::new().check_workload(script, &BatchOptions::default());
    let same_ranking = warm.ranked().len() == cold.outcome.ranked().len()
        && warm
            .ranked()
            .iter()
            .zip(cold.outcome.ranked())
            .all(|(a, b)| a.detection == b.detection && a.score == b.score);
    let ok = warm.report.detections == cold.outcome.report.detections && same_ranking;
    (
        ok,
        Score::of(&statement_kinds(warm), &statement_kinds(&cold.outcome)),
    )
}

/// Re-checks between two comparisons with a cold check.
const CHECK_EVERY: usize = 100;

pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    let (statements, setup_reps, rss_after, min_ops) = sizes(cfg.scale);
    let script = base_script(cfg.scale, cfg.seed);
    let mut edits = gen::EditGen::new(statements, cfg.seed);
    sys::reset_peak_rss()?;
    if cfg.trace {
        return traced(cfg, &script, &mut edits, min_ops);
    }
    let mut out = Outcome::default();

    // Set-up: a cold `into_session`, several times; the last one is kept.
    let mut setup = Vec::new();
    let mut opened = None;
    for _ in 0..setup_reps {
        drop(opened.take());
        let t = Instant::now();
        opened = Some(open(&script));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (mut session, _cache) = opened.expect("at least one set-up");

    let (mut walls, mut unchecked) = (Vec::new(), 0u64);
    let mut score = Score::default();
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    loop {
        let step = edits.next().expect("the edit stream is endless");
        let (ms, _) = recheck(&mut session, &step);
        walls.push(ms);
        out.attempted += 1;
        unchecked += 1;
        if walls.len() == rss_after {
            out.set("peak_rss_mb", sys::peak_rss_kib()? as f64 / 1024.0);
        }
        let last = walls.len() >= min_ops && Instant::now() >= deadline;
        // The first comparison comes after the RSS reading, so the cold
        // checks it makes are not counted against the session.
        if (walls.len() >= rss_after && walls.len().is_multiple_of(CHECK_EVERY)) || last {
            // Every re-check since the previous comparison fails with it.
            let (ok, s) = verify(&session.outcome().outcome, session.script());
            out.failed += if ok { 0 } else { unchecked };
            unchecked = 0;
            score = s;
        }
        if last {
            break;
        }
    }
    out.set("op_p50_ms", median(&walls));
    out.set("setup_s", median(&setup));
    out.set("label_precision", score.precision());
    out.set("label_recall", score.recall());
    Ok(out)
}

fn traced(
    cfg: &RunConfig,
    script: &str,
    edits: &mut gen::EditGen,
    ops: usize,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut trace = Trace::default();

    // The cold check the session starts from, layer by layer.
    let mut runs = Vec::new();
    let mut untraced_ms = Vec::new();
    for _ in 0..3 {
        runs.push(layers::attribute(&mut trace, script, None, Entry::Workload));
        let t = Instant::now();
        let w = SqlCheck::new().check_workload(script, &BatchOptions::default());
        std::hint::black_box((w.outcome.ranked().len(), w.outcome.fixes().len()));
        untraced_ms.push(ms_since(t));
    }
    set_layer_metrics(&mut out, &runs, median(&untraced_ms));

    let ((mut session, cache), _) = trace.span("into_session", |_| open(script));
    let busy = &session.outcome().stats.worker_busy_micros;
    if !busy.is_empty() {
        let mean = busy.iter().sum::<u128>() as f64 / busy.len() as f64;
        let max = *busy.iter().max().expect("non-empty") as f64;
        out.set(
            "sched.busy_imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    let before = cache.counters();
    let (mut incremental, mut fallback, mut dirty) = (Vec::new(), Vec::new(), Vec::new());
    let mut growth_from = 0;
    for op in 0..ops {
        if op == GROWTH_AFTER.min(ops / 2) {
            growth_from = sys::peak_rss_kib()?;
        }
        let step = edits.next().expect("the edit stream is endless");
        let (fb, cr) = (session.fallbacks(), session.cold_reverts());
        let ((ms, d), _) = trace.span("recheck", |_| recheck(&mut session, &step));
        if session.fallbacks() > fb || session.cold_reverts() > cr {
            fallback.push(ms);
        } else {
            incremental.push(ms);
            dirty.push(d as f64);
        }
    }
    let after = cache.counters();
    let growth_ops = (ops - GROWTH_AFTER.min(ops / 2)) as f64;
    let growth_kib = sys::peak_rss_kib()?.saturating_sub(growth_from) as f64;
    out.set(
        "session.growth_kb_per_recheck",
        growth_kib * 1.024 / growth_ops,
    );
    let (ok, _) = trace
        .span("verify", |_| {
            verify(&session.outcome().outcome, session.script())
        })
        .0;
    out.attempted = ops as u64;
    out.failed = if ok && runs.iter().all(|l| l.split_agrees) {
        0
    } else {
        ops as u64
    };

    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    out.set("session.incremental_ms", median(&incremental));
    out.set("session.fallback_ms", median(&fallback));
    out.set("session.fallbacks", session.fallbacks() as f64);
    out.set("session.cold_reverts", session.cold_reverts() as f64);
    out.set("session.dirty_statements", mean(&dirty));
    out.set(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    finish_trace(&mut out, &trace, &cli::work_dir()?, cfg)?;
    Ok(out)
}
