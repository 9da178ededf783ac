//! Per-layer attribution from outside the program: each layer's public
//! entry point is called on its own, inside a span, with the thread
//! counts the program itself would use.
//!
//! The in-process op replays the checker layer by layer: read, context
//! build, detect, rank, fix. The front end inside the build is timed by
//! calling the splitter, the re-lex of each unique text, the parser and
//! the annotator separately on the same script, the way the build calls
//! them, so `context.self_ms` is the build minus those four.

use crate::report::{median, Outcome, PER_LAYER};
use crate::sys;
use crate::trace::Trace;
use sqlcheck::{
    BatchOptions, Context, ContextBuilder, DetectionConfig, Detector, FixEngine, FrontendOptions,
    FrontendStats, Ranker, Report,
};
use sqlcheck_parser::splitter::{split_deduped, RawStatement};
use sqlcheck_parser::{annotate, parse_raw_limited, Limits, ParsedStatement};
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Which public entry point the measured op mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `SqlCheck::check_script` as the default CLI runs it: sequential
    /// detection, dialect guessed from the script.
    Script,
    /// `SqlCheck::check_workload(BatchOptions::default())`: the batch
    /// detection engine.
    Workload,
}

/// One attributed op, times in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub read_ms: f64,
    /// The fused split pass (`split_deduped`).
    pub split_ms: f64,
    /// Re-lexing each unique text into owned tokens, one thread, as the
    /// build's intake does.
    pub materialize_ms: f64,
    pub parse_ms: f64,
    pub annotate_ms: f64,
    pub build_ms: f64,
    pub detect_ms: f64,
    pub intra_ms: f64,
    pub rank_ms: f64,
    pub fix_ms: f64,
    /// The replayed op's span: read + build + detect + rank + fix plus the
    /// glue between them.
    pub op_ms: f64,
    pub bytes: usize,
    pub uniques: usize,
    pub templates: usize,
    pub detections: usize,
    pub build_allocs: u64,
    /// Whether the replayed split found the statements and unique texts
    /// the program's own build reported (`FrontendStats`).
    pub split_agrees: bool,
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on `threads` scoped workers, each taking one
/// contiguous chunk; results come back in input order.
fn par_map<T: Send, U: Send>(items: Vec<T>, threads: usize, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut rest = items.into_iter();
    let parts: Vec<Vec<T>> = (0..threads)
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = parts
            .into_iter()
            .map(|part| s.spawn(move || part.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("front-end worker panicked"))
            .collect()
    })
}

fn frontend(entry: Entry) -> FrontendOptions {
    FrontendOptions {
        detect_dialect: entry == Entry::Script,
        ..FrontendOptions::default()
    }
}

/// Build the context the way `entry` does.
pub fn build_context(sql: &str, entry: Entry) -> (Context, FrontendStats) {
    ContextBuilder::new()
        .with_frontend(frontend(entry))
        .add_script(sql)
        .build_with_stats()
}

/// Detect the way `entry` does.
pub fn detect(ctx: &Context, cfg: DetectionConfig, entry: Entry) -> Report {
    let detector = Detector::new(cfg);
    match entry {
        Entry::Script => detector.detect(ctx),
        Entry::Workload => {
            detector
                .detect_batch_with(ctx, &BatchOptions::default(), None)
                .report
        }
    }
}

/// Replay one op on `sql` layer by layer inside `trace`, then time the
/// splitter, parser, annotator and intra-only detection on their own.
/// `file`, when given, is read with `input::read_script` first (the CLI
/// path); otherwise `sql` is checked as held in memory.
pub fn attribute(trace: &mut Trace, sql: &str, file: Option<&Path>, entry: Entry) -> Layers {
    let mut l = Layers {
        bytes: sql.len(),
        ..Layers::default()
    };
    let mut frontend_stats = FrontendStats::default();
    let ((), op_ms) = trace.span("op", |t| {
        let owned;
        let text: &str = match file {
            Some(path) => {
                let (read, ms) = t.span("input.read", |_| {
                    let path = path.to_str().expect("input paths are UTF-8");
                    sqlcheck::input::read_script(path).expect("generated input is readable")
                });
                l.read_ms = ms;
                owned = read;
                owned.as_str()
            }
            None => sql,
        };
        let ((ctx, fe), ms) = t.span("context.build", |_| build_context(text, entry));
        l.build_ms = ms;
        frontend_stats = fe;
        let (report, ms) = t.span("detect", |_| {
            detect(&ctx, DetectionConfig::default(), entry)
        });
        l.detect_ms = ms;
        l.detections = report.detections.len();
        let (ranked, ms) = t.span("rank", |_| Ranker::default().rank(&report));
        l.rank_ms = ms;
        let ((), ms) = t.span("fix", |_| {
            let ordered: Vec<_> = ranked.iter().map(|r| r.detection.clone()).collect();
            std::hint::black_box(FixEngine.fix_all(&ordered, &ctx));
        });
        l.fix_ms = ms;
    });
    l.op_ms = op_ms;

    trace.span("attribution", |t| {
        let threads = if sql.len() < 16 * 1024 {
            1
        } else {
            hw_threads()
        };
        let (split, ms) = t.span("splitter", |_| split_deduped(sql, threads));
        l.split_ms = ms;
        l.uniques = split.uniques.len();
        l.templates = split
            .uniques
            .iter()
            .map(|u| u.fingerprint)
            .collect::<HashSet<_>>()
            .len();
        l.split_agrees = l.uniques == frontend_stats.unique_texts
            && split.occurrences.len() == frontend_stats.statements;
        let (raws, ms) = t.span("splitter.materialize", |_| {
            split
                .uniques
                .iter()
                .map(|u| u.materialize(sql))
                .collect::<Vec<_>>()
        });
        l.materialize_ms = ms;
        let workers = hw_threads().clamp(1, raws.len().max(1));
        let limits = Limits::default();
        let (parsed, ms) = t.span("parser", |_| {
            par_map(raws, workers, |raw: RawStatement| {
                parse_raw_limited(raw, &limits).0
            })
        });
        l.parse_ms = ms;
        let (anns, ms) = t.span("annotate", |_| {
            par_map(parsed.iter().collect(), workers, |p: &ParsedStatement| {
                annotate(&p.stmt, &p.arena)
            })
        });
        l.annotate_ms = ms;
        drop((anns, parsed));
        // Allocations are counted on a build of its own: counting contends
        // on one atomic across the front end's threads.
        let ((ctx, _), allocs) = sys::count_allocs(|| build_context(sql, entry));
        l.build_allocs = allocs;
        let (_, ms) = t.span("detect.intra", |_| {
            detect(&ctx, DetectionConfig::intra_only(), entry)
        });
        l.intra_ms = ms;
    });
    l
}

/// Median over runs of one per-run value.
pub fn median_of(runs: &[Layers], f: impl Fn(&Layers) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Microseconds per item.
fn per(ms: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ms * 1e3 / n as f64
    }
}

/// The layer metrics every traced workload shares: medians over its
/// attributed runs. `splitter.ms` is the split pass plus the re-lex of
/// the unique texts; `splitter.mb_per_s` is the split pass alone.
/// `context.self_ms` and `detect.inter_ms` are differences of medians, so
/// the front-end layers and `context.self_ms` add up to the median build.
pub fn set_layer_metrics(out: &mut Outcome, runs: &[Layers], untraced_op_ms: f64) {
    let m = |f: fn(&Layers) -> f64| median_of(runs, f);
    let split = m(|l| l.split_ms + l.materialize_ms);
    let (parse, annotate) = (m(|l| l.parse_ms), m(|l| l.annotate_ms));
    let (detect, intra) = (m(|l| l.detect_ms), m(|l| l.intra_ms));
    out.set("input.read_ms", m(|l| l.read_ms));
    out.set("splitter.ms", split);
    out.set("splitter.materialize_ms", m(|l| l.materialize_ms));
    out.set(
        "splitter.mb_per_s",
        m(|l| l.bytes as f64 / 1e3 / l.split_ms),
    );
    out.set("splitter.unique_texts", m(|l| l.uniques as f64));
    out.set("splitter.unique_templates", m(|l| l.templates as f64));
    out.set("parser.ms", parse);
    out.set("parser.us_per_unique", m(|l| per(l.parse_ms, l.uniques)));
    out.set("annotate.ms", annotate);
    out.set(
        "context.self_ms",
        m(|l| l.build_ms) - split - parse - annotate,
    );
    out.set(
        "frontend.allocs_per_unique",
        m(|l| l.build_allocs as f64 / l.uniques.max(1) as f64),
    );
    out.set("detect.ms", detect);
    out.set("detect.intra_ms", intra);
    out.set("detect.inter_ms", detect - intra);
    out.set("detect.detections", m(|l| l.detections as f64));
    out.set("rank.ms", m(|l| l.rank_ms));
    out.set("rank.us_per_detection", m(|l| per(l.rank_ms, l.detections)));
    out.set("fix.ms", m(|l| l.fix_ms));
    out.set("fix.us_per_detection", m(|l| per(l.fix_ms, l.detections)));
    out.set("trace.overhead_ms", m(|l| l.op_ms) - untraced_op_ms);
}

/// Write the spans out, count them, and read 0 for every per-layer metric
/// this workload does not exercise.
pub fn finish_trace(
    out: &mut Outcome,
    trace: &Trace,
    work: &Path,
    cfg: &crate::RunConfig,
) -> io::Result<()> {
    trace.write_to(&work.join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed)))?;
    out.set("trace.spans", trace.len() as f64);
    for (name, _) in PER_LAYER {
        if out.get(name).is_none() {
            out.set(name, 0.0);
        }
    }
    Ok(())
}
