//! `sqlcheck` — command-line interface (the paper's §7 interactive-shell
//! analogue).
//!
//! ```text
//! sqlcheck [FLAGS] [FILE]          # FILE omitted or '-' reads stdin
//!
//!   --intra-only         intra-query analysis only (§8.1 configuration 1)
//!   --weights c1|c2      ranking weight preset (Fig 7a; default c1)
//!   --rank-by score|count
//!                        inter-query model: summed impact (default) or
//!                        AP count per query
//!   --no-fix             detection + ranking only
//!   --summary            per-kind histogram instead of full listing
//!   --parallel           batch engine: template dedup + threaded detection
//!   --threads N          worker threads for --parallel (0 or omitted:
//!                        auto-detect all cores)
//!   --stats              dedup/phase-timing stats on stderr (alone: for
//!                        the same run as without it)
//!   --cache              batch engine + incremental detection cache
//!   --dialect D          SQL dialect: generic (default), postgres, mysql,
//!                        sqlite. Without this flag the dialect is guessed
//!                        from the script (DELIMITER/backticks -> mysql,
//!                        dollar-quoted bodies -> postgres) and the guess
//!                        is reported as a dialect-guessed diagnostic.
//!   --fail-on-degraded   exit 3 when any statement parsed degraded or a
//!                        rule unit failed (see --stats for details)
//! ```
//!
//! Arguments are parsed strictly: an unknown flag, a missing or unknown
//! flag value, or a second input exits 2 before any input is read. A
//! flag's value is the argument right after it, so `--threads 4 4`
//! reads the file `4`.
//!
//! Exit codes: 0 = no findings, 1 = findings, 2 = bad arguments or an
//! IO error, 3 = degraded input under `--fail-on-degraded` (takes
//! precedence over 1). A reader that closes the pipe early (`sqlcheck
//! FILE | head`) ends the output quietly; the exit code is still the
//! findings code.
//!
//! Note on `--cache`: the cache pays off across *repeated*
//! `check_workload` calls on one `SqlCheck` instance (the library API);
//! a single CLI invocation performs one check, so `--cache --stats`
//! reports the miss/insert side only — useful for inspecting cache
//! behaviour, not for speeding up a one-shot run.
//!
//! Example:
//!
//! ```text
//! echo "INSERT INTO Users VALUES (1, 'foo')" | sqlcheck -
//! ```

use sqlcheck::{
    BatchOptions, BatchStats, CheckOutcome, DetectionConfig, DiagKind, Dialect, Fix,
    InterQueryModel, RankWeights, SqlCheck,
};
use std::io::{self, BufWriter, ErrorKind, Write};

/// Buffered, locked stdout: every byte of the report goes through one.
type Out = BufWriter<io::StdoutLock<'static>>;

/// Every flag the CLI accepts, with the value it takes (`None` for a
/// switch). A value is always the next argument.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--help", None),
    ("-h", None),
    ("--intra-only", None),
    ("--weights", Some("c1|c2")),
    ("--rank-by", Some("score|count")),
    ("--no-fix", None),
    ("--summary", None),
    ("--parallel", None),
    ("--threads", Some("a non-negative integer")),
    ("--stats", None),
    ("--cache", None),
    ("--dialect", Some("generic|postgres|mysql|sqlite")),
    ("--fail-on-degraded", None),
];

/// The parsed command line.
#[derive(Default)]
struct Args {
    help: bool,
    intra_only: bool,
    no_fix: bool,
    summary: bool,
    parallel: bool,
    stats: bool,
    cache: bool,
    fail_on_degraded: bool,
    /// `--weights`; C1 when absent.
    weights: Option<RankWeights>,
    inter_model: InterQueryModel,
    /// `--threads` given: `Some(None)` is `--threads 0` (auto-detect).
    threads: Option<Option<usize>>,
    /// `--dialect` given; absent opts into auto-detection.
    dialect: Option<Dialect>,
    input: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == "-" || !arg.starts_with('-') {
            if let Some(first) = &args.input {
                return Err(format!("more than one input given ('{first}' and '{arg}')"));
            }
            args.input = Some(arg);
            continue;
        }
        let Some(&(flag, expects)) = FLAGS.iter().find(|(name, _)| *name == arg) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        let value = match expects {
            Some(expects) => match argv.next() {
                Some(v) => v,
                None => return Err(format!("{flag} expects {expects}")),
            },
            None => String::new(),
        };
        let bad_value = || format!("{flag} expects {}, got '{value}'", expects.unwrap_or(""));
        match flag {
            "--help" | "-h" => args.help = true,
            "--intra-only" => args.intra_only = true,
            "--no-fix" => args.no_fix = true,
            "--summary" => args.summary = true,
            "--parallel" => args.parallel = true,
            "--stats" => args.stats = true,
            "--cache" => args.cache = true,
            "--fail-on-degraded" => args.fail_on_degraded = true,
            "--weights" => {
                args.weights = match value.to_ascii_lowercase().as_str() {
                    "c1" => Some(RankWeights::C1),
                    "c2" => Some(RankWeights::C2),
                    _ => return Err(bad_value()),
                }
            }
            "--rank-by" => {
                args.inter_model = match value.as_str() {
                    "score" => InterQueryModel::ByScore,
                    "count" => InterQueryModel::ByApCount,
                    _ => return Err(bad_value()),
                }
            }
            // `--threads 0` means auto-detect (`available_parallelism`),
            // the same as leaving the worker count to `--parallel`.
            "--threads" => {
                let n = value.parse::<usize>().map_err(|_| bad_value())?;
                args.threads = Some((n > 0).then_some(n));
            }
            "--dialect" => args.dialect = Some(Dialect::parse(&value).ok_or_else(bad_value)?),
            _ => unreachable!("every FLAGS entry is handled"),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("sqlcheck: {msg} (see 'sqlcheck --help')");
            std::process::exit(2);
        }
    };
    if args.help {
        emit(|out| out.write_all(HELP.as_bytes()));
        return;
    }
    // An explicit thread count (auto included) implies parallel execution.
    let parallel = args.parallel || args.threads.is_some();
    // --dialect pins the front door; leaving it off opts into
    // auto-detection (an explicit choice always suppresses the guess).
    let dialect = args.dialect.unwrap_or(Dialect::Generic);
    let detect_dialect = args.dialect.is_none();

    let input = args.input.as_deref().unwrap_or("-");
    // Files are memory-mapped (Unix): the splitter reads the page cache
    // directly, so multi-GB dumps stream without a userspace copy.
    let sql = if input == "-" {
        match sqlcheck::input::read_stdin() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("sqlcheck: failed to read stdin");
                std::process::exit(2);
            }
        }
    } else {
        match sqlcheck::input::read_script(input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqlcheck: cannot read {input}: {e}");
                std::process::exit(2);
            }
        }
    };

    let mut tool = SqlCheck::new()
        .with_weights(args.weights.unwrap_or(RankWeights::C1))
        .with_inter_query_model(args.inter_model)
        .with_dialect(dialect)
        .with_dialect_detection(detect_dialect);
    if args.intra_only {
        tool = tool.with_detection(DetectionConfig::intra_only());
    }
    if args.cache {
        tool = tool.with_cache(sqlcheck::detect::DEFAULT_CACHE_CAPACITY);
    }
    // --parallel / --threads / --cache route through `check_workload`
    // (identical detections; detection threading and incremental
    // caching); anything else is the plain `check_script` run, which
    // --stats alone only instruments.
    let w = if parallel || args.cache {
        let opts = BatchOptions {
            parallel,
            threads: args.threads.flatten(),
            dialect,
            detect_dialect,
            ..BatchOptions::default()
        };
        tool.check_workload(&sql, &opts)
    } else {
        tool.check_script_with_stats(&sql)
    };
    let (outcome, stats) = (w.outcome, w.stats);

    // --fail-on-degraded: exit 3 when any degradation diagnostic other
    // than the informational delimiter-fallback and dialect-guessed
    // notices was emitted — detection ran, but on reduced-fidelity
    // input. Takes precedence over the findings exit code (1).
    let degraded_exit = args.fail_on_degraded
        && outcome.diagnostics.iter().any(|d| {
            !matches!(
                d.kind,
                DiagKind::DelimiterFallbackSequential | DiagKind::DialectGuessed
            )
        });
    if degraded_exit && args.stats {
        for d in &outcome.diagnostics {
            eprintln!("degraded: {d}");
        }
    }

    let found = !outcome.report.detections.is_empty();
    emit(|out| render(out, &outcome, &args));
    // After the report, so the parse count includes the texts fixes
    // parsed on demand.
    if args.stats {
        print_stats(&stats, &outcome, &args);
    }
    // Exit code signals findings, like familiar linters: degraded input
    // (3, under --fail-on-degraded) takes precedence over findings (1);
    // a clean run exits 0.
    std::process::exit(if degraded_exit {
        3
    } else if found {
        1
    } else {
        0
    })
}

/// Write to stdout through one buffer and flush it (`process::exit`
/// skips destructors). A closed pipe ends the output quietly; any other
/// write error exits 2.
fn emit(write: impl FnOnce(&mut Out) -> io::Result<()>) {
    let mut out = BufWriter::with_capacity(1 << 16, io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("sqlcheck: cannot write the report: {e}");
            std::process::exit(2);
        }
        _ => {}
    }
}

/// The report: a no-findings line, the per-kind summary, or the ranked
/// listing with each finding's fix (fixes are only synthesised when
/// printed).
fn render(out: &mut impl Write, outcome: &CheckOutcome, args: &Args) -> io::Result<()> {
    let report = &outcome.report;
    if report.detections.is_empty() {
        return writeln!(out, "no anti-patterns detected in {} statement(s)", outcome.context.len());
    }
    if args.summary {
        writeln!(out, "{:<30} {:>6}", "anti-pattern", "count")?;
        for (kind, n) in report.by_kind() {
            writeln!(out, "{:<30} {:>6}", kind.name(), n)?;
        }
        return writeln!(out, "{:<30} {:>6}", "total", report.detections.len());
    }
    let fixes = if args.no_fix { &[][..] } else { outcome.fixes() };
    for (i, r) in outcome.ranked().iter().enumerate() {
        let d = &r.detection;
        write!(
            out,
            "{:>3}. [{:.3}] {} ({}) @ {}",
            i + 1,
            r.score,
            d.kind,
            d.kind.category(),
            d.locus
        )?;
        // Per-occurrence source location: duplicate statements each point
        // at their own bytes, not the first occurrence's.
        if let Some(s) = d.span {
            write!(out, " [bytes {s}]")?;
        }
        writeln!(out, "\n     {}", d.message)?;
        match fixes.get(i).map(|f| &f.fix) {
            None => {}
            Some(Fix::Rewrite { fixed, .. }) => writeln!(out, "     fix: {fixed}")?,
            Some(Fix::SchemaChange { statements, impacted_queries }) => {
                for s in statements {
                    writeln!(out, "     fix: {s}")?;
                }
                for (idx, q) in impacted_queries {
                    writeln!(out, "     impacted #{idx}: {q}")?;
                }
            }
            Some(Fix::Textual { advice }) => writeln!(out, "     advice: {advice}")?,
        }
    }
    Ok(())
}

/// `--stats`: front-end and detection instrumentation on stderr.
fn print_stats(s: &BatchStats, outcome: &CheckOutcome, args: &Args) {
    let resolved = outcome.context.dialect;
    eprintln!(
        "stats: dialect {} ({})",
        resolved,
        if args.dialect.is_some() {
            "explicit"
        } else if resolved == Dialect::Generic {
            "default"
        } else {
            "guessed"
        },
    );
    eprintln!(
        "stats: {} statement(s), {} unique template(s), {} unique text(s), \
         {} unique shape(s), {} cache hit(s)",
        s.statements, s.unique_templates, s.unique_texts, s.unique_shapes, s.cache_hits,
    );
    eprintln!(
        "stats: {} parsed text(s) ({} at build)",
        outcome.context.parsed_texts(),
        s.parsed_texts,
    );
    eprintln!(
        "stats: {} front-end thread(s), {} detection thread(s) ({} requested; 0 = auto)",
        s.frontend_threads, s.threads, s.requested_threads,
    );
    eprintln!(
        "stats: front-end fused split {}us ({} chunk(s), {} byte(s) re-scanned), intake {}us, \
         materialize {}us, parse {}us, annotate {}us, context {}us",
        s.split_micros,
        s.split_chunks,
        s.split_rescanned_bytes,
        s.intake_micros,
        s.materialize_micros,
        s.parse_micros,
        s.annotate_micros,
        s.context_micros,
    );
    eprintln!(
        "stats: detect group {}us, intra {}us, fanout {}us, inter {}us, \
         data {}us, dedup {}us, total {}us",
        s.group_micros,
        s.intra_micros,
        s.fanout_micros,
        s.inter_micros,
        s.data_micros,
        s.dedup_micros,
        s.total_micros,
    );
    eprintln!(
        "stats: worker busy max {}us, min {}us across {} worker(s)",
        s.worker_busy_max(),
        s.worker_busy_min(),
        s.worker_busy_micros.len(),
    );
    if args.cache {
        eprintln!(
            "stats: incremental cache {} hit(s), {} miss(es), {} eviction(s) \
             ({} table-granular, {} column-granular)",
            s.incremental_hits,
            s.incremental_misses,
            s.incremental_evictions,
            s.table_evictions,
            s.column_evictions,
        );
        eprintln!(
            "stats: unit memo inter {} reused / {} recomputed, \
             data {} reused / {} recomputed",
            s.inter_units_reused,
            s.inter_units_recomputed,
            s.data_units_reused,
            s.data_units_recomputed,
        );
    }
    eprintln!(
        "stats: parse coverage {:.4} — {} degraded statement(s) across \
         {} degraded unique text(s), {} isolated rule failure(s)",
        s.parse_coverage(),
        s.degraded_statements,
        s.degraded_uniques,
        s.rule_failures,
    );
    let kinds: Vec<String> = DiagKind::ALL
        .iter()
        .filter(|k| s.diag_counts[k.index()] > 0)
        .map(|k| format!("{} {}", k.name(), s.diag_counts[k.index()]))
        .collect();
    if !kinds.is_empty() {
        eprintln!("stats: diagnostics by kind: {}", kinds.join(", "));
    }
}

const HELP: &str = "\
sqlcheck — detect, rank, and fix SQL anti-patterns (SIGMOD 2020 reproduction)

usage: sqlcheck [--intra-only] [--weights c1|c2] [--rank-by score|count]
                [--no-fix] [--summary] [--parallel] [--threads N]
                [--stats] [--cache] [--dialect generic|postgres|mysql|sqlite]
                [--fail-on-degraded] [FILE|-]

Reads SQL from FILE (or stdin with '-'), prints ranked anti-patterns
with suggested fixes. Exits 1 when anti-patterns are found, 2 on a bad
argument or an IO error; with --fail-on-degraded, exits 3 when any
statement parsed degraded or a rule unit was isolated after a panic.
";
