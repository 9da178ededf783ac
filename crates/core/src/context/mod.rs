//! The application context (Algorithm 1's `Context-Builder`).
//!
//! The context combines three ingredients:
//!
//! 1. **query context** — every statement, parsed and annotated;
//! 2. **schema context** — the catalog folded from DDL (or, when a
//!    database is attached, from its live schema);
//! 3. **data context** — per-column profiles sampled from the database,
//!    when one is available.
//!
//! Detection rules receive the whole [`Context`]; contextual rules use it
//! to "resolve cases where the presence or absence of an AP cannot be
//! determined with high precision by only looking at a given query".

pub mod data;
pub mod schema;
pub mod workload;

pub use data::{ColumnProfile, DataAnalysisConfig, DataProfile, TableProfile};
pub use schema::{CheckInfo, ColumnInfo, FkInfo, IndexInfo, SchemaCatalog, SchemaVersions, TableInfo};
pub use workload::{ColumnUsage, JoinEdge, StatementContribution, WorkloadProfile};

use crate::hashutil::Prehashed;
use sqlcheck_minidb::database::Database;
use sqlcheck_parser::annotate::{annotate, Annotations};
use sqlcheck_parser::ast::ParsedStatement;
use sqlcheck_parser::diag::{DiagKind, Diagnostic, Limits};
use sqlcheck_parser::parse;
use sqlcheck_parser::parser::{diagnose_parsed, parse_raw_limited_dialect};
use sqlcheck_parser::fingerprint::fingerprint_of;
use sqlcheck_parser::splitter::{
    materialize_text, split_deduped_dialect, split_stream_parallel_dialect, RawStatement,
};
use sqlcheck_parser::Dialect;
use sqlcheck_parser::token::Span;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One statement with its annotations, as stored in the context.
///
/// The parse tree and annotation digest are held behind [`Arc`]s and are
/// the statement's **shape tree**: the parse-once front-end parses and
/// annotates the first text of each statement *shape* (see
/// [`sqlcheck_parser::fingerprint`]) and shares the result with every
/// later text of that shape whose tree can only differ in numeric-literal
/// and bind-parameter leaves (a plain `SELECT`/`INSERT`/`UPDATE`/`DELETE`
/// that parsed without diagnostics), and with every duplicate occurrence
/// of those texts. No detection rule reads a numeric or parameter value,
/// so detections, rankings and workload profiles are unaffected.
///
/// Token *spans* and leaf values inside the shared tree belong to the
/// text that was parsed. [`AnalyzedStatement::span`] is the
/// per-occurrence side record, so consumers that need the exact source
/// location (reports, fixes) read it from here, never from the tree; and
/// [`AnalyzedStatement::exact`] gives the statement's own tokens, text
/// and literal values — parsed on first use for a text that shares its
/// shape's tree.
#[derive(Debug, Clone)]
pub struct AnalyzedStatement {
    /// The shape tree: the parse of the first text of this statement's
    /// shape (or of its own text, when it does not share). Its tokens,
    /// text and numeric leaves are another text's when
    /// [`AnalyzedStatement::shares_parse`]; use
    /// [`AnalyzedStatement::exact`] for the statement's own.
    pub parsed: Arc<ParsedStatement>,
    /// The annotation digest of `parsed`.
    pub ann: Arc<Annotations>,
    /// Literal-sensitive 128-bit content hash of the token stream
    /// (span-insensitive), precomputed at build time so batch detection
    /// can group duplicate statements in O(1) per statement without
    /// re-walking tokens.
    pub text_hash: u128,
    /// Literal-insensitive template fingerprint
    /// ([`sqlcheck_parser::fingerprint`]), computed by the fused splitter
    /// in the same pass that lexed the statement — batch detection counts
    /// unique templates without re-walking tokens.
    pub template_hash: u64,
    /// Byte range of **this occurrence** in the original script — not
    /// shared across duplicates. Zero-length for statements added via
    /// [`ContextBuilder::add_statements`] without source text.
    pub span: Span,
    /// Degradation diagnostics from parsing this statement's unique text
    /// (shared across duplicate occurrences). `statement` indexes are
    /// unset here; consumers attribute the first occurrence.
    pub diags: Arc<[Diagnostic]>,
    /// For a text that shares its shape's parse: the unique text's own
    /// parse, made on demand and shared by its duplicate occurrences.
    /// `None` when `parsed` is the statement's own parse.
    pub(crate) exact: Option<Arc<ExactCell>>,
}

impl AnalyzedStatement {
    /// The statement's own parse: its exact tokens (spans of the text's
    /// first occurrence, as for any duplicate), its text, and its literal
    /// values. For a statement that owns its parse this is `parsed`/`ann`;
    /// for one that shares its shape's tree the text is materialised,
    /// parsed and annotated on first call — once per unique text, shared
    /// by its duplicates.
    pub fn exact(&self) -> ExactStatement<'_> {
        match &self.exact {
            Some(cell) => {
                let (parsed, ann) = cell.get();
                ExactStatement { parsed, ann }
            }
            None => ExactStatement { parsed: &self.parsed, ann: &self.ann },
        }
    }

    /// Call `f` with the statement's own parse tree without keeping it:
    /// for a text that shares its shape's tree and whose own parse was
    /// not made yet, the text is parsed for this call only (and counted
    /// in [`Context::parsed_texts`]). A one-off reader, such as a fix
    /// rewrite, then holds no tree per unique text.
    pub fn with_own_parse<R>(&self, f: impl FnOnce(&ParsedStatement) -> R) -> R {
        match &self.exact {
            Some(cell) => match cell.cell.get() {
                Some(own) => f(&own.0),
                None => f(&cell.parse()),
            },
            None => f(&self.parsed),
        }
    }

    /// Identity of the parse this statement uses: the content hash of the
    /// text `parsed` was built from — `text_hash` itself unless the
    /// statement shares its shape's tree. Intra-query results are a
    /// function of the parse, so batch detection groups and caches by it.
    pub fn parse_key(&self) -> u128 {
        self.exact.as_ref().map_or(self.text_hash, |cell| cell.parse_key)
    }

    /// Whether `parsed`/`ann` were built from another text of the same
    /// shape (so its tokens, text and numeric leaves are not this
    /// statement's).
    pub fn shares_parse(&self) -> bool {
        self.exact.is_some()
    }

    /// The statement's own source text, without parsing it.
    pub fn text(&self) -> String {
        match &self.exact {
            Some(cell) => cell.source.to_string(),
            None => self.parsed.text(),
        }
    }
}

/// A statement's own parse tree and annotations (see
/// [`AnalyzedStatement::exact`]).
#[derive(Debug, Clone, Copy)]
pub struct ExactStatement<'a> {
    /// The statement's own parse.
    pub parsed: &'a ParsedStatement,
    /// The annotation digest of `parsed`.
    pub ann: &'a Annotations,
}

/// The own parse of a unique text that shares its shape's parse, made on
/// first use.
#[derive(Debug)]
pub(crate) struct ExactCell {
    /// See [`AnalyzedStatement::parse_key`].
    parse_key: u128,
    /// The text's bytes.
    source: Box<str>,
    /// Offset of the text's first occurrence in its script.
    base: usize,
    /// How to parse it, and the lazy-parse counter.
    lazy: Arc<LazyParse>,
    /// Boxed: an unset cell then costs one pointer, not a whole tree.
    cell: OnceLock<Box<(ParsedStatement, Annotations)>>,
}

impl ExactCell {
    pub(crate) fn parse_key(&self) -> u128 {
        self.parse_key
    }

    fn get(&self) -> (&ParsedStatement, &Annotations) {
        let (parsed, ann) = &**self.cell.get_or_init(|| {
            let p = self.parse();
            let ann = annotate(&p.stmt, &p.arena);
            Box::new((p, ann))
        });
        (parsed, ann)
    }

    /// Parse the text, counting the parse.
    fn parse(&self) -> ParsedStatement {
        let lazy = &self.lazy;
        lazy.parses.fetch_add(1, Ordering::Relaxed);
        let raw = materialize_text(&self.source, self.base, lazy.dialect);
        parse_raw_limited_dialect(raw, &lazy.limits, lazy.dialect).0
    }
}

/// The front-end configuration a lazy exact parse repeats, plus the
/// parse counters behind [`Context::parsed_texts`].
#[derive(Debug)]
struct LazyParse {
    limits: Limits,
    dialect: Dialect,
    /// Parses run at build time.
    eager: usize,
    /// Parses run later by [`AnalyzedStatement::exact`].
    parses: AtomicUsize,
}

/// The application context.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// All analysed statements, in script order.
    pub statements: Vec<AnalyzedStatement>,
    /// Schema catalog (from DDL and/or the attached database).
    pub schema: SchemaCatalog,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Data profiles, when a database was attached.
    pub data: Option<DataProfile>,
    /// Script-level degradation diagnostics not tied to one statement
    /// (e.g. [`DiagKind::DelimiterFallbackSequential`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Epoch digest ([`Limits::epoch`]) of the budgets the statements
    /// were parsed under — folded into cache validity keys, because a
    /// budget change can alter the parse of the same statement text.
    pub limits_epoch: u64,
    /// The dialect the statements were lexed, split, and parsed under
    /// (after auto-detection, when enabled). Folded into cache validity
    /// keys: the same script text splits and parses differently under a
    /// different dialect.
    pub dialect: Dialect,
    /// Parse counters (see [`Context::parsed_texts`]).
    parses: Option<Arc<LazyParse>>,
}

impl Context {
    /// Statement count.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// True when no statements were analysed.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Whether data analysis is available.
    pub fn has_data(&self) -> bool {
        self.data.is_some()
    }

    /// Statement texts parsed so far for this context: at build time, and
    /// since by [`AnalyzedStatement::exact`] or
    /// [`AnalyzedStatement::with_own_parse`] for texts that share their
    /// shape's parse.
    pub fn parsed_texts(&self) -> usize {
        self.parses
            .as_ref()
            .map_or(0, |p| p.eager + p.parses.load(Ordering::Relaxed))
    }

    /// Re-profile the database, replacing the cached data context. The
    /// paper's data analyzer "periodically refreshes the context over
    /// time [and] whenever the schema evolves" (§4.2) — profiles are
    /// cached and reused across checks, so a long-lived context must be
    /// refreshed explicitly when the data changes underneath it.
    pub fn refresh_data(&mut self, db: &Database, cfg: &DataAnalysisConfig) {
        for table in db.tables() {
            if self.schema.table(&table.schema.name).is_none() {
                let ddl = synthesize_ddl(table);
                for p in parse(&ddl) {
                    self.schema.apply(&p.stmt);
                }
            }
        }
        self.data = Some(DataProfile::build(db, cfg));
    }
}

/// Instrumentation of one [`ContextBuilder::build_with_stats`] run: where
/// the front-end (split → parse → annotate → context fold) spent its time,
/// and how effective the parse-once dedup was.
#[derive(Debug, Clone, Default)]
pub struct FrontendStats {
    /// Statements in the context (after splitting, duplicates included).
    pub statements: usize,
    /// Unique statement texts (exact bytes).
    pub unique_texts: usize,
    /// Unique statement shapes among them (see
    /// [`sqlcheck_parser::fingerprint`]).
    pub unique_shapes: usize,
    /// Statement texts parsed and annotated by the build — one per
    /// unique shape when dedup is enabled, plus every text whose shape
    /// could not share a parse. [`Context::parsed_texts`] adds later
    /// [`AnalyzedStatement::exact`] parses.
    pub parsed_texts: usize,
    /// Worker threads used for the parse/annotate phases (1 = sequential).
    pub threads: usize,
    /// Wall-clock microseconds in the fused split pass: lexing, statement
    /// splitting, content hashing, template fingerprinting, and dedup
    /// grouping — one streaming pass over the script bytes. Excludes
    /// unique-text materialisation ([`FrontendStats::materialize_micros`]).
    pub split_micros: u128,
    /// Chunks the split ran, one worker thread each, summed over the
    /// added scripts (one per script when it is split sequentially).
    pub split_chunks: usize,
    /// Bytes the split scanned again on the calling thread because a
    /// guessed chunk start was not a statement boundary (see
    /// [`sqlcheck_parser::splitter::DedupedSplit::rescanned_bytes`]).
    pub split_rescanned_bytes: usize,
    /// Wall-clock microseconds spent materialising token streams at
    /// intake for the first text of each shape (re-lexing its span into
    /// owned tokens).
    pub materialize_micros: u128,
    /// Wall-clock microseconds spent in dedup intake bookkeeping:
    /// mapping script-local unique slots onto builder slots and
    /// recording per-occurrence spans. Previously lumped into
    /// `split_micros`, which inflated the apparent split cost of warm
    /// re-checks (the cache short-circuits materialization, but intake
    /// still walks every occurrence).
    pub intake_micros: u128,
    /// Wall-clock microseconds spent grouping texts and parsing unique
    /// statements.
    pub parse_micros: u128,
    /// Wall-clock microseconds spent annotating unique statements.
    pub annotate_micros: u128,
    /// Wall-clock microseconds spent folding schema, workload, and data
    /// context.
    pub context_micros: u128,
}

/// Options for the parse-once front-end.
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Group duplicate statement texts, and texts of one shape, then parse
    /// and annotate each group once, sharing the result via `Arc`.
    /// Detections are identical to the per-statement path.
    pub dedup: bool,
    /// With `dedup`, let a later text of a statement shape share the
    /// first text's parse (see [`AnalyzedStatement`]). Off, every unique
    /// text gets its own parse, so `parsed` is always the statement's own
    /// tree — what a consumer reading literal values or token text from
    /// `parsed` needs. [`crate::SqlCheck`] turns it off while custom rules
    /// are registered.
    pub share_shapes: bool,
    /// Parse/annotate unique texts across scoped worker threads. Ignored
    /// (always sequential) when the `parallel` cargo feature is disabled.
    pub parallel: bool,
    /// Worker-thread count; `None` uses the machine's available
    /// parallelism.
    pub threads: Option<usize>,
    /// Per-statement resource budgets; over-budget statements degrade to
    /// `Other` with an [`DiagKind::OverLimit`] diagnostic.
    pub limits: Limits,
    /// The dialect the whole front door (lexer → splitter → parser)
    /// applies. [`Dialect::Generic`] is the historical tolerant union
    /// and is byte-identical to the pre-dialect behaviour.
    pub dialect: Dialect,
    /// Guess the dialect from the first added script's contents
    /// ([`Dialect::detect`]) when `dialect` is [`Dialect::Generic`]. A
    /// successful guess switches the front door for every script in this
    /// build and emits a [`DiagKind::DialectGuessed`] diagnostic. Off by
    /// default — library callers opt in; the CLI enables it whenever no
    /// explicit `--dialect` is given.
    pub detect_dialect: bool,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            dedup: true,
            share_shapes: true,
            parallel: cfg!(feature = "parallel"),
            threads: None,
            limits: Limits::default(),
            dialect: Dialect::Generic,
            detect_dialect: false,
        }
    }
}

impl FrontendOptions {
    /// The pre-pipeline behaviour: parse and annotate every statement
    /// individually, single-threaded, sharing nothing. Kept as the
    /// benchmark baseline and the byte-identity oracle.
    pub fn legacy() -> Self {
        FrontendOptions { dedup: false, parallel: false, ..FrontendOptions::default() }
    }

    /// Dedup on, threading off — the deterministic single-core pipeline.
    pub fn sequential() -> Self {
        FrontendOptions { parallel: false, ..FrontendOptions::default() }
    }
}

/// One unique statement text during the build: its (to-be-)parsed tree,
/// annotations, content hash, template fingerprint, and occurrence count.
struct UniqueEntry {
    raw: Option<RawStatement>,
    parsed: Option<Arc<ParsedStatement>>,
    ann: Option<Arc<Annotations>>,
    diags: Arc<[Diagnostic]>,
    hash: u128,
    fingerprint: u64,
    count: usize,
    /// Set for a later text of a shape seen before.
    share: Option<Share>,
}

impl UniqueEntry {
    fn new(
        raw: Option<RawStatement>,
        parsed: Option<Arc<ParsedStatement>>,
        hash: u128,
        fingerprint: u64,
    ) -> Self {
        let diags = no_diags();
        UniqueEntry { raw, parsed, ann: None, diags, hash, fingerprint, count: 0, share: None }
    }
}

/// A text that may share the parse of the first text of its shape: that
/// text's slot, and this text's own bytes and first-occurrence offset
/// (to parse it if the first text turns out unshareable, or on demand).
struct Share {
    rep: usize,
    source: Box<str>,
    base: usize,
}

/// Whether a parse can stand for every text of its shape: a plain
/// `SELECT`/`INSERT`/`UPDATE`/`DELETE` (no compound body, whose
/// detections carry statement-relative spans) that parsed without
/// diagnostics (whose degradations could depend on the text's length).
fn shareable(parsed: &ParsedStatement, diags: &[Diagnostic]) -> bool {
    use sqlcheck_parser::ast::Statement;
    diags.is_empty()
        && parsed.stmt.body().is_empty()
        && matches!(
            parsed.stmt,
            Statement::Select(_) | Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        )
}

/// Whether a statement text begins with `SELECT`, `INSERT`, `UPDATE` or
/// `DELETE` — the only statements whose parse [`shareable`] can accept,
/// so the only shapes whose later texts wait for their first text's
/// parse instead of being parsed at once.
fn starts_plain_dml(text: &str) -> bool {
    let word = text.as_bytes().iter().take_while(|b| b.is_ascii_alphabetic()).count();
    ["SELECT", "INSERT", "UPDATE", "DELETE"].iter().any(|k| text[..word].eq_ignore_ascii_case(k))
}

/// Empty shared diagnostic slice (the common, fully-shaped case): one
/// allocation per process, not one per unique text.
fn no_diags() -> Arc<[Diagnostic]> {
    static EMPTY: OnceLock<Arc<[Diagnostic]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(Vec::new())).clone()
}

/// Builder for [`Context`] — the parse-once front-end.
///
/// Scripts enter through the deduping splitter
/// ([`sqlcheck_parser::splitter::split_deduped`]): a boundary pass
/// (chunked across scoped worker threads for large scripts, each chunk
/// deduped and hashed on its own worker) groups duplicate texts, and
/// each unique text is content-hashed, shape-hashed and fingerprinted —
/// before parsing, and without a whole-script token stream. Token
/// vectors exist only for the **first
/// text of each shape**, which is materialised at intake, then parsed
/// and annotated exactly once at build time (optionally across scoped
/// worker threads); the resulting AST/annotations are shared via [`Arc`]
/// with duplicate occurrences and with later texts of the shape (see
/// [`AnalyzedStatement`]), which keep only their own bytes.
#[derive(Default)]
pub struct ContextBuilder {
    /// Unique statement texts, in first-occurrence order.
    uniques: Vec<UniqueEntry>,
    /// Statement order: index into `uniques` per statement.
    order: Vec<usize>,
    /// Per-occurrence source spans, parallel to `order`. Dedup shares the
    /// parse tree across duplicates, but every occurrence keeps its own
    /// span so detections and fixes can point at the exact location.
    spans: Vec<Span>,
    /// Content hash → slot in `uniques` (only used when deduping), for
    /// `uniques[..indexed]`: filled lazily, when a later script or
    /// statement needs the lookup, so a one-script build never pays for
    /// it.
    slot_of: HashMap<u128, usize, Prehashed>,
    indexed: usize,
    /// Shape hash → slot of the first script text of that shape, or
    /// `None` for a shape that never shares: first seen through
    /// [`ContextBuilder::add_statements`], or not plain DML.
    shape_of: HashMap<u128, Option<usize>, Prehashed>,
    database: Option<(Arc<Database>, DataAnalysisConfig)>,
    opts: FrontendOptions,
    split_micros: u128,
    split_chunks: usize,
    split_rescanned_bytes: usize,
    materialize_micros: u128,
    intake_micros: u128,
    /// Whether any added script contained a `DELIMITER` directive
    /// (deterministic across split thread counts — see
    /// [`sqlcheck_parser::splitter::DedupedSplit`]).
    saw_delimiter_directive: bool,
    /// The dialect the front door settled on, fixed by the first
    /// `add_script` call (auto-detection, when enabled, runs exactly
    /// once — on that first script — so every script in the build is
    /// processed under one dialect).
    resolved_dialect: Option<Dialect>,
    /// Pending [`DiagKind::DialectGuessed`] diagnostic, emitted into the
    /// built context when auto-detection fired.
    dialect_diag: Option<Diagnostic>,
}

impl ContextBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one intake statement with its content hash and occurrence
    /// span, deduping when enabled. `make` materialises the payload (and
    /// computes the template fingerprint) only for unique texts; the span
    /// is recorded for *every* occurrence.
    fn intake(
        &mut self,
        hash: u128,
        span: Span,
        make: impl FnOnce() -> (Option<RawStatement>, Option<Arc<ParsedStatement>>, u64),
    ) {
        self.spans.push(span);
        if self.opts.dedup {
            self.index_slots();
            if let Some(&slot) = self.slot_of.get(&hash) {
                self.uniques[slot].count += 1;
                self.order.push(slot);
                return;
            }
        }
        let (raw, parsed, fingerprint) = make();
        self.order.push(self.uniques.len());
        let mut e = UniqueEntry::new(raw, parsed, hash, fingerprint);
        e.count = 1;
        self.uniques.push(e);
    }

    /// Bring `slot_of` up to date with `uniques`.
    fn index_slots(&mut self) {
        for (slot, u) in self.uniques.iter().enumerate().skip(self.indexed) {
            self.slot_of.insert(u.hash, slot);
        }
        self.indexed = self.uniques.len();
    }

    /// Whether a text of `len` bytes stays within the parse budgets
    /// whatever its trivia (a token is at least one byte), so it parses
    /// exactly as the first text of its shape did.
    fn within_budget(&self, len: usize) -> bool {
        len <= self.opts.limits.max_statement_bytes.min(self.opts.limits.max_tokens)
    }

    /// Resolve the dialect for script intake. The first call fixes it:
    /// when auto-detection is enabled and the configured dialect is
    /// [`Dialect::Generic`], the first script's contents may switch the
    /// front door ([`Dialect::detect`]) — recorded as a
    /// [`DiagKind::DialectGuessed`] diagnostic on the built context.
    fn resolve_dialect(&mut self, script: &str) -> Dialect {
        if let Some(d) = self.resolved_dialect {
            return d;
        }
        let mut d = self.opts.dialect;
        if self.opts.detect_dialect && d == Dialect::Generic {
            if let Some(guess) = Dialect::detect(script) {
                d = guess;
                self.dialect_diag = Some(Diagnostic::new(
                    DiagKind::DialectGuessed,
                    format!(
                        "no dialect specified; guessed `{guess}` from script \
                         contents (pass an explicit dialect to suppress)"
                    ),
                ));
            }
        }
        self.resolved_dialect = Some(d);
        d
    }

    /// Decide the chunk-parallel split worker count. The splitter itself
    /// clamps the chunk count so every chunk carries at least ~16 KiB;
    /// the output is the same either way.
    fn split_threads(&self) -> usize {
        if !cfg!(feature = "parallel") || !self.opts.parallel {
            return 1;
        }
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.opts.threads.unwrap_or(hw).max(1)
    }

    /// Add every statement in a SQL script through the fused streaming
    /// front door: one pass (chunk-parallel for large scripts) lexes,
    /// splits, content-hashes, and fingerprints the script, and groups
    /// duplicate texts — before any parsing. Token streams are
    /// materialised only for texts this builder has not seen before;
    /// duplicates cost one map lookup at split time and nothing here.
    pub fn add_script(mut self, script: &str) -> Self {
        let t = Instant::now();
        let dialect = self.resolve_dialect(script);
        let threads = self.split_threads();
        let mut mat_micros = 0u128;
        if self.opts.dedup {
            let deduped = split_deduped_dialect(script, threads, dialect);
            // The fused pass above is the split; everything below is
            // intake bookkeeping, accounted separately so warm re-checks
            // (materialization short-circuited, bookkeeping still O(
            // occurrences)) report honest split numbers.
            self.split_micros += t.elapsed().as_micros();
            let t_intake = Instant::now();
            self.split_chunks += deduped.chunks;
            self.split_rescanned_bytes += deduped.rescanned_bytes;
            self.saw_delimiter_directive |= deduped.saw_delimiter_directive;
            // Map script-local unique slots onto builder slots, taking in
            // only texts no earlier script contributed (the split's
            // uniques are distinct, so only earlier slots need a lookup).
            // Only the first text of each shape is materialised — a later
            // one keeps its bytes and shares that text's parse if it can.
            self.index_slots();
            self.uniques.reserve(deduped.uniques.len());
            self.order.reserve(deduped.occurrences.len());
            self.spans.reserve(deduped.occurrences.len());
            let mut slot_map: Vec<usize> = Vec::with_capacity(deduped.uniques.len());
            for u in &deduped.uniques {
                let slot = match self.slot_of.get(&u.content_hash) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.uniques.len();
                        let text = &script[u.span.start..u.span.end];
                        let rep = match self.shape_of.get(&u.shape_hash) {
                            Some(&rep) => rep.filter(|_| self.within_budget(text.len())),
                            None => {
                                let rep = (self.opts.share_shapes && starts_plain_dml(text))
                                    .then_some(slot);
                                self.shape_of.insert(u.shape_hash, rep);
                                None
                            }
                        };
                        let mut e = UniqueEntry::new(None, None, u.content_hash, u.fingerprint);
                        match rep {
                            Some(rep) => {
                                e.share =
                                    Some(Share { rep, source: text.into(), base: u.span.start })
                            }
                            None => {
                                let tm = Instant::now();
                                e.raw = Some(u.materialize_dialect(script, dialect));
                                mat_micros += tm.elapsed().as_micros();
                            }
                        }
                        self.uniques.push(e);
                        slot
                    }
                };
                slot_map.push(slot);
            }
            for (local, span) in deduped.occurrences {
                let slot = slot_map[local as usize];
                self.uniques[slot].count += 1;
                self.order.push(slot);
                self.spans.push(span);
            }
            self.intake_micros +=
                t_intake.elapsed().as_micros().saturating_sub(mat_micros);
            self.materialize_micros += mat_micros;
            return self;
        } else {
            // Legacy mode: every occurrence keeps its own entry (and is
            // parsed individually later).
            for s in split_stream_parallel_dialect(script, threads, dialect) {
                let tm = Instant::now();
                let raw = s.materialize_dialect(script, dialect);
                mat_micros += tm.elapsed().as_micros();
                self.shape_of.entry(s.shape_hash).or_insert(None);
                self.order.push(self.uniques.len());
                self.spans.push(s.span);
                let mut e = UniqueEntry::new(Some(raw), None, s.content_hash, s.fingerprint);
                e.count = 1;
                self.uniques.push(e);
            }
        }
        self.materialize_micros += mat_micros;
        self.split_micros += t.elapsed().as_micros().saturating_sub(mat_micros);
        self
    }

    /// Add pre-parsed statements (deduplicated against script statements
    /// by content hash, like everything else).
    pub fn add_statements(mut self, stmts: impl IntoIterator<Item = ParsedStatement>) -> Self {
        for p in stmts {
            let span = p
                .tokens
                .iter()
                .map(|t| t.span)
                .reduce(|a, b| a.merge(b))
                .unwrap_or(Span::new(0, 0));
            self.shape_of.entry(p.shape_hash()).or_insert(None);
            self.intake(p.content_hash(), span, || {
                let fingerprint = fingerprint_of(&p.tokens);
                (None, Some(Arc::new(p)), fingerprint)
            });
        }
        self
    }

    /// Attach a database for data analysis (the optional input of Fig 4).
    pub fn with_database(self, db: Database, cfg: DataAnalysisConfig) -> Self {
        self.with_shared_database(Arc::new(db), cfg)
    }

    /// Attach a shared database handle. Profiling only reads the
    /// database, so a caller that re-checks workloads repeatedly (e.g.
    /// [`crate::SqlCheck`] with an incremental cache) can hand the same
    /// `Arc` to every build instead of deep-cloning tables per check.
    pub fn with_shared_database(mut self, db: Arc<Database>, cfg: DataAnalysisConfig) -> Self {
        self.database = Some((db, cfg));
        self
    }

    /// Configure the front-end (dedup / threading). The default parses
    /// each statement shape once, threaded when the `parallel` feature is
    /// on.
    ///
    /// Must be called before any statements are added: dedup happens at
    /// intake.
    pub fn with_frontend(mut self, opts: FrontendOptions) -> Self {
        assert!(
            self.order.is_empty(),
            "with_frontend must be called before add_script/add_statements"
        );
        self.opts = opts;
        self
    }

    /// Build the context: annotate queries, fold the schema, profile the
    /// workload, and (when a database is attached) profile the data.
    pub fn build(self) -> Context {
        self.build_with_stats().0
    }

    /// Like [`ContextBuilder::build`], also returning per-phase front-end
    /// instrumentation.
    pub fn build_with_stats(self) -> (Context, FrontendStats) {
        let mut uniques = self.uniques;
        let mut stats = FrontendStats {
            statements: self.order.len(),
            unique_texts: uniques.len(),
            unique_shapes: self.shape_of.len(),
            split_micros: self.split_micros,
            split_chunks: self.split_chunks,
            split_rescanned_bytes: self.split_rescanned_bytes,
            materialize_micros: self.materialize_micros,
            intake_micros: self.intake_micros,
            threads: 1,
            ..FrontendStats::default()
        };

        // Parse phase: each text holding a token stream exactly once, in
        // parallel when allowed. Workers own disjoint contiguous chunks
        // and write into their own slots, so the result is deterministic
        // regardless of scheduling.
        let t_parse = Instant::now();
        let threads = plan_threads(&self.opts, uniques.len());
        stats.threads = threads;
        let limits = self.opts.limits;
        let dialect = self.resolved_dialect.unwrap_or(self.opts.dialect);
        let parse_entry = |e: &mut UniqueEntry| {
            if let Some(raw) = e.raw.take() {
                let (p, diags) = parse_raw_limited_dialect(raw, &limits, dialect);
                e.parsed = Some(Arc::new(p));
                if !diags.is_empty() {
                    e.diags = diags.into();
                }
            } else if let Some(p) = &e.parsed {
                // Pre-parsed intake (add_statements): re-derive the
                // statement-level diagnostics from the existing tree.
                let diags = diagnose_parsed(p);
                if !diags.is_empty() {
                    e.diags = diags.into();
                }
            }
        };
        let mut parsed_texts = uniques.iter().filter(|e| e.raw.is_some()).count();
        for_each_entry(&mut uniques, threads, parse_entry);
        // A text whose shape's first text cannot stand for it after all
        // (it parsed with diagnostics, or not as plain DML) gets its own
        // parse, on the same workers.
        let unshared: Vec<bool> = uniques
            .iter()
            .map(|e| {
                e.share.as_ref().is_some_and(|sh| {
                    let rep = &uniques[sh.rep];
                    !rep.parsed.as_deref().is_some_and(|p| shareable(p, &rep.diags))
                })
            })
            .collect();
        let mut own: Vec<&mut UniqueEntry> =
            uniques.iter_mut().zip(&unshared).filter(|(_, &u)| u).map(|(e, _)| e).collect();
        parsed_texts += own.len();
        let own_threads = plan_threads(&self.opts, own.len());
        for_each_entry(&mut own, own_threads, |e| {
            let sh = e.share.take().expect("selected above");
            e.raw = Some(materialize_text(&sh.source, sh.base, dialect));
            parse_entry(e);
        });
        stats.parse_micros = t_parse.elapsed().as_micros();

        // Phase 3: annotate each parse tree exactly once.
        let t_ann = Instant::now();
        for_each_entry(&mut uniques, threads, |e| {
            if let Some(parsed) = &e.parsed {
                e.ann = Some(Arc::new(annotate(&parsed.stmt, &parsed.arena)));
            }
        });
        stats.annotate_micros = t_ann.elapsed().as_micros();
        stats.parsed_texts = parsed_texts;

        // Phase 4: assemble statements in script order (duplicates and
        // texts of a shared shape hold the parsing text's Arcs) and fold
        // the context.
        let t_ctx = Instant::now();
        let lazy = Arc::new(LazyParse {
            limits,
            dialect,
            eager: parsed_texts,
            parses: AtomicUsize::new(0),
        });
        // Per unique text: the slot whose parse it uses, and (for a text
        // sharing another's parse) its exact cell. Every occurrence weight
        // folds into the parsing slot.
        let mut parse_slot: Vec<usize> = Vec::with_capacity(uniques.len());
        let mut weight: Vec<usize> = vec![0; uniques.len()];
        let mut cells: Vec<Option<Arc<ExactCell>>> = Vec::with_capacity(uniques.len());
        for i in 0..uniques.len() {
            let (slot, cell) = match uniques[i].share.take() {
                Some(sh) => {
                    let cell = ExactCell {
                        parse_key: uniques[sh.rep].hash,
                        source: sh.source,
                        base: sh.base,
                        lazy: lazy.clone(),
                        cell: OnceLock::new(),
                    };
                    (sh.rep, Some(Arc::new(cell)))
                }
                None => (i, None),
            };
            weight[slot] += uniques[i].count;
            parse_slot.push(slot);
            cells.push(cell);
        }
        let analyzed: Vec<AnalyzedStatement> = self
            .order
            .iter()
            .zip(&self.spans)
            .map(|(&slot, &span)| {
                let u = &uniques[slot];
                let p = &uniques[parse_slot[slot]];
                AnalyzedStatement {
                    parsed: p.parsed.clone().expect("parsed in phase 2"),
                    ann: p.ann.clone().expect("annotated in phase 3"),
                    text_hash: u.hash,
                    template_hash: u.fingerprint,
                    span,
                    diags: u.diags.clone(),
                    exact: cells[slot].clone(),
                }
            })
            .collect();

        let mut schema =
            SchemaCatalog::from_statements(analyzed.iter().map(|a| &a.parsed.stmt));

        // When a database is attached, its live schema augments the DDL-
        // derived catalog (tables created outside the script become
        // visible to the rules).
        let data = self.database.map(|(db, cfg)| {
            for table in db.tables() {
                if schema.table(&table.schema.name).is_none() {
                    let ddl = synthesize_ddl(table);
                    for p in parse(&ddl) {
                        schema.apply(&p.stmt);
                    }
                }
            }
            DataProfile::build(&db, &cfg)
        });

        // Profile once per parse, weighted by the occurrences of every
        // text that uses it — every profile counter is additive over
        // statements, and a parse is first used by its own text, so this
        // is identical to folding each statement individually.
        let workload = WorkloadProfile::build_weighted(
            uniques.iter().zip(&weight).filter(|(_, &n)| n > 0).map(|(u, &n)| {
                (
                    &u.parsed.as_ref().expect("parsed").stmt,
                    u.ann.as_ref().expect("annotated").as_ref(),
                    n,
                )
            }),
            &schema,
        );
        stats.context_micros = t_ctx.elapsed().as_micros();

        let mut diagnostics = Vec::new();
        if let Some(d) = self.dialect_diag {
            diagnostics.push(d);
        }
        if self.saw_delimiter_directive {
            diagnostics.push(Diagnostic::new(
                DiagKind::DelimiterFallbackSequential,
                "script contains a DELIMITER directive; the splitter used \
                 the tracked (sequential-equivalent) pass",
            ));
        }

        (
            Context {
                statements: analyzed,
                schema,
                workload,
                data,
                diagnostics,
                limits_epoch: limits.epoch(),
                dialect,
                parses: Some(lazy),
            },
            stats,
        )
    }
}

/// Decide the front-end worker count for this build.
fn plan_threads(opts: &FrontendOptions, uniques: usize) -> usize {
    if !cfg!(feature = "parallel") || !opts.parallel || uniques < 2 {
        return 1;
    }
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    opts.threads.unwrap_or(hw).clamp(1, uniques)
}

/// Apply `f` to every entry, across `threads` scoped workers over
/// contiguous chunks (deterministic: each worker writes only its own
/// slots).
#[cfg(feature = "parallel")]
fn for_each_entry<T: Send, F>(entries: &mut [T], threads: usize, f: F)
where
    F: Fn(&mut T) + Sync,
{
    if threads <= 1 || entries.len() < 2 {
        entries.iter_mut().for_each(f);
        return;
    }
    let chunk = entries.len().div_ceil(threads);
    std::thread::scope(|s| {
        let f = &f;
        for part in entries.chunks_mut(chunk) {
            s.spawn(move || part.iter_mut().for_each(f));
        }
    });
}

/// Sequential stand-in when the `parallel` feature is disabled
/// (`plan_threads` never returns > 1 in that configuration).
#[cfg(not(feature = "parallel"))]
fn for_each_entry<T: Send, F>(entries: &mut [T], _threads: usize, f: F)
where
    F: Fn(&mut T) + Sync,
{
    entries.iter_mut().for_each(f);
}

/// Render a minidb table schema as `CREATE TABLE` DDL so the generic
/// catalog code can ingest it.
pub(crate) fn synthesize_ddl(table: &sqlcheck_minidb::table::Table) -> String {
    use sqlcheck_minidb::value::DataType as DT;
    let mut cols: Vec<String> = table
        .schema
        .columns
        .iter()
        .map(|c| {
            let ty = match c.dtype {
                DT::Int => "INTEGER",
                DT::Float => "FLOAT",
                DT::Text => "TEXT",
                DT::Bool => "BOOLEAN",
                DT::Timestamp => {
                    if c.with_timezone {
                        "TIMESTAMPTZ"
                    } else {
                        "TIMESTAMP"
                    }
                }
            };
            let nn = if c.not_null { " NOT NULL" } else { "" };
            format!("{} {}{}", c.name, ty, nn)
        })
        .collect();
    if !table.schema.primary_key.is_empty() {
        cols.push(format!("PRIMARY KEY ({})", table.schema.primary_key.join(", ")));
    }
    for fk in &table.schema.foreign_keys {
        cols.push(format!(
            "FOREIGN KEY ({}) REFERENCES {} ({})",
            fk.columns.join(", "),
            fk.ref_table,
            fk.ref_columns.join(", ")
        ));
    }
    format!("CREATE TABLE {} ({})", table.schema.name, cols.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcheck_minidb::prelude::*;

    #[test]
    fn builds_query_and_schema_context() {
        let ctx = ContextBuilder::new()
            .add_script(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);\
                 SELECT * FROM t WHERE a = 1;",
            )
            .build();
        assert_eq!(ctx.len(), 2);
        assert!(ctx.schema.table("t").is_some());
        assert_eq!(ctx.workload.usage("t", "a").unwrap().eq_predicates, 1);
        assert!(!ctx.has_data());
    }

    #[test]
    fn database_schema_merged_into_catalog() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("Users")
                .column(sqlcheck_minidb::schema::Column::new("User_ID", DataType::Text).not_null())
                .column(sqlcheck_minidb::schema::Column::new("Name", DataType::Text))
                .primary_key(&["User_ID"]),
        )
        .unwrap();
        db.insert("Users", vec![Value::text("U1"), Value::text("N")]).unwrap();

        let ctx = ContextBuilder::new()
            .add_script("SELECT * FROM Users WHERE Name = 'N'")
            .with_database(db, DataAnalysisConfig::default())
            .build();
        let t = ctx.schema.table("users").expect("table from db visible in catalog");
        assert!(t.has_primary_key());
        assert!(ctx.has_data());
        assert_eq!(ctx.data.as_ref().unwrap().table("users").unwrap().row_count, 1);
    }

    #[test]
    fn empty_context() {
        let ctx = ContextBuilder::new().build();
        assert!(ctx.is_empty());
        assert_eq!(ctx.schema.table_count(), 0);
    }

    #[test]
    fn refresh_data_tracks_schema_and_data_evolution() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("a")
                .column(sqlcheck_minidb::schema::Column::new("x", DataType::Int).not_null())
                .primary_key(&["x"]),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(1)]).unwrap();
        let cfg = DataAnalysisConfig::default();
        let mut ctx = ContextBuilder::new().with_database(db.clone(), cfg.clone()).build();
        assert_eq!(ctx.data.as_ref().unwrap().table("a").unwrap().row_count, 1);

        // The database evolves: a new table appears, rows accrete.
        db.create_table(
            TableSchema::new("b")
                .column(sqlcheck_minidb::schema::Column::new("y", DataType::Int).not_null())
                .primary_key(&["y"]),
        )
        .unwrap();
        db.insert("a", vec![Value::Int(2)]).unwrap();
        // Stale until refreshed.
        assert!(ctx.data.as_ref().unwrap().table("b").is_none());
        ctx.refresh_data(&db, &cfg);
        assert_eq!(ctx.data.as_ref().unwrap().table("a").unwrap().row_count, 2);
        assert!(ctx.data.as_ref().unwrap().table("b").is_some());
        assert!(ctx.schema.table("b").is_some(), "schema catalog follows");
    }
}
