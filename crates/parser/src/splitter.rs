//! Statement splitter — the fused front door of the analysis pipeline.
//!
//! Splits a SQL script into individual statements on top of the token
//! stream, so that semicolons inside string literals, comments,
//! dollar-quoted bodies, or `BEGIN…END` compound-statement bodies
//! (trigger/procedure/function DDL — see the `block` tracker module for
//! the state machine) never split a statement. MySQL dump `DELIMITER` directives are honoured as
//! script-level directives: the directive line belongs to no statement
//! and switches the active terminator.
//!
//! The production path is **streaming and fused**: [`split_stream`] runs
//! the lexer once and feeds every token straight into per-statement
//! state — span bounds, the 128-bit content hash, and the template
//! fingerprint are all computed *as the bytes are lexed*. No whole-script
//! token buffer is ever built and no token is walked twice; per-statement
//! token vectors exist only for the **unique** texts a consumer actually
//! [materialises](SplitStatement::materialize) for parsing
//! ([`split_deduped`] performs that grouping here, in the splitter).
//!
//! [`split_deduped`] (and [`split_stream_parallel`], its per-occurrence
//! view) runs on every core through one chunked splitter, with no pre-scan:
//!
//! - **Speculative starts.** Worker `i` starts just past the first `;`
//!   byte at or after `i · len / threads`, found by a byte search. The
//!   guess may land inside a string, a comment, a dollar quote, a
//!   `BEGIN…END` body or a `DELIMITER` region.
//! - **Per-chunk state.** Each worker splits, dedups and shape- and
//!   fingerprint-hashes its own chunk with its own text map,
//!   `UniqueHasher` and interner, and records its *clean points*: the
//!   ends of `;` terminators after which the block tracker is fresh.
//!   Untracked until a word that could make block tracking matter, it
//!   then re-lexes only the current statement, tracked.
//! - **Resync law.** A chunk's output is trusted from the first clean
//!   point it shares with the true scan. The left neighbour scans past
//!   its nominal end to its first clean point at or after the next start;
//!   if that is a clean point of the next chunk too, both scans are in
//!   the same state there, so the next chunk's output from there on is
//!   the true one. Otherwise the calling thread continues the true scan
//!   until it reaches a clean point some chunk shares, or the end. Any
//!   set of starts therefore gives the sequential output.
//! - **One merge.** The caller walks the kept occurrences in order,
//!   probing the text maps of the chunks merged before; a unique's span
//!   is the span of its first kept occurrence.
//!
//! The original two-pass splitter ([`split_spanned`]) is kept as the
//! readable reference implementation; property tests pin the fused path
//! to it.

use crate::block::{BlockTracker, SplitAction};
use crate::dialect::Dialect;
use crate::fingerprint::{
    content_hash_bytes, content_hash_spanned, fingerprint_spanned, shape_hash_spanned,
    FoldHasher, ShapeHasher, StreamingFingerprint,
};
use crate::intern::Interner;
use crate::lexer::{lex_from, lex_into, lex_spans_dialect, SpannedToken, TokenSink};
use crate::token::{Span, Token, TokenKind};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One raw statement: its tokens (trivia included), overall span, and
/// source text.
#[derive(Debug, Clone)]
pub struct RawStatement {
    /// All tokens of the statement, excluding the terminating semicolon.
    pub tokens: Vec<Token>,
    /// Span covering the statement in the original script.
    pub span: Span,
    /// The statement's source text, sliced from the original script at
    /// materialisation time (trivia is kept inside statements, so the
    /// span is one contiguous slice).
    pub source: Box<str>,
}

impl RawStatement {
    /// The statement's source text — the script slice covered by
    /// [`RawStatement::span`], captured at materialisation (not rebuilt
    /// by concatenating per-token strings).
    pub fn text(&self) -> &str {
        &self.source
    }

    /// Significant (non-trivia) tokens.
    pub fn significant(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_trivia()).collect()
    }

    /// True if the statement has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.iter().all(|t| t.is_trivia())
    }
}

/// Split a script into statements. Empty statements (runs of trivia between
/// semicolons) are dropped.
///
/// ```
/// use sqlcheck_parser::splitter::split;
/// let stmts = split("SELECT 1; SELECT ';'; -- done");
/// assert_eq!(stmts.len(), 2);
/// assert_eq!(stmts[1].text().trim(), "SELECT ';'");
/// ```
pub fn split(script: &str) -> Vec<RawStatement> {
    split_dialect(script, Dialect::Generic)
}

/// [`split`] under an explicit [`Dialect`].
pub fn split_dialect(script: &str, dialect: Dialect) -> Vec<RawStatement> {
    split_stream_dialect(script, dialect)
        .into_iter()
        .map(|s| s.materialize_dialect(script, dialect))
        .collect()
}

/// One split-off statement chunk with its fingerprints computed **before
/// any parsing happens**. This is the front door of the parse-once
/// pipeline: chunks are independently parseable (each carries its own
/// token stream), and the two hashes let a consumer group duplicate
/// statement texts and parse each unique text exactly once.
#[derive(Debug, Clone)]
pub struct FingerprintedStatement {
    /// The raw statement chunk (tokens + span).
    pub raw: RawStatement,
    /// Literal-insensitive template fingerprint
    /// ([`crate::fingerprint::fingerprint_of`]).
    pub fingerprint: u64,
    /// Literal-sensitive, span-insensitive 128-bit content hash
    /// ([`crate::fingerprint::content_hash_of`]). Equal hashes identify
    /// statements whose parse trees and annotations are interchangeable.
    pub content_hash: u128,
}

/// Split a script and fingerprint every chunk, without parsing anything.
///
/// ```
/// use sqlcheck_parser::splitter::split_fingerprinted;
/// let chunks = split_fingerprinted("SELECT 1; SELECT 1 ; SELECT 2;");
/// assert_eq!(chunks.len(), 3);
/// // Same text → same content hash; different literal → different hash
/// // but (literals fold) the same template fingerprint.
/// assert_eq!(chunks[0].content_hash, chunks[1].content_hash);
/// assert_ne!(chunks[0].content_hash, chunks[2].content_hash);
/// assert_eq!(chunks[0].fingerprint, chunks[2].fingerprint);
/// ```
pub fn split_fingerprinted(script: &str) -> Vec<FingerprintedStatement> {
    split_stream(script)
        .into_iter()
        .map(|s| FingerprintedStatement {
            fingerprint: s.fingerprint,
            content_hash: s.content_hash,
            raw: s.materialize(script),
        })
        .collect()
}

/// One statement as emitted by the fused streaming splitter: its span and
/// its three hashes, computed in the same pass that lexed the bytes — **no
/// tokens**. Token vectors are built only when a consumer
/// [materialises](SplitStatement::materialize) a unique text for parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitStatement {
    /// Span covering the statement (leading/trailing trivia trimmed) in
    /// the original script.
    pub span: Span,
    /// Literal-sensitive 128-bit content hash
    /// ([`crate::fingerprint::content_hash_of`] of the statement's
    /// trimmed token stream).
    pub content_hash: u128,
    /// Literal-insensitive template fingerprint
    /// ([`crate::fingerprint::fingerprint_of`] of the same stream).
    pub fingerprint: u64,
    /// Numeric-literal-blind shape hash
    /// ([`crate::fingerprint::shape_hash_of`] of the same stream): equal
    /// for statements whose parse trees differ only in numeric-literal
    /// and bind-parameter values.
    pub shape_hash: u128,
}

impl SplitStatement {
    /// Build the statement's owned token stream by re-lexing its span
    /// (the span starts at a token boundary, so the re-lex reproduces the
    /// original tokens exactly; spans stay script-absolute).
    pub fn materialize(&self, script: &str) -> RawStatement {
        materialize_span(script, self.span)
    }

    /// [`SplitStatement::materialize`] under an explicit [`Dialect`] —
    /// must match the dialect the statement was split under, so the
    /// re-lex reproduces the original tokens.
    pub fn materialize_dialect(&self, script: &str, dialect: Dialect) -> RawStatement {
        materialize_span_dialect(script, self.span, dialect)
    }
}

/// Materialise the statement covering `span` of `script`: re-lex the
/// slice into owned tokens (script-absolute spans) and capture the source
/// text. `span` must be a statement span produced by this module's
/// splitters — it begins and ends on significant-token boundaries.
pub fn materialize_span(script: &str, span: Span) -> RawStatement {
    materialize_span_dialect(script, span, Dialect::Generic)
}

/// [`materialize_span`] under an explicit [`Dialect`].
pub fn materialize_span_dialect(script: &str, span: Span, dialect: Dialect) -> RawStatement {
    materialize_text(&script[span.start..span.end], span.start, dialect)
}

/// Materialise a statement from its own text: `text` is a statement's
/// source slice that began at byte `base` of its script. Identical to
/// [`materialize_span_dialect`] over the original script (token spans are
/// rebased to `base`), for callers that kept the statement's bytes but
/// not the script.
pub fn materialize_text(text: &str, base: usize, dialect: Dialect) -> RawStatement {
    let mut sink = MaterializeSink { src: text, base, out: Vec::new() };
    lex_into(text, dialect, &mut sink);
    RawStatement { tokens: sink.out, span: Span::new(base, base + text.len()), source: text.into() }
}

/// Sink building owned tokens with spans rebased to the original script.
struct MaterializeSink<'a> {
    src: &'a str,
    base: usize,
    out: Vec<Token>,
}

impl TokenSink for MaterializeSink<'_> {
    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.out.push(Token::new(
            kind,
            &self.src[start..end],
            Span::new(self.base + start, self.base + end),
        ));
    }
}

/// Pass-through hasher for keys that are already uniform hashes (the
/// memo maps below key by the 128-bit shape hash).
#[derive(Default)]
struct HashIdentity(u64);

impl Hasher for HashIdentity {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Called once with the u128 key's native bytes; the low half is
        // already a full-avalanche Murmur lane.
        let mut b = [0u8; 8];
        let n = bytes.len().min(8);
        b[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_le_bytes(b);
    }
    fn write_u128(&mut self, i: u128) {
        self.0 = i as u64;
    }
}

/// Eager single-statement fingerprint sink: classifies, folds, and
/// hashes in one lex pass over a statement slice. This is where the
/// fingerprint work actually happens — once per **unique** statement
/// text (the fused splitter's memo-miss path and the dedup intake's
/// per-unique pass both land here). Word tokens resolve through the
/// per-script [`Interner`]: the keyword decision is one hash-and-probe,
/// and the fingerprint commits the symbol's stored prefolded bytes, so
/// classification and case folding run once per unique *word*. With a
/// `shape` hasher attached, the same pass also computes the shape.
struct FingerprintSink<'a, 'i> {
    src: &'a str,
    interner: &'i mut Interner,
    fp: StreamingFingerprint,
    shape: Option<&'i mut ShapeHasher>,
}

impl TokenSink for FingerprintSink<'_, '_> {
    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if !matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            let text = &self.src[start..end];
            self.fp.push(kind, text);
            if let Some(shape) = &mut self.shape {
                shape.push(kind, text);
            }
        }
    }

    #[inline]
    fn word(&mut self, text: &str, _start: usize, _end: usize) {
        let sym = self.interner.intern(text);
        self.fp.push_folded_word(self.interner.folded(sym).as_bytes());
        if let Some(shape) = &mut self.shape {
            shape.push(TokenKind::Ident, text);
        }
    }
}

/// Template fingerprint of one statement slice (a trimmed statement span:
/// starts and ends on significant tokens). Identical to
/// [`fingerprint_spanned`] over the statement's tokens: any `;` inside
/// the slice (compound bodies, custom-delimiter content) is ordinary
/// statement content to the fingerprint's own trailing-semicolon fold.
fn fingerprint_slice(slice: &str, interner: &mut Interner, dialect: Dialect) -> u64 {
    let mut sink =
        FingerprintSink { src: slice, interner, fp: StreamingFingerprint::new(), shape: None };
    lex_into(slice, dialect, &mut sink);
    sink.fp.finish()
}

/// Shape-hash sink: one unclassified lex pass over a statement slice,
/// hashing its significant tokens into the shape.
struct ShapeSink<'a, 's> {
    src: &'a str,
    shape: &'s mut ShapeHasher,
}

impl TokenSink for ShapeSink<'_, '_> {
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.shape.push(kind, &self.src[start..end]);
    }
}

/// Shape hash of one statement slice (a trimmed statement span), reusing
/// `shape`'s buffer.
fn shape_slice(slice: &str, shape: &mut ShapeHasher, dialect: Dialect) -> u128 {
    let mut sink = ShapeSink { src: slice, shape };
    lex_into(slice, dialect, &mut sink);
    sink.shape.finish()
}

/// `shape_hash → fingerprint`: the template fingerprint is a function of
/// the shape (numeric and parameter values fold to `?` either way), so a
/// statement whose shape was seen before skips the classified lex.
type ShapeMemo = HashMap<u128, u64, BuildHasherDefault<HashIdentity>>;

/// Unique texts [`split_deduped`] hashes in one classified pass before it
/// may switch to shape-first hashing.
const SHAPE_FIRST_AFTER: u32 = 64;

/// Shape and fingerprint of each unique text of one [`split_deduped`]
/// call. Both are lexing passes over the text, and which is cheaper
/// depends on the workload: while most shapes are new, one classified
/// pass computes both; once at least half the texts repeat an earlier
/// shape (a query log of a few templates), an unclassified pass computes
/// the shape and the fingerprint comes from the memo. The result is the
/// same either way.
struct UniqueHasher {
    interner: Interner,
    shape: ShapeHasher,
    memo: ShapeMemo,
    texts: u32,
    repeats: u32,
    dialect: Dialect,
}

impl UniqueHasher {
    fn new(dialect: Dialect) -> Self {
        UniqueHasher {
            interner: Interner::new(),
            shape: ShapeHasher::new(),
            memo: ShapeMemo::default(),
            texts: 0,
            repeats: 0,
            dialect,
        }
    }

    /// `(shape_hash, fingerprint)` of one statement slice.
    fn hash(&mut self, slice: &str) -> (u128, u64) {
        self.texts += 1;
        if self.texts > SHAPE_FIRST_AFTER && self.repeats * 2 >= self.texts {
            let shape = shape_slice(slice, &mut self.shape, self.dialect);
            if let Some(&fp) = self.memo.get(&shape) {
                self.repeats += 1;
                return (shape, fp);
            }
            let fp = fingerprint_slice(slice, &mut self.interner, self.dialect);
            self.memo.insert(shape, fp);
            return (shape, fp);
        }
        let mut sink = FingerprintSink {
            src: slice,
            interner: &mut self.interner,
            fp: StreamingFingerprint::new(),
            shape: Some(&mut self.shape),
        };
        lex_into(slice, self.dialect, &mut sink);
        let fp = sink.fp.finish();
        let shape = self.shape.finish();
        if self.memo.insert(shape, fp).is_some() {
            self.repeats += 1;
        }
        (shape, fp)
    }
}

/// Probes after which the split sink's memo must have earned its keep:
/// if fewer than 1 in 2^[`MEMO_MIN_HIT_SHIFT`] statements repeated an
/// earlier text, the workload is duplicate-poor and the memo is dropped
/// (misses keep re-hashing; output is unchanged either way).
const MEMO_PROBATION: u32 = 4096;
/// `hits << MEMO_MIN_HIT_SHIFT >= probes` keeps the memo alive.
const MEMO_MIN_HIT_SHIFT: u32 = 3;

/// The fused streaming splitter state: receives the lexer's token stream
/// and tracks the current statement's span bounds; the content hash,
/// shape hash and template fingerprint are computed at statement flush
/// from the span's slice.
///
/// Shape and fingerprint are **memoized by content hash**: real workloads
/// re-issue the same statement texts constantly, equal bytes have equal
/// shapes and templates, and the content hash — computed from the span
/// slice at flush either way — already identifies equal bytes (the
/// 128-bit hash is the pipeline's interchangeability identity, see
/// [`crate::fingerprint`]). Each unique text is hashed exactly once per
/// pass by a [`UniqueHasher`] (which itself fingerprints each unique
/// shape once); repeats cost one map probe. Keyword classification is
/// therefore skipped entirely in the streaming pass (`CLASSIFY_WORDS =
/// false`) — the per token hot path is pure boundary tracking, and runs
/// at the lexer's unclassified speed. A short probation window drops the
/// memo on duplicate-poor workloads so they never pay for a table they
/// cannot hit.
struct SplitSink<'a> {
    script: &'a str,
    bytes: &'a [u8],
    out: Vec<SplitStatement>,
    /// A statement is open (at least one significant token seen).
    started: bool,
    /// Absolute span bounds of the open statement.
    start: usize,
    end: usize,
    /// Shape and fingerprint of each unique text this sink hashes.
    hasher: UniqueHasher,
    /// `content_hash → (shape_hash, fingerprint)` for statements flushed
    /// by this sink.
    memo: HashMap<u128, (u128, u64), BuildHasherDefault<HashIdentity>>,
    /// Memo hit statistics for the probation check.
    probes: u32,
    hits: u32,
    /// Cleared when probation finds the workload duplicate-poor.
    memo_on: bool,
    /// Statement-boundary state machine.
    tracker: BlockTracker,
}

impl<'a> SplitSink<'a> {
    fn new(script: &'a str, dialect: Dialect) -> Self {
        SplitSink {
            script,
            bytes: script.as_bytes(),
            out: Vec::new(),
            started: false,
            start: 0,
            end: 0,
            hasher: UniqueHasher::new(dialect),
            memo: HashMap::default(),
            probes: 0,
            hits: 0,
            memo_on: true,
            tracker: BlockTracker::with_dialect(dialect),
        }
    }

    /// Close the open statement, if any (called at `;` and end-of-input).
    fn flush(&mut self) {
        if !self.started {
            return;
        }
        self.started = false;
        let slice = &self.script[self.start..self.end];
        let content_hash = content_hash_bytes(slice.as_bytes());
        let (shape_hash, fingerprint) = if self.memo_on {
            self.probes += 1;
            if let Some(&hashes) = self.memo.get(&content_hash) {
                self.hits += 1;
                hashes
            } else {
                let hashes = self.hasher.hash(slice);
                self.memo.insert(content_hash, hashes);
                if self.probes == MEMO_PROBATION
                    && (self.hits << MEMO_MIN_HIT_SHIFT) < self.probes
                {
                    self.memo_on = false;
                    self.memo = HashMap::default();
                }
                hashes
            }
        } else {
            self.hasher.hash(slice)
        };
        self.out.push(SplitStatement {
            span: Span::new(self.start, self.end),
            content_hash,
            fingerprint,
            shape_hash,
        });
    }

    fn finish(mut self) -> Vec<SplitStatement> {
        self.flush();
        self.out
    }
}

impl TokenSink for SplitSink<'_> {
    /// Word classification happens on the fingerprint path only — see
    /// the type docs. The streaming pass runs at unclassified lex speed.
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            // Trivia never moves the span's significant end, and the
            // content hash is taken from the final span slice at flush —
            // interior trivia is covered by the slice, trailing trivia
            // falls outside it. Nothing to do per token.
            return;
        }
        // Fast path mirrors SpanOnlySink's: plain mid-statement tokens
        // skip the tracker call entirely.
        if self.tracker.is_fast() {
            if kind == TokenKind::Punct && end - start == 1 && self.bytes[start] == b';' {
                self.tracker.fast_terminator();
                self.flush();
                return;
            }
        } else {
            match self.tracker.offer(self.bytes, kind, start, end) {
                SplitAction::Token => {}
                SplitAction::Terminator => {
                    self.flush();
                    return;
                }
                SplitAction::Directive => return,
            }
        }
        if !self.started {
            self.started = true;
            self.start = start;
        }
        self.end = end;
    }
}

/// Fused single-pass split: lex, split, content-hash, and fingerprint the
/// script in one streaming pass. Emits the same statements (spans,
/// hashes, fingerprints) as the two-pass [`split_spanned`] reference,
/// without ever materialising a token stream.
pub fn split_stream(script: &str) -> Vec<SplitStatement> {
    split_stream_dialect(script, Dialect::Generic)
}

/// [`split_stream`] under an explicit [`Dialect`].
pub fn split_stream_dialect(script: &str, dialect: Dialect) -> Vec<SplitStatement> {
    let mut sink = SplitSink::new(script, dialect);
    lex_into(script, dialect, &mut sink);
    sink.finish()
}

/// A script split and deduplicated in one step: every occurrence in
/// script order, referencing its unique statement text.
#[derive(Debug, Clone, Default)]
pub struct DedupedSplit {
    /// Unique statement texts, in first-occurrence order. Each carries
    /// the span of its **first** occurrence.
    pub uniques: Vec<SplitStatement>,
    /// One `(unique_index, span)` entry per statement occurrence, in
    /// script order.
    pub occurrences: Vec<(u32, Span)>,
    /// The script contains a `DELIMITER` directive. A property of the
    /// script, the same for every chunking: only directives inside the
    /// regions whose statements the merge keeps are counted.
    pub saw_delimiter_directive: bool,
    /// Chunks scanned, one worker each (1 = one sequential scan).
    pub chunks: usize,
    /// Bytes the merge scanned again on the calling thread because a
    /// chunk's guessed start was not a statement boundary of the script.
    pub rescanned_bytes: usize,
}

impl DedupedSplit {
    /// Every occurrence as a [`SplitStatement`] with its own span, in
    /// script order — what [`split_stream`] returns for the same script.
    pub fn statements(&self) -> Vec<SplitStatement> {
        self.occurrences
            .iter()
            .map(|&(slot, span)| SplitStatement { span, ..self.uniques[slot as usize] })
            .collect()
    }
}

/// Statement text → local unique slot, for one scan.
type TextSlots<'s> = HashMap<&'s str, u32, BuildHasherDefault<FoldHasher>>;

/// What one scan hands to the merge: its statements deduped against
/// each other, and the points where the merge may join it.
#[derive(Default)]
struct ChunkOut<'s> {
    /// Unique texts in first-occurrence order within the scan, hashed.
    uniques: Vec<SplitStatement>,
    /// `(local slot, span)` per statement, in scan order.
    occurrences: Vec<(u32, Span)>,
    slots: TextSlots<'s>,
    /// `(offset, statements before it)` for the scan start and, if the
    /// merge may join the scan later on, for the end of every clean
    /// terminator; ascending.
    clean: Vec<(usize, u32)>,
    /// Where the scan stopped: its last clean terminator end, or the end
    /// of the script.
    end: usize,
    /// Offset of the last `DELIMITER` directive the scan processed.
    last_directive: Option<usize>,
}

impl ChunkOut<'_> {
    /// Index into `clean` of a clean point at `offset`, if the scan has
    /// one there.
    fn clean_at(&self, offset: usize) -> Option<usize> {
        self.clean.binary_search_by_key(&offset, |&(o, _)| o).ok()
    }
}

/// When a scan stops, asked at each clean terminator end.
enum Stop<'a, 's> {
    /// A worker: at its first clean end at or past the next chunk's start
    /// (never, for the last chunk).
    At(usize),
    /// The merge's re-scan after a mis-guessed start: at the first clean
    /// end that is also a clean point of the chunk covering it. `next` is
    /// the first chunk whose scan reaches that far.
    Shared { chunks: &'a [ChunkOut<'s>], next: usize },
}

impl Stop<'_, '_> {
    fn reached(&mut self, end: usize) -> bool {
        match self {
            Stop::At(at) => end >= *at,
            Stop::Shared { chunks, next } => {
                while *next < chunks.len() && chunks[*next].end < end {
                    *next += 1;
                }
                chunks.get(*next).is_some_and(|c| c.clean_at(end).is_some())
            }
        }
    }
}

/// One scan of the chunked splitter: lexes from a start offset, splits,
/// dedups the statement texts against each other and hashes each new
/// one ([`UniqueHasher`]), with its own map, hasher and interner.
///
/// A **clean terminator** is a `;` that ends a statement while `;` is the
/// terminator (no custom `DELIMITER`): after it the block tracker is in
/// its fresh state, so the scan's whole state is its position. A scan
/// assumes it starts at such a point.
///
/// The scan runs untracked (every `;` terminates, as in a script without
/// compound statements or directives) until a word that could make block
/// tracking matter ([`crate::block`]'s `may_need_tracking`). The
/// statements flushed before that word split the same either way, so
/// the lexer stops and the scan resumes, tracked ([`TrackedScan`]), from
/// the end of the last clean terminator: only the current statement is
/// lexed again. The next clean terminator switches it back. Each mode is
/// its own sink type, so each lexer loop carries only its own branches.
struct ChunkScan<'a, 's> {
    script: &'s str,
    bytes: &'s [u8],
    stop: Stop<'a, 's>,
    /// The stop condition fired: the scan ends at `last_clean`.
    stopped: bool,
    /// The lexer should return: the scan stopped or switches mode.
    halt: bool,
    /// Block tracking is on (see the type docs).
    tracked: bool,
    tracker: BlockTracker,
    /// A statement is open (at least one significant token seen).
    started: bool,
    /// Span bounds of the open statement.
    start: usize,
    end: usize,
    /// End of the last clean terminator (or the scan start).
    last_clean: usize,
    /// Record every clean point in `out.clean`, not just the start: the
    /// merge may join this scan past its start (a worker's chunk other
    /// than the first).
    joinable: bool,
    /// Statement spans in scan order, deduped after the lex.
    spans: Vec<Span>,
    out: ChunkOut<'s>,
}

impl<'a, 's> ChunkScan<'a, 's> {
    /// Scan `script` from `from`, a clean point, until `stop` fires or
    /// the script ends.
    fn run(
        script: &'s str,
        from: usize,
        dialect: Dialect,
        stop: Stop<'a, 's>,
        joinable: bool,
    ) -> ChunkOut<'s> {
        let mut scan = ChunkScan {
            script,
            bytes: script.as_bytes(),
            stop,
            stopped: false,
            halt: false,
            tracked: false,
            tracker: BlockTracker::with_dialect(dialect),
            started: false,
            start: 0,
            end: 0,
            last_clean: from,
            joinable,
            spans: Vec::new(),
            out: ChunkOut { clean: vec![(from, 0)], ..ChunkOut::default() },
        };
        let mut pos = from;
        loop {
            if scan.tracked {
                lex_from(script, pos, dialect, &mut TrackedScan(&mut scan));
            } else {
                lex_from(script, pos, dialect, &mut scan);
            }
            if !scan.halt || scan.stopped {
                break;
            }
            // A mode switch. Either way the tracker is fresh: untracked
            // it saw nothing since the last clean terminator, and tracked
            // it just passed one. An open statement is lexed again.
            scan.halt = false;
            scan.started = false;
            pos = scan.last_clean;
        }
        if scan.stopped {
            scan.out.end = scan.last_clean;
        } else {
            scan.flush();
            scan.out.end = script.len();
        }
        scan.out.last_directive = scan.tracker.last_directive();
        scan.dedup(dialect);
        scan.out
    }

    /// Group the scanned statements by text and hash each new text. Kept
    /// apart from the lex so each loop stays tight.
    fn dedup(&mut self, dialect: Dialect) {
        let out = &mut self.out;
        let mut hasher = UniqueHasher::new(dialect);
        out.occurrences.reserve_exact(self.spans.len());
        for &span in &self.spans {
            let text = &self.script[span.start..span.end];
            let next = out.uniques.len() as u32;
            let slot = *out.slots.entry(text).or_insert(next);
            if slot == next {
                let (shape_hash, fingerprint) = hasher.hash(text);
                out.uniques.push(SplitStatement {
                    span,
                    content_hash: content_hash_bytes(text.as_bytes()),
                    fingerprint,
                    shape_hash,
                });
            }
            out.occurrences.push((slot, span));
        }
    }

    #[inline]
    fn extend(&mut self, start: usize, end: usize) {
        if !self.started {
            self.started = true;
            self.start = start;
        }
        self.end = end;
    }

    /// Close the open statement, if any.
    #[inline]
    fn flush(&mut self) {
        if self.started {
            self.started = false;
            self.spans.push(Span::new(self.start, self.end));
        }
    }

    /// A clean terminator ending at `end`. Out of line: the sink body is
    /// monomorphised into the lexer loop, and bloating it slows the
    /// whole scan.
    #[inline(never)]
    fn clean_end(&mut self, end: usize) {
        self.flush();
        self.last_clean = end;
        if self.joinable {
            self.out.clean.push((end, self.spans.len() as u32));
        }
        self.stopped = self.stop.reached(end);
        self.halt = self.stopped;
    }
}

impl TokenSink for ChunkScan<'_, '_> {
    /// Only boundaries matter here; the tracker compares raw word bytes
    /// itself, and [`UniqueHasher`] classifies words per unique text.
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            return;
        }
        if kind == TokenKind::Punct && end - start == 1 && self.bytes[start] == b';' {
            self.clean_end(end);
        } else if kind == TokenKind::Ident && crate::block::may_need_tracking(&self.bytes[start..end])
        {
            self.tracked = true;
            self.halt = true;
        } else {
            self.extend(start, end);
        }
    }

    #[inline]
    fn done(&self) -> bool {
        self.halt
    }
}

/// [`ChunkScan`]'s tracked mode: every significant token goes through
/// the [`BlockTracker`], until the next clean terminator.
struct TrackedScan<'x, 'a, 's>(&'x mut ChunkScan<'a, 's>);

impl TokenSink for TrackedScan<'_, '_, '_> {
    const CLASSIFY_WORDS: bool = false;

    #[inline]
    fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
        if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
            return;
        }
        let scan = &mut *self.0;
        match scan.tracker.offer(scan.bytes, kind, start, end) {
            SplitAction::Token => scan.extend(start, end),
            SplitAction::Terminator if scan.tracker.default_delimiter() => {
                scan.clean_end(end);
                scan.tracked = false;
                scan.halt = true;
            }
            SplitAction::Terminator => scan.flush(),
            SplitAction::Directive => {}
        }
    }

    #[inline]
    fn done(&self) -> bool {
        self.0.halt
    }
}

/// Floor on the bytes a chunk should carry: below this, spawning and
/// merging a worker costs more than the scan it saves, so the chunk count
/// is clamped to `len / MIN_CHUNK_BYTES`. Output is the same for every
/// chunk count.
const MIN_CHUNK_BYTES: usize = 16 * 1024;

/// Chunk starts for `threads` workers: just past the first `;` byte at or
/// after each evenly spaced target. A byte search, no lexing — the `;`
/// may sit inside a string, a comment or a `BEGIN…END` body; the merge
/// corrects for that (see [`split_chunked`]).
fn guess_starts(script: &str, threads: usize) -> Vec<usize> {
    let len = script.len();
    let chunks = threads.min(len / MIN_CHUNK_BYTES).max(1);
    let mut starts = Vec::with_capacity(chunks - 1);
    let mut from = 0;
    for i in 1..chunks {
        let target = (len / chunks * i).max(from);
        match crate::scan::memchr(b';', &script.as_bytes()[target..]) {
            Some(off) if target + off + 1 < len => {
                from = target + off + 1;
                starts.push(from);
            }
            _ => break,
        }
    }
    starts
}

/// [`split_stream`] across `threads` worker threads — the statements of
/// [`split_deduped`]'s chunked splitter, each with its own span.
/// Byte-identical to [`split_stream`] for every `threads` value.
pub fn split_stream_parallel(script: &str, threads: usize) -> Vec<SplitStatement> {
    split_stream_parallel_dialect(script, threads, Dialect::Generic)
}

/// [`split_stream_parallel`] under an explicit [`Dialect`].
pub fn split_stream_parallel_dialect(
    script: &str,
    threads: usize,
    dialect: Dialect,
) -> Vec<SplitStatement> {
    split_deduped_dialect(script, threads, dialect).statements()
}

/// Split the script and group duplicate statement texts, hashing each
/// **unique** text exactly once per chunk (and fingerprinting each unique
/// shape once per chunk).
///
/// Two statements are duplicates iff their trimmed source bytes are equal
/// (equal bytes lex to equal tokens, hence equal hashes), so the
/// per-occurrence work is a boundary scan plus one map probe; the
/// lex+hash pass runs once per unique text. Scripts of at least
/// 2 × 16 KiB are cut into up to `threads` chunks scanned on worker
/// threads, then merged (see [`split_chunked`]); the output is the same
/// for every `threads` value.
pub fn split_deduped(script: &str, threads: usize) -> DedupedSplit {
    split_deduped_dialect(script, threads, Dialect::Generic)
}

/// [`split_deduped`] under an explicit [`Dialect`].
pub fn split_deduped_dialect(script: &str, threads: usize, dialect: Dialect) -> DedupedSplit {
    split_chunked(script, &guess_starts(script, threads), dialect)
}

/// [`split_deduped_dialect`] with explicit chunk starts instead of
/// guessed ones: any byte offsets, in any order (each is moved forward to
/// a char boundary; `0`, the end and repeats are dropped). For tests of
/// the merge law: the output equals the one-chunk output for every set of
/// starts.
#[doc(hidden)]
pub fn split_deduped_at(script: &str, starts: &[usize], dialect: Dialect) -> DedupedSplit {
    let mut starts: Vec<usize> = starts
        .iter()
        .map(|&s| (s..script.len()).find(|&b| script.is_char_boundary(b)).unwrap_or(script.len()))
        .filter(|&s| s > 0 && s < script.len())
        .collect();
    starts.sort_unstable();
    starts.dedup();
    split_chunked(script, &starts, dialect)
}

/// The chunked splitter (see the module docs for the resync law). Chunk `i`
/// is scanned on its own worker from `starts[i - 1]` (chunk 0 from 0) as
/// if that offset were a clean terminator end, and stops at its first
/// clean terminator end at or past the next chunk's start; [`merge`]
/// keeps each chunk's statements from the first clean point it shares
/// with the true scan.
fn split_chunked(script: &str, starts: &[usize], dialect: Dialect) -> DedupedSplit {
    let worker = |i: usize| {
        let from = if i == 0 { 0 } else { starts[i - 1] };
        let stop = starts.get(i).copied().unwrap_or(usize::MAX);
        ChunkScan::run(script, from, dialect, Stop::At(stop), i > 0)
    };
    merge(script, run_workers(starts.len() + 1, worker), dialect)
}

#[cfg(feature = "parallel")]
fn run_workers<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (1..n).map(|i| s.spawn(move || f(i))).collect();
        let mut out = Vec::with_capacity(n);
        out.push(f(0));
        // A worker that panicked has its chunk re-run on the calling
        // thread: if the panic was transient (allocation pressure) the
        // result is still produced, and if it is deterministic it
        // propagates here exactly as the sequential path would.
        for (i, h) in handles.into_iter().enumerate() {
            out.push(h.join().unwrap_or_else(|_| f(i + 1)));
        }
        out
    })
}

#[cfg(not(feature = "parallel"))]
fn run_workers<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    (0..n).map(f).collect()
}

/// Marks a local slot with no global slot yet.
const UNSEEN: u32 = u32::MAX;

/// A merged scan's text map with its local → global slot map (`None`
/// for chunk 0, whose slots are the global ones).
type Kept<'s> = (TextSlots<'s>, Option<Vec<u32>>);

/// Merge the chunk scans in order. The true scan is known up to `pos`,
/// a clean terminator end: the next chunk that reaches `pos` is kept from
/// there if `pos` is one of its clean points, and otherwise this thread
/// scans on from `pos` until a clean point some chunk shares.
fn merge<'s>(script: &'s str, mut chunks: Vec<ChunkOut<'s>>, dialect: Dialect) -> DedupedSplit {
    let first = std::mem::take(&mut chunks[0]);
    let mut out = DedupedSplit {
        uniques: first.uniques,
        occurrences: first.occurrences,
        saw_delimiter_directive: first.last_directive.is_some(),
        chunks: chunks.len(),
        rescanned_bytes: 0,
    };
    let mut kept: Vec<Kept<'s>> = vec![(first.slots, None)];
    let mut pos = first.end;
    let mut k = 1;
    while pos < script.len() {
        // The last chunk ends at the end of the script, past `pos`.
        while chunks[k].end < pos {
            k += 1;
        }
        let from = match chunks[k].clean_at(pos) {
            Some(i) => i,
            None => {
                let stop = Stop::Shared { chunks: &chunks, next: k };
                let rescan = ChunkScan::run(script, pos, dialect, stop, false);
                out.rescanned_bytes += rescan.end - pos;
                let end = rescan.end;
                absorb(&mut out, &mut kept, script, rescan, 0, pos);
                pos = end;
                if pos == script.len() {
                    break;
                }
                while chunks[k].end < pos {
                    k += 1;
                }
                chunks[k].clean_at(pos).expect("a re-scan stops at a shared clean end")
            }
        };
        let chunk = std::mem::take(&mut chunks[k]);
        let end = chunk.end;
        absorb(&mut out, &mut kept, script, chunk, from, pos);
        pos = end;
        k += 1;
    }
    out
}

/// Append a scan's statements from its clean point `clean[from]` (at
/// script offset `pos`) to the merged output, mapping its local slots to
/// global ones: a text the scans merged before kept takes their slot, a
/// new text becomes a unique with this occurrence's span.
fn absorb<'s>(
    out: &mut DedupedSplit,
    kept: &mut Vec<Kept<'s>>,
    script: &str,
    chunk: ChunkOut<'s>,
    from: usize,
    pos: usize,
) {
    out.saw_delimiter_directive |= chunk.last_directive.is_some_and(|d| d >= pos);
    let mut global = vec![UNSEEN; chunk.uniques.len()];
    let first = chunk.clean[from].1 as usize;
    for &(local, span) in &chunk.occurrences[first..] {
        let slot = &mut global[local as usize];
        if *slot == UNSEEN {
            let text = &script[span.start..span.end];
            *slot = kept
                .iter()
                .find_map(|(slots, map)| {
                    let s = *slots.get(text)?;
                    match map {
                        None => Some(s),
                        Some(m) => Some(m[s as usize]).filter(|&g| g != UNSEEN),
                    }
                })
                .unwrap_or_else(|| {
                    out.uniques.push(SplitStatement { span, ..chunk.uniques[local as usize] });
                    (out.uniques.len() - 1) as u32
                });
        }
        out.occurrences.push((*slot, span));
    }
    kept.push((chunk.slots, Some(global)));
}

/// One split-off statement at the span level: its span-tokens (trivia
/// trimmed at both ends, kept inside) and its content hash — computed
/// **before parsing and before any token text is allocated**.
///
/// This is the legacy two-pass representation: [`split_spanned`] keeps a
/// whole-script token buffer and re-walks each statement's tokens to
/// hash. The production path is the fused [`split_stream`], which emits
/// identical spans/hashes without either; `split_spanned` remains as the
/// readable reference implementation that the property tests pin the
/// fused splitter against.
#[derive(Debug, Clone)]
pub struct SpannedStatement {
    /// Span-level tokens of the statement (no owned text).
    pub tokens: Vec<SpannedToken>,
    /// Span covering the statement in the original script.
    pub span: Span,
    /// Literal-sensitive 128-bit content hash
    /// ([`crate::fingerprint::content_hash_spanned`]).
    pub content_hash: u128,
}

impl SpannedStatement {
    /// Literal-insensitive template fingerprint, computed from the spans
    /// (no parsing, no allocation).
    pub fn fingerprint(&self, script: &str) -> u64 {
        fingerprint_spanned(script, &self.tokens)
    }

    /// Numeric-literal-blind shape hash, computed from the spans.
    pub fn shape_hash(&self, script: &str) -> u128 {
        shape_hash_spanned(script, &self.tokens)
    }

    /// Build the equivalent owned [`RawStatement`].
    pub fn materialize(&self, script: &str) -> RawStatement {
        RawStatement {
            tokens: self.tokens.iter().map(|t| t.materialize(script)).collect(),
            span: self.span,
            source: script[self.span.start..self.span.end].into(),
        }
    }
}

/// Split a script into span-level statements, computing each chunk's
/// content hash on the way — the **legacy two-pass reference** for the
/// fused [`split_stream`] (lex everything into a buffer, then slice into
/// statements and hash each slice). Kept for tests and comparison
/// benchmarks; production consumers use [`split_stream`] /
/// [`split_deduped`].
pub fn split_spanned(script: &str) -> Vec<SpannedStatement> {
    split_spanned_dialect(script, Dialect::Generic)
}

/// [`split_spanned`] under an explicit [`Dialect`] — the two-pass
/// reference the per-dialect property tests pin the fused path against.
pub fn split_spanned_dialect(script: &str, dialect: Dialect) -> Vec<SpannedStatement> {
    let tokens = lex_spans_dialect(script, dialect);
    let bytes = script.as_bytes();
    let mut tracker = BlockTracker::with_dialect(dialect);
    let mut stmts = Vec::new();
    let mut start = 0usize;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.is_trivia() {
            continue;
        }
        match tracker.offer(bytes, tok.kind, tok.span.start, tok.span.end) {
            SplitAction::Token => {}
            SplitAction::Terminator | SplitAction::Directive => {
                // Directive tokens (a `DELIMITER` line, or the trailing
                // bytes of a multi-byte terminator) sit between
                // statements, so the slice before them holds trivia at
                // most and `push_spanned` drops it.
                push_spanned(script, &mut stmts, &tokens[start..i]);
                start = i + 1;
            }
        }
    }
    push_spanned(script, &mut stmts, &tokens[start..]);
    stmts
}

fn push_spanned(script: &str, out: &mut Vec<SpannedStatement>, tokens: &[SpannedToken]) {
    // Trim leading/trailing trivia but keep interior trivia for lossless text.
    let Some(first) = tokens.iter().position(|t| !t.is_trivia()) else { return };
    let last = tokens.iter().rposition(|t| !t.is_trivia()).unwrap();
    let trimmed = &tokens[first..=last];
    let span = trimmed[0].span.merge(trimmed[trimmed.len() - 1].span);
    out.push(SpannedStatement {
        tokens: trimmed.to_vec(),
        span,
        content_hash: content_hash_spanned(script, trimmed),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_semicolons() {
        let stmts = split("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t");
        assert_eq!(stmts.len(), 3);
        assert!(stmts[0].text().starts_with("CREATE"));
        assert!(stmts[2].text().starts_with("SELECT"));
    }

    #[test]
    fn semicolon_in_string_is_not_a_split() {
        let stmts = split("SELECT 'a;b' FROM t; SELECT 2");
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].text().contains("'a;b'"));
    }

    #[test]
    fn semicolon_in_comment_is_not_a_split() {
        let stmts = split("SELECT 1 -- one; two\n; SELECT 2");
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn empty_statements_dropped() {
        let stmts = split(";;  ; SELECT 1; ;");
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn whole_script_without_semicolon() {
        let stmts = split("SELECT 1");
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].text(), "SELECT 1");
    }

    #[test]
    fn text_is_a_script_slice_not_a_token_concat() {
        let script = "SELECT a /* interior ; trivia */ , b FROM t ; UPDATE t SET a = 1";
        for s in split(script) {
            assert_eq!(s.text(), &script[s.span.start..s.span.end]);
            let concat: String = s.tokens.iter().map(|t| t.text.as_str()).collect();
            assert_eq!(s.text(), concat, "slice must equal the token concatenation");
        }
    }

    #[test]
    fn fingerprinted_chunks_match_post_parse_hashes() {
        // The pre-parse hashes must agree with the hashes computed from
        // the parsed statement — consumers rely on that to skip parsing.
        let script = "SELECT a FROM t WHERE a = 1;\
                      select a from t where a = 2;\
                      INSERT INTO t VALUES (1, 'x');";
        let chunks = split_fingerprinted(script);
        assert_eq!(chunks.len(), 3);
        for c in &chunks {
            let parsed = crate::parser::parse_statement(&c.raw);
            assert_eq!(c.fingerprint, parsed.fingerprint());
            assert_eq!(c.content_hash, parsed.content_hash());
        }
        // Literal-only variants share a template but not a content hash.
        assert_eq!(chunks[0].fingerprint, chunks[1].fingerprint);
        assert_ne!(chunks[0].content_hash, chunks[1].content_hash);
    }

    #[test]
    fn spans_index_into_original() {
        let script = "SELECT a FROM t;  UPDATE t SET a = 1";
        let stmts = split(script);
        assert_eq!(&script[stmts[1].span.start..stmts[1].span.end], "UPDATE t SET a = 1");
    }

    /// Scripts stressing every construct that can hide a `;` or end a
    /// statement early.
    fn nasty_scripts() -> Vec<&'static str> {
        vec![
            "SELECT 'a;b'; SELECT 2; -- tail ; comment\nSELECT 3",
            "SELECT 1 /* c1 ; /* nested ; */ still */; SELECT ';';;",
            "$tag$body; with ; semis$tag$; SELECT [br;acket] FROM t;",
            "SELECT $$;$$ , \";\" ; UPDATE \"u;u\" SET `a;a` = 1",
            "INSERT INTO t VALUES (%(na;me)s, :p1, $1, ?);",
            "SELECT 'unterminated ; string",
            "$unterminated$ ; ; ;",
            "  ; ;\t;\n ;",
            "",
            "SELECT a \";\" ; SELECT 1e; SELECT 1.5e+3;",
            "SELECT * FROM t WHERE c LIKE '%;%' ESCAPE '\\'; DELETE FROM t",
            // Compound statements: body semicolons are not terminators.
            "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
             BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;",
            "CREATE PROCEDURE p() BEGIN IF a THEN SELECT 1; END IF; \
             SELECT CASE WHEN b THEN 'x;y' ELSE 2 END; END; SELECT 2;",
            // Decoys that must NOT open a block.
            "BEGIN; SELECT 1; COMMIT; BEGIN TRANSACTION; SELECT 2;",
            "CREATE TABLE t (begin INT, end INT); SELECT end FROM t;",
            "SELECT CASE WHEN a = 1 THEN 'x;y' ELSE b END FROM t; SELECT 2;",
            // Tolerant degradation: orphan END, unterminated BEGIN.
            "END; SELECT 1; END IF;",
            "CREATE TRIGGER t1 BEFORE UPDATE ON x FOR EACH ROW BEGIN SELECT 1;",
            // DELIMITER directives (mysqldump style).
            "DELIMITER ;;\nCREATE TRIGGER tr BEFORE INSERT ON t FOR EACH ROW \
             BEGIN SET @a = 1; END ;;\nDELIMITER ;\nSELECT 1;",
            "DELIMITER //\nSELECT 1; SELECT 2 //\nDELIMITER ;\nSELECT 3;",
            "DELIMITER GO\nSELECT agony FROM t GO\nDELIMITER ;\nSELECT 1;",
            "DELIMITER ;;",
        ]
    }

    #[test]
    fn fused_split_matches_legacy_reference() {
        for script in nasty_scripts() {
            let fused = split_stream(script);
            let legacy = split_spanned(script);
            assert_eq!(fused.len(), legacy.len(), "statement count on {script:?}");
            for (f, l) in fused.iter().zip(&legacy) {
                assert_eq!(f.span, l.span, "span on {script:?}");
                assert_eq!(f.content_hash, l.content_hash, "content hash on {script:?}");
                assert_eq!(f.fingerprint, l.fingerprint(script), "fingerprint on {script:?}");
                // Re-lex materialisation must reproduce the legacy tokens
                // exactly (kinds, texts, script-absolute spans).
                let fm = f.materialize(script);
                let lm = l.materialize(script);
                assert_eq!(fm.tokens, lm.tokens, "tokens on {script:?}");
                assert_eq!(fm.span, lm.span);
            }
        }
    }

    /// The one-chunk split of `script`, checked against the sequential
    /// [`split_stream`] occurrence by occurrence (spans, content hashes,
    /// shapes, fingerprints).
    fn one_chunk(script: &str) -> DedupedSplit {
        let one = split_deduped_at(script, &[], Dialect::Generic);
        assert_eq!(one.chunks, 1);
        assert_eq!(one.statements(), split_stream(script), "one chunk on {script:?}");
        one
    }

    /// The chunked split of `script` from explicit `starts` equals its
    /// one-chunk split `one`: uniques (order, span, hashes), occurrences
    /// and the directive flag. At least one start must survive, so more
    /// than one chunk runs.
    fn assert_chunked_split_agrees(
        script: &str,
        one: &DedupedSplit,
        starts: &[usize],
    ) -> DedupedSplit {
        let d = split_deduped_at(script, starts, Dialect::Generic);
        assert!(d.chunks > 1, "starts {starts:?} ran one chunk on {script:?}");
        assert_eq!(d.uniques, one.uniques, "uniques from {starts:?} on {script:?}");
        assert_eq!(d.occurrences, one.occurrences, "occurrences from {starts:?} on {script:?}");
        assert_eq!(
            d.saw_delimiter_directive, one.saw_delimiter_directive,
            "directive flag from {starts:?} on {script:?}"
        );
        d
    }

    #[test]
    fn chunked_split_is_identical_across_thread_counts() {
        // Big enough (~240 KB) that every thread count below runs that
        // many chunks of at least MIN_CHUNK_BYTES.
        let mut big = String::new();
        for (i, s) in nasty_scripts().iter().cycle().take(3200).enumerate() {
            big.push_str(s);
            big.push_str(&format!("; SELECT {i} FROM filler;\n"));
        }
        assert!(big.len() >= 13 * MIN_CHUNK_BYTES);
        let sequential = split_stream(&big);
        let one = split_deduped(&big, 1);
        for threads in [1, 2, 3, 5, 13] {
            assert_eq!(
                split_stream_parallel(&big, threads),
                sequential,
                "chunked split diverged at {threads} thread(s)"
            );
            let d = split_deduped(&big, threads);
            assert_eq!(d.chunks, threads, "{threads} thread(s)");
            assert_eq!(d.uniques, one.uniques, "{threads} thread(s)");
            assert_eq!(d.occurrences, one.occurrences, "{threads} thread(s)");
            assert_eq!(d.saw_delimiter_directive, one.saw_delimiter_directive);
        }
    }

    #[test]
    fn chunk_starts_at_every_offset_of_nasty_scripts_agree() {
        // A start at every byte: inside strings, comments, dollar quotes,
        // bodies and DELIMITER lines. Then pairs of starts, so a chunk
        // that must be re-scanned meets another guessed start.
        let mut rescanned = 0;
        for script in nasty_scripts() {
            let one = one_chunk(script);
            for at in 1..script.len() {
                rescanned += assert_chunked_split_agrees(script, &one, &[at]).rescanned_bytes;
                assert_chunked_split_agrees(script, &one, &[at, at + 3, at + 11]);
            }
        }
        assert!(rescanned > 0, "no start needed the merge's re-scan");
    }

    #[test]
    fn chunk_starts_inside_trigger_bodies_resync() {
        let mut big = String::new();
        for i in 0..30 {
            big.push_str(&format!(
                "CREATE TRIGGER trg{i} AFTER INSERT ON t{i} FOR EACH ROW \
                 BEGIN UPDATE u SET a = {i}; DELETE FROM v WHERE x = {i}; END;\n"
            ));
            big.push_str(&format!("SELECT {i} FROM filler;\n"));
        }
        let one = one_chunk(&big);
        assert_eq!(one.occurrences.len(), 60);
        // Every offset of one trigger, then a stride over the script.
        let body = big.find("trg7 ").unwrap();
        for at in (body..body + 120).chain((1..big.len()).step_by(29)) {
            assert_chunked_split_agrees(&big, &one, &[at]);
            assert_chunked_split_agrees(&big, &one, &[at, at + 40, at + 700]);
        }
        // Body semicolons are where the guessed starts land.
        for threads in [2, 3, 5, 8] {
            assert_eq!(split_stream_parallel(&big, threads), split_stream(&big), "{threads}");
        }
    }

    #[test]
    fn chunk_starts_inside_delimiter_regions_resync() {
        let mut big = String::from("SELECT 0;\nDELIMITER ;;\n");
        for i in 0..30 {
            big.push_str(&format!("SELECT {i}; SELECT {i} ;;\n"));
        }
        big.push_str("DELIMITER ;\nSELECT 1;");
        let one = one_chunk(&big);
        assert_eq!(one.occurrences.len(), 32);
        assert!(one.saw_delimiter_directive);
        for at in 1..big.len() {
            assert_chunked_split_agrees(&big, &one, &[at]);
            assert_chunked_split_agrees(&big, &one, &[at, at + 20]);
        }
        // A directive only in a region the merge drops is not reported.
        let plain = "SELECT 'DELIMITER ;;\n'; SELECT 2;";
        let one = one_chunk(plain);
        assert!(!one.saw_delimiter_directive);
        for at in 1..plain.len() {
            assert_chunked_split_agrees(plain, &one, &[at]);
        }
    }

    #[test]
    fn deduped_split_reconstructs_the_statement_sequence() {
        let script = "SELECT 1; SELECT 2; SELECT 1; SELECT 1; SELECT 2;";
        let d = split_deduped(script, 1);
        assert_eq!(d.uniques.len(), 2);
        assert_eq!(d.occurrences.len(), 5);
        let full = split_stream(script);
        for ((slot, span), s) in d.occurrences.iter().zip(&full) {
            assert_eq!(*span, s.span, "occurrence keeps its own span");
            assert_eq!(d.uniques[*slot as usize].content_hash, s.content_hash);
        }
        // Uniques carry their first occurrence's span.
        assert_eq!(d.uniques[0].span, full[0].span);
        assert_eq!(d.uniques[1].span, full[1].span);
    }

    #[test]
    fn trigger_body_survives_splitting() {
        // The ISSUE 5 repro: the trigger is ONE statement, the trailing
        // SELECT another — the body semicolons must not split.
        let script = "CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW \
                      BEGIN UPDATE u SET a = 1; DELETE FROM v; END; SELECT 1;";
        let stmts = split(script);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(stmts[0].text().starts_with("CREATE TRIGGER"));
        assert!(stmts[0].text().ends_with("END"));
        assert_eq!(stmts[1].text(), "SELECT 1");
    }

    #[test]
    fn delimiter_directive_is_honoured_and_excluded() {
        let script = "DELIMITER ;;\n\
                      CREATE TRIGGER tr BEFORE INSERT ON t FOR EACH ROW\n\
                      BEGIN\n  SET @c = @c + 1;\nEND ;;\n\
                      DELIMITER ;\n\
                      SELECT 1;";
        let stmts = split(script);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(stmts[0].text().starts_with("CREATE TRIGGER"));
        assert!(!stmts[0].text().contains("DELIMITER"));
        assert_eq!(stmts[1].text(), "SELECT 1");
    }

    #[test]
    fn custom_delimiter_makes_bare_semicolons_ordinary_text() {
        let script = "DELIMITER //\nSELECT 1; SELECT 2 //\nSELECT 3 //";
        let stmts = split(script);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert_eq!(stmts[0].text(), "SELECT 1; SELECT 2");
        assert_eq!(stmts[1].text(), "SELECT 3");
    }

    #[test]
    fn orphan_end_and_unterminated_begin_degrade_tolerantly() {
        // A bare END is its own one-word statement; trailing statements
        // survive.
        let stmts = split("END; SELECT 1;");
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].text(), "END");
        assert_eq!(stmts[1].text(), "SELECT 1");
        // An unterminated BEGIN runs to EOF as one tolerant statement —
        // nothing panics, nothing is dropped.
        let stmts = split("CREATE TRIGGER t1 BEFORE UPDATE ON x FOR EACH ROW BEGIN SELECT 1;");
        assert_eq!(stmts.len(), 1);
        assert!(stmts[0].text().ends_with("SELECT 1;"));
    }

    #[test]
    fn transaction_begin_and_case_end_are_not_blocks() {
        assert_eq!(split("BEGIN; SELECT 1; COMMIT;").len(), 3);
        assert_eq!(split("BEGIN TRANSACTION; SELECT 1;").len(), 2);
        assert_eq!(split("SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t; SELECT 2;").len(), 2);
        assert_eq!(split("CREATE TABLE t (begin INT, end INT); SELECT 1;").len(), 2);
    }

    /// Development probe, not a test: attributes fused-splitter cost to
    /// lexing, keyword classification, and fingerprinting. Run with
    /// `cargo test -q -p sqlcheck-parser --release -- --ignored
    /// profile_front_layers --nocapture`.
    #[test]
    #[ignore]
    fn profile_front_layers() {
        use crate::lexer::lex_into;
        use std::time::Instant;

        struct CountSink<const CLASSIFY: bool> {
            n: u64,
        }
        impl<const CLASSIFY: bool> TokenSink for CountSink<CLASSIFY> {
            const CLASSIFY_WORDS: bool = CLASSIFY;
            #[inline]
            fn token(&mut self, kind: TokenKind, _start: usize, _end: usize) {
                self.n += kind as u64;
            }
        }
        struct FpSink<'a> {
            src: &'a str,
            fp: StreamingFingerprint,
            acc: u64,
        }
        impl TokenSink for FpSink<'_> {
            #[inline]
            fn token(&mut self, kind: TokenKind, start: usize, end: usize) {
                if matches!(kind, TokenKind::Whitespace | TokenKind::Comment) {
                    return;
                }
                self.fp.push(kind, &self.src[start..end]);
                if kind == TokenKind::Punct
                    && end - start == 1
                    && self.src.as_bytes()[start] == b';'
                {
                    self.acc ^= self.fp.finish();
                }
            }
        }
        fn time<F: FnMut() -> u64>(label: &str, bytes: usize, mut f: F) {
            let mut best = u128::MAX;
            let mut acc = 0u64;
            for _ in 0..7 {
                let t = Instant::now();
                acc ^= f();
                best = best.min(t.elapsed().as_nanos());
            }
            let mbs = bytes as f64 / (best as f64 / 1e9) / 1e6;
            println!(
                "{label:28} {:>9.1} us  {mbs:>8.1} MB/s  (acc {acc:x})",
                best as f64 / 1e3
            );
        }

        let mut script = String::new();
        let mut x = 0x5117u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 5 {
                0 => script.push_str(&format!(
                    "SELECT id, name, created_at FROM users WHERE tenant_id = {} AND active = TRUE;\n",
                    x % 10_000
                )),
                1 => script.push_str(&format!(
                    "INSERT INTO events (user_id, kind, payload) VALUES ({}, 'click', 'x{}');\n",
                    x % 9999,
                    x % 777
                )),
                2 => script.push_str(&format!(
                    "UPDATE sessions SET last_seen = '2026-01-01', hits = hits + 1 WHERE sid = '{x:x}';\n"
                )),
                3 => script.push_str(&format!(
                    "SELECT a.x, b.y FROM a JOIN b ON a.id = b.a_id WHERE b.z IN ({}, {}, {});\n",
                    x % 10,
                    x % 100,
                    x % 1000
                )),
                _ => script.push_str(&format!("DELETE FROM audit WHERE ts < {};\n", x % 50_000)),
            }
        }
        let bytes = script.len();
        println!("script: {bytes} bytes");
        time("lex (no keyword classify)", bytes, || {
            let mut s = CountSink::<false> { n: 0 };
            lex_into(&script, Dialect::Generic, &mut s);
            s.n
        });
        time("lex (keyword classify)", bytes, || {
            let mut s = CountSink::<true> { n: 0 };
            lex_into(&script, Dialect::Generic, &mut s);
            s.n
        });
        time("lex + fingerprint", bytes, || {
            let mut s = FpSink { src: &script, fp: StreamingFingerprint::new(), acc: 0 };
            lex_into(&script, Dialect::Generic, &mut s);
            s.acc
        });
        time("split_stream (fused)", bytes, || split_stream(&script).len() as u64);
        time("split_deduped", bytes, || split_deduped(&script, 1).uniques.len() as u64);
    }
}
