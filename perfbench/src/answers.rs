//! Known answers: the statement-locus anti-pattern kinds each generator
//! template must produce, a parser for the CLI's ranked listing, and the
//! precision/recall of a reported set against an expected one.

use crate::gen::Shape;
use std::collections::BTreeSet;

/// The statement-locus kinds a correct check reports for one statement of
/// `shape`, written from the rule definitions (names as the CLI prints
/// them). The pattern-matching rule inspects `SELECT` predicates, so the
/// `LIKE '%…%'` predicates inside the procedures' `UPDATE`s carry none.
pub fn expected_kinds(shape: Shape) -> &'static [&'static str] {
    match shape {
        // SELECT * FROM app_tK WHERE c0 = K
        Shape::Plain(0) => &["Column Wildcard Usage"],
        // SELECT c0, c1 FROM app_tK WHERE c1 LIKE '%vK%'
        Shape::Plain(1) => &["Pattern Matching"],
        // INSERT INTO app_tK VALUES (K, 'xK')
        Shape::Plain(2) => &["Implicit Columns"],
        // UPDATE … WHERE c1 = 'uK'; SELECT c0 … IN (…); DELETE … WHERE c0 = K
        Shape::Plain(3) | Shape::Plain(4) | Shape::Plain(7) => &[],
        // SELECT DISTINCT a.c0 FROM app_tK a JOIN app_uK b …
        Shape::Plain(5) => &["Distinct and Join"],
        // SELECT * FROM app_tK ORDER BY RANDOM() LIMIT K+1
        Shape::Plain(6) => &["Column Wildcard Usage", "Ordering by Rand"],
        Shape::Plain(_) => unreachable!("plain shapes are k % 8"),
        // SELECT c0, c1 FROM app_hot WHERE c0 = N
        Shape::Hot => &[],
        // 400 × UPDATE … WHERE c1 LIKE '%mK%' inside one procedure
        Shape::Giant => &[],
        // AFTER INSERT trigger: UPDATE …; DELETE … WHERE c0 = K
        Shape::Compound(0) => &[],
        // BEFORE UPDATE trigger with INSERT INTO app_logK VALUES (K)
        Shape::Compound(1) => &["Implicit Columns"],
        // procedure with INSERT INTO app_logK VALUES (K, 'p')
        Shape::Compound(2) => &["Implicit Columns"],
        Shape::Compound(_) => unreachable!("compound shapes are k % 3"),
    }
}

/// A set of `(statement index, kind name)` findings.
pub type Findings = BTreeSet<(usize, String)>;

/// The known answer for a generated script, statement by statement.
pub fn expected_findings(shapes: &[Shape]) -> Findings {
    shapes
        .iter()
        .enumerate()
        .flat_map(|(i, s)| expected_kinds(*s).iter().map(move |k| (i, k.to_string())))
        .collect()
}

/// What the CLI's ranked listing reports.
#[derive(Debug, Default)]
pub struct Listing {
    /// Statement-locus findings.
    pub statements: Findings,
    /// Listing entries (every locus).
    pub entries: usize,
    /// Statement-locus entries reported twice.
    pub duplicates: usize,
}

/// Parse the default listing: entry lines read
/// `  N. [score] Kind (Category) @ locus [bytes a..b]`, and the message
/// and fix lines under them are indented by five spaces.
pub fn parse_listing(stdout: &str) -> Listing {
    let mut out = Listing::default();
    for line in stdout.lines() {
        let body = line.trim_start();
        if line.len() - body.len() > 2 {
            continue;
        }
        let Some((num, rest)) = body.split_once(". [") else {
            continue;
        };
        if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Some((_, rest)) = rest.split_once("] ") else {
            continue;
        };
        let Some((kind_cat, locus)) = rest.split_once(" @ ") else {
            continue;
        };
        let kind = kind_cat.rsplit_once(" (").map_or(kind_cat, |(k, _)| k);
        out.entries += 1;
        let index = locus
            .strip_prefix("statement #")
            .and_then(|l| l.split(' ').next())
            .and_then(|n| n.parse::<usize>().ok());
        if let Some(i) = index {
            if !out.statements.insert((i, kind.to_string())) {
                out.duplicates += 1;
            }
        }
    }
    out
}

/// True positives, false positives and false negatives of `got` against
/// `want`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Score {
    pub fn of<T: Ord>(got: &BTreeSet<T>, want: &BTreeSet<T>) -> Score {
        let tp = got.intersection(want).count() as u64;
        Score {
            tp,
            fp: got.len() as u64 - tp,
            fn_: want.len() as u64 - tp,
        }
    }

    pub fn add(&mut self, o: Score) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
    }

    pub fn exact(&self) -> bool {
        self.fp == 0 && self.fn_ == 0
    }

    /// Precision; 1 when nothing was reported and nothing expected.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return if self.fn_ == 0 { 1.0 } else { 0.0 };
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall; 1 when nothing was expected.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }
}
