//! `ap-fix`: suggesting fixes for detected anti-patterns (§6, Algorithm 4).
//!
//! Each repair rule is a pair: a *detection* (done by `ap-detect`) and an
//! *action*. The action either produces a non-ambiguous transformation —
//! a rewritten statement or a set of new DDL statements, rendered through
//! the parser's `ToSql` — or falls back to a textual fix tailored to the
//! application's context, exactly as the paper prescribes for the cases
//! where the non-validating parse tree lacks the syntactic information to
//! rewrite safely.
//!
//! Fix generation must degrade, never abort: a malformed or unmodelled
//! AST yields "no structural fix" (falling back to textual advice), so
//! `unwrap()` is linted against throughout this module tree.

#![warn(clippy::unwrap_used)]

pub mod textual;
pub mod transforms;

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::hashutil::Prehashed;
use crate::report::{Detection, Locus};
use std::collections::HashMap;

/// A suggested fix.
#[derive(Debug, Clone)]
pub enum Fix {
    /// The offending statement rewritten in place.
    Rewrite {
        /// The original statement text.
        original: String,
        /// The repaired statement.
        fixed: String,
    },
    /// A schema change: new/changed DDL plus every impacted query,
    /// rewritten (the paper's `GetImpactedQueries` closure).
    SchemaChange {
        /// DDL statements to execute, in order.
        statements: Vec<String>,
        /// `(statement index, rewritten SQL)` for impacted queries.
        impacted_queries: Vec<(usize, String)>,
    },
    /// A context-tailored textual fix the developer applies manually.
    Textual {
        /// The advice.
        advice: String,
    },
}

impl Fix {
    /// True when the fix is fully automatic (not textual).
    pub fn is_automatic(&self) -> bool {
        !matches!(self, Fix::Textual { .. })
    }
}

/// A detection paired with its suggested fix.
#[derive(Debug, Clone)]
pub struct SuggestedFix {
    /// The detection being fixed.
    pub detection: Detection,
    /// The suggestion.
    pub fix: Fix,
}

/// The repair engine.
#[derive(Debug, Clone, Default)]
pub struct FixEngine;

impl FixEngine {
    /// Suggest a fix for one detection.
    pub fn fix(&self, detection: &Detection, ctx: &Context) -> Fix {
        self.transform(detection, ctx).unwrap_or_else(|| Fix::Textual {
            advice: textual::advice(detection, ctx),
        })
    }

    /// The non-ambiguous transformation for a detection, if any.
    fn transform(&self, detection: &Detection, ctx: &Context) -> Option<Fix> {
        use crate::anti_pattern::AntiPatternKind::*;
        if let Some(rewrite) = transforms::statement_rewrite(detection.kind) {
            let s = detection.statement_index().and_then(|i| ctx.statements.get(i))?;
            return s.with_own_parse(|own| rewrite(own, ctx));
        }
        match detection.kind {
            EnumeratedTypes => transforms::enumerated_types(detection, ctx),
            MultiValuedAttribute => transforms::multi_valued_attribute(detection, ctx),
            NoForeignKey => transforms::no_foreign_key(detection, ctx),
            IndexUnderuse => transforms::index_underuse(detection, ctx),
            IndexOveruse => transforms::index_overuse(detection, ctx),
            RoundingErrors => transforms::rounding_errors(detection, ctx),
            _ => None,
        }
    }

    /// Suggest fixes for an ordered detection list (Algorithm 4's loop).
    ///
    /// A transform reads only the kind, the locus and — for a statement
    /// locus — that statement's parse and annotations, which every
    /// occurrence of its text shares. So each transform runs once per
    /// (unique text, kind) or (kind, other locus) per call, the `None`
    /// fallback included: a log of many duplicate statements pays for
    /// one rewrite per unique text. The textual advice names its
    /// occurrence (`statement #N`) and stays per detection.
    ///
    /// Whether a statement rewrite applies is a property of the
    /// statement's shape, so it is decided once per shared parse, on the
    /// shared tree: a text of that shape is parsed on its own
    /// ([`AnalyzedStatement::with_own_parse`]), for its rewrite only, when
    /// the rewrite applies.
    ///
    /// [`AnalyzedStatement::with_own_parse`]: crate::context::AnalyzedStatement::with_own_parse
    pub fn fix_all<'a>(
        &self,
        detections: impl IntoIterator<Item = &'a Detection>,
        ctx: &Context,
    ) -> Vec<SuggestedFix> {
        let mut by_text: HashMap<(u128, AntiPatternKind), Option<Fix>, Prehashed> =
            HashMap::default();
        let mut by_locus: HashMap<(AntiPatternKind, &Locus), Option<Fix>> = HashMap::new();
        let mut applies: HashMap<(u128, AntiPatternKind), bool, Prehashed> = HashMap::default();
        detections
            .into_iter()
            .map(|d| {
                let transform = || self.transform(d, ctx);
                let transformed = match d.statement_index().and_then(|i| ctx.statements.get(i)) {
                    Some(s) => by_text.entry((s.text_hash, d.kind)).or_insert_with(|| {
                        let rewrite = transforms::statement_rewrite(d.kind);
                        if let Some(rewrite) = rewrite.filter(|_| s.shares_parse()) {
                            let key = (s.parse_key(), d.kind);
                            if !*applies.entry(key).or_insert_with(|| rewrite(&s.parsed, ctx).is_some())
                            {
                                return None;
                            }
                        }
                        transform()
                    }),
                    None => by_locus.entry((d.kind, &d.locus)).or_insert_with(transform),
                };
                let fix = transformed
                    .clone()
                    .unwrap_or_else(|| Fix::Textual { advice: textual::advice(d, ctx) });
                SuggestedFix { detection: d.clone(), fix }
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;

    #[test]
    fn every_detection_gets_some_fix() {
        let sql = "CREATE TABLE t (a INT, b FLOAT, tag1 TEXT, tag2 TEXT, password TEXT);\
                   INSERT INTO t VALUES (1, 2.0, 'x', 'y', 'secret');\
                   SELECT * FROM t ORDER BY RAND();";
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        assert!(!report.detections.is_empty());
        let fixes = FixEngine.fix_all(&report.detections, &ctx);
        assert_eq!(fixes.len(), report.detections.len());
        for f in &fixes {
            match &f.fix {
                Fix::Textual { advice } => assert!(!advice.is_empty()),
                Fix::Rewrite { fixed, .. } => assert!(!fixed.is_empty()),
                Fix::SchemaChange { statements, .. } => assert!(!statements.is_empty()),
            }
        }
    }
}
