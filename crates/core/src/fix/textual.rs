//! Context-tailored textual fixes — the fallback when no non-ambiguous
//! transformation exists (Algorithm 4, line 12).

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::report::{Detection, Locus};
use std::fmt::Write as _;

/// Produce the textual fix for a detection, weaving in the locus so the
/// advice is tailored to the application rather than generic.
pub fn advice(d: &Detection, ctx: &Context) -> String {
    // The site (`statement #N`, `column t.c`, ...) is the locus, written
    // between a fixed head and tail into one exactly sized buffer: this
    // runs once per finding, tens of thousands of times on a large log.
    let (head, tail) = template(d.kind);
    let extra = match d.kind {
        AntiPatternKind::NoPrimaryKey => Some(
            pk_candidate(d, ctx)
                .map(|c| format!("Column '{c}' looks like a natural key."))
                .unwrap_or_else(|| "Add a natural key or a surrogate key column.".into()),
        ),
        _ => None,
    };
    let mut out = String::with_capacity(
        head.len() + 24 + tail.len() + extra.as_ref().map_or(0, String::len),
    );
    out.push_str(head);
    let _ = write!(out, "{}", d.locus);
    out.push_str(tail);
    if let Some(extra) = extra {
        out.push_str(&extra);
    }
    out
}

/// The advice around the site, per kind: `(head, tail)`.
fn template(kind: AntiPatternKind) -> (&'static str, &'static str) {
    use AntiPatternKind::*;
    match kind {
        MultiValuedAttribute => (
            "Replace the delimiter-separated list in ",
            " with an intersection table carrying one row per (owner, member) pair; add foreign \
             keys to both referenced tables and a composite primary key.",
        ),
        NoPrimaryKey => ("Declare a PRIMARY KEY on ", ". "),
        NoForeignKey => (
            "Declare a FOREIGN KEY for ",
            " so the DBMS enforces referential integrity instead of application code.",
        ),
        GenericPrimaryKey => (
            "Rename the generic 'id' key in ",
            " to a descriptive name (e.g. <table>_id) so joins read unambiguously and USING \
             clauses become possible.",
        ),
        DataInMetadata => (
            "Move the values encoded in ",
            "'s column names into rows of a child table (one row per value) instead of numbered \
             columns.",
        ),
        AdjacencyList => (
            "",
            " models a hierarchy as an adjacency list; consider a path enumeration, nested set, \
             or closure table design — or recursive CTEs where the DBMS supports them.",
        ),
        GodTable => (
            "Split ",
            " into cohesive entities; move rarely-used or nullable column groups into 1:1 \
             satellite tables.",
        ),
        RoundingErrors => (
            "Store fractional values in ",
            " as NUMERIC/DECIMAL with explicit precision instead of binary FLOAT.",
        ),
        EnumeratedTypes => (
            "Replace the fixed value set on ",
            " with a lookup table and a foreign key; new values then require an INSERT instead of \
             an ALTER.",
        ),
        ExternalDataStorage => (
            "",
            " stores file paths; store the content in the database (BLOB) or enforce path \
             integrity in one place — orphaned files violate integrity silently.",
        ),
        IndexOveruse => (
            "Drop or consolidate ",
            ": every write pays for index maintenance. Prefer one composite index serving several \
             queries over many single-column indexes.",
        ),
        IndexUnderuse => (
            "Create an index covering the predicate on ",
            " — the workload filters on it repeatedly without index support.",
        ),
        CloneTable => (
            "Merge the cloned tables (",
            ") into one table with a discriminator column; use partitioning if volume demands it.",
        ),
        ColumnWildcard => (
            "List the needed columns explicitly in ",
            "; SELECT * couples the application to the physical column order and fetches unused \
             data.",
        ),
        ConcatenateNulls => (
            "Wrap nullable operands in COALESCE(col, '') in ",
            ", or use CONCAT_WS — '||' yields NULL if any operand is NULL.",
        ),
        OrderingByRand => (
            "Avoid ORDER BY RAND() in ",
            ": pick a random key instead, e.g. \
             `WHERE key >= <random value> ORDER BY key LIMIT 1`, or sample row ids in the \
             application.",
        ),
        PatternMatching => (
            "The pattern predicate in ",
            " defeats indexing. Use a prefix pattern, a full-text index, or a dedicated search \
             engine for substring/regex search.",
        ),
        ImplicitColumns => (
            "Spell out the column list in ",
            "; implicit columns silently corrupt data when the schema evolves.",
        ),
        DistinctJoin => (
            "In ",
            ", DISTINCT hides duplicates created by the join; restructure as a semi-join \
             (EXISTS / IN) that never produces them.",
        ),
        TooManyJoins => (
            "",
            " exceeds the join threshold; consider materialising a pre-joined view, denormalising \
             hot attributes, or splitting the query.",
        ),
        ReadablePassword => (
            "Never store or compare plain-text passwords (",
            "); store a salted adaptive hash (bcrypt/argon2) and compare digests.",
        ),
        MissingTimezone => (
            "Declare ",
            " WITH TIME ZONE (or store UTC and convert at the edge); naive timestamps corrupt \
             cross-timezone data.",
        ),
        IncorrectDataType => (
            "",
            " stores numeric data as text; migrate to a numeric type to regain comparison \
             semantics, index order, and storage density.",
        ),
        DenormalizedTable => (
            "Extract the repeated values of ",
            " into a lookup table referenced by id.",
        ),
        InformationDuplication => (
            "",
            " stores derivable data; compute it at query time (or in a view/generated column) so \
             the two copies can never disagree.",
        ),
        RedundantColumn => ("", " carries no information (constant or all NULL); drop it."),
        NoDomainConstraint => (
            "Add a CHECK constraint to ",
            " enforcing the bounded domain the data already follows.",
        ),
    }
}

/// For No Primary Key advice: a unique-looking id column, if one exists.
fn pk_candidate(d: &Detection, ctx: &Context) -> Option<String> {
    let table = match &d.locus {
        Locus::Table { table } => table.clone(),
        Locus::Statement { index } => {
            ctx.statements.get(*index)?.ann.tables.first()?.to_string()
        }
        _ => return None,
    };
    let info = ctx.schema.table(&table)?;
    info.columns
        .iter()
        .find(|c| {
            let n = c.name.to_ascii_lowercase();
            n.ends_with("_id") || n == "id" || n.ends_with("_key")
        })
        .map(|c| c.name.to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;

    #[test]
    fn advice_is_site_specific() {
        let ctx = ContextBuilder::new()
            .add_script("CREATE TABLE t (tenant_id INT, x INT)")
            .build();
        let report = Detector::default().detect(&ctx);
        let d = report
            .detections
            .iter()
            .find(|d| d.kind == AntiPatternKind::NoPrimaryKey)
            .unwrap();
        let a = advice(d, &ctx);
        assert!(a.contains("statement #0"));
        assert!(a.contains("tenant_id"), "candidate key surfaced: {a}");
    }

    #[test]
    fn every_kind_has_nonempty_advice() {
        let ctx = ContextBuilder::new().build();
        for kind in AntiPatternKind::ALL {
            let d = Detection {
                kind,
                locus: Locus::Application,
                message: "".into(),
                source: crate::report::DetectionSource::IntraQuery,
                span: None,
            };
            assert!(!advice(&d, &ctx).is_empty());
        }
    }
}
