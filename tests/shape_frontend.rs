//! Deterministic gate on the shape-keyed front end (counts, no timing).
//!
//! A query log of one hot template with fresh bind values must parse
//! that template once, not once per text: on a 20k-statement skewed log
//! both entry points parse at most ~one text per template, fixes
//! included. That holds while the hot template needs no rewrite fix: a
//! rewrite renders each text's own numbers, so a text whose fix is a
//! rewrite is parsed once more, on demand — and only then. Workloads
//! whose shapes equal their texts (plain, trigger) parse every unique
//! text exactly once, as before.

use sqlcheck::{AntiPatternKind, BatchOptions, Fix, SqlCheck, WorkloadOutcome};
use sqlcheck_bench::experiments::throughput::script_for_shape;
use std::collections::HashSet;

fn both_entry_points(script: &str) -> [(&'static str, WorkloadOutcome); 2] {
    let tool = SqlCheck::new();
    [
        ("check_script", tool.check_script_with_stats(script)),
        ("check_workload", tool.check_workload(script, &BatchOptions::default())),
    ]
}

#[test]
fn skewed_log_parses_each_shape_once() {
    let script = script_for_shape("skewed", 20_000, 100, 0x5EED);
    for (entry, w) in both_entry_points(&script) {
        // Ranking and fixes run too: a fix that needs a statement's own
        // text may parse it on demand, and that counts.
        assert!(!w.outcome.fixes().is_empty(), "{entry}: the log has findings");
        let parsed = w.outcome.context.parsed_texts();
        assert!(
            parsed <= 110,
            "{entry}: {parsed} texts parsed for {} unique texts",
            w.stats.unique_texts
        );
        assert!(w.stats.unique_texts > 15_000, "{entry}: the hot template varies its literal");
        assert_eq!(w.stats.parsed_texts, w.stats.unique_shapes, "{entry}");
    }
}

#[test]
fn shape_distinct_workloads_parse_every_unique_text() {
    for shape in ["plain", "trigger"] {
        let script = script_for_shape(shape, 20_000, 100, 0x5EED);
        for (entry, w) in both_entry_points(&script) {
            let _ = w.outcome.fixes();
            assert_eq!(w.stats.parsed_texts, w.stats.unique_texts, "{shape} via {entry}");
            assert_eq!(
                w.outcome.context.parsed_texts(),
                w.stats.unique_texts,
                "{shape} via {entry}: no on-demand parses"
            );
        }
    }
}

/// The usual ORM log: the hot template is `SELECT * FROM app_hot WHERE
/// c0 = N`, a Column Wildcard finding in every text. Without `app_hot` in
/// the schema the rewrite cannot apply, which the shape tree already
/// tells, so no text is parsed again. With it, each hot text's rewrite
/// names its own number, and exactly the sharing texts whose fix is a
/// rewrite are parsed on demand, once each.
#[test]
fn wildcard_hot_template_parses_own_texts_only_for_rewrites() {
    let with_schema = script_for_shape("skewed_wildcard", 20_000, 100, 0x5EED);
    let (ddl, without_schema) = with_schema.split_once('\n').expect("a DDL line first");
    assert!(ddl.starts_with("CREATE TABLE app_hot"), "{ddl}");
    for (entry, w) in both_entry_points(without_schema) {
        let fixes = w.outcome.fixes();
        let wildcards =
            fixes.iter().filter(|f| f.detection.kind == AntiPatternKind::ColumnWildcard).count();
        assert!(wildcards > 15_000, "{entry}: every hot text is a finding");
        let parsed = w.outcome.context.parsed_texts();
        assert!(parsed <= 110, "{entry}: {parsed} texts parsed without a schema for app_hot");
        assert_eq!(w.stats.parsed_texts, w.stats.unique_shapes, "{entry}");
    }
    for (entry, w) in both_entry_points(&with_schema) {
        let ctx = &w.outcome.context;
        let mut rewritten = HashSet::new();
        for f in w.outcome.fixes() {
            let Some(i) = f.detection.statement_index() else { continue };
            let s = &ctx.statements[i];
            if matches!(f.fix, Fix::Rewrite { .. }) && s.shares_parse() {
                rewritten.insert(s.text_hash);
            }
        }
        assert!(rewritten.len() > 15_000, "{entry}: every hot text gets its own rewrite");
        assert_eq!(w.stats.parsed_texts, w.stats.unique_shapes, "{entry}");
        assert_eq!(
            ctx.parsed_texts(),
            w.stats.parsed_texts + rewritten.len(),
            "{entry}: one on-demand parse per rewritten text, none for the rest"
        );
    }
}
