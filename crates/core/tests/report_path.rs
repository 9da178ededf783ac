//! Properties of the report path's shortcuts, each checked against the
//! straightforward reference it replaces:
//!
//! * `FixEngine::fix_all` memoizes one structural transform per (kind,
//!   unique statement text or locus); it must equal `FixEngine::fix`
//!   applied to every detection on its own.
//! * `Ranker::rank` buckets detections by kind; it must equal a stable
//!   sort of every detection by (score descending, kind ascending) —
//!   kept below as `reference_rank` — including under weights that tie
//!   several kinds' scores.
//! * `SqlCheck::check_script` detects through the batch engine's
//!   single-thread path; its report and diagnostics must equal
//!   `Detector::detect` plus the custom-rule registry, except for the
//!   `rule-failed` diagnostics of isolated panics.
//!
//! The scripts are random but seeded (no proptest crate in this build):
//! heavy duplication, trigger bodies, DDL with CHECK lists, FLOAT and
//! id-list columns, indexes, and optionally an attached database.

use sqlcheck::{
    AntiPatternKind, CheckOutcome, Context, ContextBuilder, CustomRule, DataAnalysisConfig,
    Detection, DetectionSource, Detector, DiagKind, Diagnostic, FixEngine, FrontendOptions, Locus,
    RankWeights, RankedDetection, Ranker, Report, SqlCheck,
};
use sqlcheck_minidb::prelude::*;
use sqlcheck_minidb::stats::SmallRng;
use std::sync::Arc;

fn random_script(rng: &mut SmallRng, statements: usize) -> String {
    let tables = ["tab0", "tab1", "tab2"];
    let mut script = String::new();
    script.push_str(
        "CREATE TABLE tab0 (id INT PRIMARY KEY, name TEXT, price FLOAT, user_ids TEXT, \
         role VARCHAR(5), CONSTRAINT rc CHECK (role IN ('R1','R2')));\n",
    );
    script.push_str("CREATE TABLE tab1 (a INT, b TEXT, tab0_id INT);\n");
    if rng.gen_range(2) == 0 {
        script.push_str("CREATE TABLE tab2 (k INT PRIMARY KEY, v TEXT, amount REAL);\n");
    }
    let lits = ["1", "2", "42"];
    let pats = ["'%x%'", "'x%'", "'[[:<:]]U1[[:>:]]'"];
    for _ in 0..statements {
        let t = tables[rng.gen_range(tables.len())];
        let lit = lits[rng.gen_range(lits.len())];
        let pat = pats[rng.gen_range(pats.len())];
        let stmt = match rng.gen_range(12) {
            0 => format!("SELECT * FROM {t} WHERE id = {lit}"),
            1 => format!("SELECT name FROM {t} WHERE name LIKE {pat}"),
            2 => format!("INSERT INTO {t} VALUES ({lit}, 'v', 1.5, 'U1,U2', 'R1')"),
            3 => format!("INSERT INTO {t} VALUES ({lit}, 'x', {lit})"),
            4 => format!("SELECT DISTINCT a.id FROM {t} a JOIN tab1 b ON a.id = b.tab0_id"),
            5 => format!("SELECT * FROM {t} ORDER BY RAND()"),
            6 => format!("SELECT first || last FROM {t} WHERE role = 'R1'"),
            7 => format!(
                "CREATE TRIGGER trg_{t} AFTER INSERT ON {t} FOR EACH ROW BEGIN \
                 INSERT INTO {t} VALUES ({lit}, 'x', {lit}); \
                 SELECT * FROM {t} ORDER BY RAND(); \
                 UPDATE {t} SET name = {pat}; END"
            ),
            8 => format!("ALTER TABLE {t} ADD CONSTRAINT ck CHECK (b IN ('a','b','c'))"),
            9 => format!("CREATE INDEX ix_{t}_{lit} ON {t} (name)"),
            10 => format!("SELECT * FROM {t} JOIN tab1 ON tab1.tab0_id = {t}.id WHERE b = 'q'"),
            _ => format!("UPDATE {t} SET price = price * 1.1 WHERE user_ids LIKE {pat}"),
        };
        script.push_str(&stmt);
        script.push_str(";\n");
    }
    script
}

fn database(rng: &mut SmallRng) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new("tab0")
            .column(Column::new("id", DataType::Int).not_null())
            .column(Column::new("name", DataType::Text))
            .column(Column::new("role", DataType::Text))
            .primary_key(&["id"]),
    )
    .expect("create table");
    for i in 0..40 {
        let role = format!("R{}", rng.gen_range(3));
        db.insert("tab0", vec![Value::Int(i), Value::text("same"), Value::text(role)])
            .expect("insert row");
    }
    db
}

fn debug<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|x| format!("{x:?}")).collect()
}

/// The ranking before bucketing: a stable sort of every detection.
fn reference_rank(ranker: &Ranker, report: &Report) -> Vec<RankedDetection> {
    let mut ranked: Vec<RankedDetection> = report
        .detections
        .iter()
        .map(|d| {
            let metrics = ranker.metrics.get(d.kind);
            RankedDetection {
                detection: d.clone(),
                metrics,
                score: sqlcheck::rank::score(&metrics, &ranker.weights),
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.detection.kind.cmp(&b.detection.kind))
    });
    ranked
}

/// Cases: (seed, script, optional database).
fn cases() -> impl Iterator<Item = (u64, String, Option<Database>)> {
    (0..48u64).map(|seed| {
        let mut rng = SmallRng::new(0x5eed_0000 + seed);
        let n = 4 + rng.gen_range(60);
        let script = random_script(&mut rng, n);
        let db = (seed % 3 == 0).then(|| database(&mut rng));
        (seed, script, db)
    })
}

fn tool(db: Option<Database>) -> SqlCheck {
    match db {
        Some(db) => SqlCheck::new().with_database(db),
        None => SqlCheck::new(),
    }
}

#[test]
fn memoized_fix_all_equals_per_detection_fix() {
    // [rewrite, schema change with impacted queries, textual, data rule,
    // trigger-body finding]: every shape occurs somewhere in the cases.
    let mut seen = [false; 5];
    for (seed, script, db) in cases() {
        let outcome = tool(db).check_script(&script);
        let ctx = &outcome.context;
        for f in outcome.fixes() {
            match &f.fix {
                sqlcheck::Fix::Rewrite { .. } => seen[0] = true,
                sqlcheck::Fix::SchemaChange { impacted_queries, .. } => {
                    seen[1] |= !impacted_queries.is_empty()
                }
                sqlcheck::Fix::Textual { .. } => seen[2] = true,
            }
            let d = &f.detection;
            seen[3] |= d.source == DetectionSource::DataAnalysis;
            seen[4] |= d.statement_index().is_some_and(|i| {
                ctx.statements[i].parsed.text().starts_with("CREATE TRIGGER")
            });
        }
        let ranked: Vec<Detection> =
            outcome.ranked().iter().map(|r| r.detection.clone()).collect();
        for (order, dets) in [("report", &outcome.report.detections), ("ranked", &ranked)] {
            let memo = FixEngine.fix_all(dets, ctx);
            assert_eq!(memo.len(), dets.len());
            for (i, (m, d)) in memo.iter().zip(dets.iter()).enumerate() {
                assert_eq!(m.detection, *d, "seed {seed} {order} #{i}");
                assert_eq!(
                    format!("{:?}", m.fix),
                    format!("{:?}", FixEngine.fix(d, ctx)),
                    "seed {seed} {order} #{i}: {d}"
                );
            }
        }
        assert_eq!(debug(outcome.fixes()), debug(FixEngine.fix_all(&ranked, ctx)), "seed {seed}");
    }
    assert_eq!(seen, [true; 5], "case coverage");
}

#[test]
fn memo_covers_duplicates_and_non_statement_loci() {
    // Many detections share a text or a column locus; fixes still name
    // their own occurrence.
    let sql = "CREATE TABLE t (id INT PRIMARY KEY, zone TEXT);\n".to_string()
        + &"SELECT * FROM t WHERE zone = 'Z';\n".repeat(5)
        + &"SELECT * FROM u ORDER BY RAND();\n".repeat(3);
    let outcome = SqlCheck::new().check_script(&sql);
    let fixes = outcome.fixes();
    let advice: Vec<&str> = fixes
        .iter()
        .filter(|f| f.detection.kind == AntiPatternKind::OrderingByRand)
        .map(|f| match &f.fix {
            sqlcheck::Fix::Textual { advice } => advice.as_str(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(advice.len(), 3);
    for (i, a) in advice.iter().enumerate() {
        assert!(a.contains(&format!("statement #{}", 6 + i)), "{a}");
    }
    let rewrites = fixes
        .iter()
        .filter(|f| {
            f.detection.kind == AntiPatternKind::ColumnWildcard
                && matches!(f.fix, sqlcheck::Fix::Rewrite { .. })
        })
        .count();
    assert_eq!(rewrites, 5);
}

#[test]
fn bucketed_rank_equals_stable_sort() {
    let tie = RankWeights::custom(0.0, 0.0, 0.0, 0.0, 1.0, 0.0);
    let weights = [RankWeights::C1, RankWeights::C2, tie];
    let mut tied = false;
    for (seed, script, db) in cases() {
        let outcome = tool(db).check_script(&script);
        for w in weights {
            let ranker = Ranker::with_weights(w);
            let got = ranker.rank(&outcome.report);
            let want = reference_rank(&ranker, &outcome.report);
            assert_eq!(debug(&got), debug(&want), "seed {seed} weights {w:?}");
            tied |= got.windows(2).any(|p| {
                p[0].score == p[1].score && p[0].detection.kind != p[1].detection.kind
            });
        }
    }
    assert!(tied, "some case ties two kinds' scores");
}

#[test]
fn rank_keeps_report_order_within_a_kind() {
    // Interleaved kinds: each kind's detections keep their report order.
    let kinds = [
        AntiPatternKind::RoundingErrors,
        AntiPatternKind::ColumnWildcard,
        AntiPatternKind::NoPrimaryKey,
        AntiPatternKind::ReadablePassword,
    ];
    let mut report = Report::default();
    for i in 0..40 {
        report.detections.push(Detection {
            kind: kinds[i % kinds.len()],
            locus: Locus::Statement { index: 39 - i },
            message: format!("{i}").into(),
            source: DetectionSource::IntraQuery,
            span: None,
        });
    }
    let tie = RankWeights::custom(0.0, 0.0, 0.0, 0.0, 1.0, 0.0);
    for w in [RankWeights::C1, RankWeights::C2, tie] {
        let ranker = Ranker::with_weights(w);
        assert_eq!(debug(ranker.rank(&report)), debug(reference_rank(&ranker, &report)));
    }
}

/// A custom rule flagging every `UPDATE` statement; optionally panics.
struct UpdateRule {
    panics: bool,
}

impl CustomRule for UpdateRule {
    fn name(&self) -> &str {
        if self.panics {
            "faulty-update-rule"
        } else {
            "update-rule"
        }
    }

    fn detect(&self, ctx: &Context) -> Vec<Detection> {
        assert!(!self.panics, "injected fault in a custom rule");
        ctx.statements
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parsed.text().starts_with("UPDATE"))
            .map(|(index, _)| Detection {
                kind: AntiPatternKind::DataInMetadata,
                locus: Locus::Statement { index },
                message: "custom: update".into(),
                source: DetectionSource::InterQuery,
                span: None,
            })
            .collect()
    }
}

/// The pre-batch `check_script`: `Detector::detect`, then each custom
/// rule (a panicking one contributes nothing), then default spans; and
/// the context's parse diagnostics, first occurrence of each text.
fn reference_check(
    script: &str,
    db: Option<Arc<Database>>,
    rules: &[UpdateRule],
) -> (Report, Vec<Diagnostic>) {
    let mut builder = ContextBuilder::new().with_frontend(FrontendOptions::default()).add_script(script);
    if let Some(db) = db {
        builder = builder.with_shared_database(db, DataAnalysisConfig::default());
    }
    let ctx = builder.build();
    let mut report = Detector::default().detect(&ctx);
    for rule in rules {
        let Ok(mut extra) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rule.detect(&ctx)))
        else {
            continue;
        };
        for d in &mut extra {
            if let (None, Some(i)) = (d.span, d.statement_index()) {
                d.span = Some(ctx.statements[i].span);
            }
        }
        report.detections.extend(extra);
    }
    let mut diags = ctx.diagnostics.clone();
    let mut seen = std::collections::HashSet::new();
    for (idx, s) in ctx.statements.iter().enumerate() {
        if seen.insert(s.text_hash) {
            diags.extend(s.diags.iter().map(|d| d.at(idx)));
        }
    }
    (report, diags)
}

fn without_rule_failures(diags: &[Diagnostic]) -> Vec<String> {
    debug(diags.iter().filter(|d| d.kind != DiagKind::RuleFailed))
}

#[test]
fn check_script_equals_sequential_detector_plus_registry() {
    for (seed, script, db) in cases() {
        let db = db.map(Arc::new);
        for fault in [false, true] {
            let mut tool = SqlCheck::new().with_rule(Box::new(UpdateRule { panics: false }));
            let mut rules = vec![UpdateRule { panics: false }];
            if fault {
                tool = tool.with_rule(Box::new(UpdateRule { panics: true }));
                rules.push(UpdateRule { panics: true });
            }
            if let Some(db) = &db {
                tool = tool.with_database((**db).clone());
            }
            let outcome: CheckOutcome = tool.check_script(&script);
            let (report, diags) = reference_check(&script, db.clone(), &rules);
            assert_eq!(
                debug(&outcome.report.detections),
                debug(&report.detections),
                "seed {seed} fault {fault}"
            );
            assert_eq!(
                without_rule_failures(&outcome.diagnostics),
                without_rule_failures(&diags),
                "seed {seed} fault {fault}"
            );
            let failures: Vec<&Diagnostic> =
                outcome.diagnostics.iter().filter(|d| d.kind == DiagKind::RuleFailed).collect();
            assert_eq!(failures.len(), usize::from(fault), "seed {seed}: {failures:?}");
            if fault {
                assert!(failures[0].detail.contains("faulty-update-rule"), "{failures:?}");
            }
        }
    }
}
