//! Shape-keyed analysis must be invisible in the output.
//!
//! The default front end parses the first text of each statement shape
//! (numeric-literal and bind-parameter values erased, everything else
//! byte-exact) and shares that parse with later texts of the shape; the
//! batch engine runs intra-query rules once per shared parse; fixes read
//! each statement's own parse. The legacy front end
//! (`FrontendOptions::legacy()` + `Detector::detect`) parses every
//! statement on its own and is the oracle: `check_script` and
//! `check_workload` at 1 and 2 threads must match it on detections
//! (Debug-formatted, so spans and messages included), ranking, fixes and
//! diagnostics.
//!
//! The scripts are random but seeded: DML templates re-issued with fresh
//! numbers of different lengths and with bind parameters of every form,
//! whitespace and comment variation, mixed with DDL, a trigger and a
//! procedure.

use sqlcheck::{
    AntiPatternKind, BatchOptions, CheckOutcome, Context, ContextBuilder, CustomRule, Detection,
    DetectionSource, Detector, Dialect, Diagnostic, FixEngine, FrontendOptions, Locus, Ranker,
    SqlCheck,
};
use sqlcheck_parser::ast::Statement;
use sqlcheck_minidb::stats::SmallRng;
use std::collections::HashSet;

/// A numeric literal or bind parameter of random form and length.
fn value(rng: &mut SmallRng) -> String {
    match rng.gen_range(9) {
        0 => "?".to_string(),
        1 => format!("${}", 1 + rng.gen_range(9)),
        2 => format!(":p{}", rng.gen_range(3)),
        3 => "%(name)s".to_string(),
        4 => format!("{}.{}", rng.gen_range(1000), rng.gen_range(100)),
        5 => format!("{}e{}", 1 + rng.gen_range(9), rng.gen_range(20)),
        6 => "0".to_string(),
        _ => {
            let digits = 1 + rng.gen_range(12);
            (0..digits).map(|i| char::from(b'0' + (i as u8 * 7 + rng.gen_range(10) as u8) % 10)).collect()
        }
    }
}

/// Inter-token separator: a space, or whitespace and comment variation.
fn gap(rng: &mut SmallRng) -> &'static str {
    const GAPS: &[&str] = &[" ", " ", " ", "  ", "\n\t", " /* c */ ", " -- note\n", "\n  "];
    GAPS[rng.gen_range(GAPS.len())]
}

/// One DML statement: a template with `{}` value slots filled, and each
/// space of the template replaced by a random gap.
fn dml(rng: &mut SmallRng) -> String {
    const TEMPLATES: &[&str] = &[
        "SELECT * FROM tab0 WHERE id = {}",
        "SELECT name FROM tab0 WHERE id = {} AND name LIKE '%x%'",
        "SELECT name FROM tab0 WHERE id > {} AND name LIKE 'x%'",
        "INSERT INTO tab0 VALUES ({}, 'v', {}, 'U1,U2', 'R1')",
        "INSERT INTO tab1 VALUES ({}, 'x', {})",
        "INSERT INTO tab1 (a, b, tab0_id) VALUES ({}, 'y', {})",
        "SELECT DISTINCT a.id FROM tab0 a JOIN tab1 b ON a.id = b.tab0_id WHERE b.a = {}",
        "SELECT * FROM tab1 ORDER BY RAND() LIMIT {}",
        "SELECT first || last FROM tab0 WHERE role = 'R1' AND id = {}",
        "UPDATE tab0 SET price = price * {} WHERE user_ids LIKE '%U1%'",
        "UPDATE tab0 SET password = 'pw' WHERE id = {}",
        "DELETE FROM tab1 WHERE a = {} AND b = 'q'",
        "SELECT * FROM tab0 JOIN tab1 ON tab1.tab0_id = tab0.id WHERE tab1.a IN ({}, {})",
        "SELECT id FROM tab0 WHERE role = 'R2' AND price < {}",
        "SELECT COUNT(*) FROM tab1 GROUP BY b HAVING COUNT(*) > {}",
    ];
    let template = TEMPLATES[rng.gen_range(TEMPLATES.len())];
    let mut out = String::new();
    for (i, part) in template.split("{}").enumerate() {
        if i > 0 {
            out.push_str(&value(rng));
        }
        for (j, word) in part.split(' ').enumerate() {
            if j > 0 {
                out.push_str(gap(rng));
            }
            out.push_str(word);
        }
    }
    out
}

fn random_script(rng: &mut SmallRng, statements: usize) -> String {
    let mut script = String::from(
        "CREATE TABLE tab0 (id INT PRIMARY KEY, name TEXT, price FLOAT, user_ids TEXT, \
         role VARCHAR(5), password TEXT, CONSTRAINT rc CHECK (role IN ('R1','R2')));\n\
         CREATE TABLE tab1 (a INT, b TEXT, tab0_id INT);\n",
    );
    for i in 0..statements {
        let stmt = match rng.gen_range(24) {
            0 => format!(
                "CREATE TRIGGER trg{i} AFTER INSERT ON tab0 FOR EACH ROW BEGIN \
                 INSERT INTO tab1 VALUES ({}, 'x', {}); \
                 SELECT * FROM tab1 ORDER BY RAND(); END",
                value(rng),
                value(rng)
            ),
            1 => format!(
                "CREATE PROCEDURE proc{i}() BEGIN \
                 UPDATE tab1 SET a = a + {} WHERE b LIKE '%z'; \
                 DELETE FROM tab1 WHERE a = {}; END",
                value(rng),
                value(rng)
            ),
            2 => format!("CREATE INDEX ix{i} ON tab1 (b)"),
            3 => format!("ALTER TABLE tab1 ADD CONSTRAINT ck{i} CHECK (b IN ('a','b'))"),
            _ => dml(rng),
        };
        script.push_str(&stmt);
        script.push_str(if rng.gen_range(4) == 0 { " ;\n\n" } else { ";\n" });
    }
    script
}

fn debug<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|x| format!("{x:?}")).collect()
}

/// Everything a check reports, rendered for comparison.
#[derive(Debug, PartialEq)]
struct Rendered {
    detections: Vec<String>,
    ranking: Vec<String>,
    fixes: Vec<String>,
    diagnostics: Vec<String>,
}

fn render(o: &CheckOutcome) -> Rendered {
    Rendered {
        detections: debug(&o.report.detections),
        ranking: o.ranked().iter().map(|r| format!("{:.9} {:?}", r.score, r.detection)).collect(),
        fixes: debug(o.fixes()),
        diagnostics: debug(&o.diagnostics),
    }
}

/// The legacy oracle: every statement parsed on its own, sequential
/// detection, the same ranker and fix engine, parse diagnostics
/// attributed to each text's first occurrence.
fn oracle(script: &str, dialect: Dialect) -> Rendered {
    let ctx = ContextBuilder::new()
        .with_frontend(FrontendOptions { dialect, ..FrontendOptions::legacy() })
        .add_script(script)
        .build();
    let report = Detector::default().detect(&ctx);
    let ranked = Ranker::default().rank(&report);
    let fixes = FixEngine.fix_all(ranked.iter().map(|r| &r.detection), &ctx);
    let mut diagnostics: Vec<Diagnostic> = ctx.diagnostics.clone();
    let mut seen = HashSet::new();
    for (idx, s) in ctx.statements.iter().enumerate() {
        if seen.insert(s.text_hash) {
            diagnostics.extend(s.diags.iter().map(|d| d.at(idx)));
        }
    }
    Rendered {
        detections: debug(&report.detections),
        ranking: ranked.iter().map(|r| format!("{:.9} {:?}", r.score, r.detection)).collect(),
        fixes: debug(&fixes),
        diagnostics: debug(&diagnostics),
    }
}

#[test]
fn shape_sharing_matches_the_legacy_oracle() {
    let mut rng = SmallRng::new(0x5AA9E);
    let mut shared_somewhere = false;
    for case in 0..24 {
        let n = 40 + rng.gen_range(80);
        let script = random_script(&mut rng, n);
        let want = oracle(&script, Dialect::Generic);
        let tool = SqlCheck::new();
        let script_run = tool.check_script_with_stats(&script);
        assert_eq!(render(&script_run.outcome), want, "check_script, case {case}:\n{script}");
        let stats = &script_run.stats;
        assert!(stats.parsed_texts <= stats.unique_texts, "case {case}");
        shared_somewhere |= stats.parsed_texts < stats.unique_texts;
        for threads in [1, 2] {
            let opts = BatchOptions { parallel: true, threads: Some(threads), ..BatchOptions::default() };
            let w = tool.check_workload(&script, &opts);
            assert_eq!(
                render(&w.outcome),
                want,
                "check_workload at {threads} thread(s), case {case}:\n{script}"
            );
        }
    }
    assert!(shared_somewhere, "the generator must produce texts that share a shape");
}

/// Fixes and impacted-query lists render each statement's own text and
/// numbers, even when its parse is shared with another text.
#[test]
fn fixes_read_each_statements_own_text() {
    let script = "CREATE TABLE t (id INT PRIMARY KEY, role TEXT, CHECK (role IN ('a','b')));\n\
                  SELECT * FROM t WHERE id = 1;\n\
                  SELECT * FROM t WHERE id = 22222;\n\
                  SELECT id FROM t WHERE role = 'a' AND id = ?;\n\
                  SELECT id FROM t WHERE role = 'a' AND id = :x;\n";
    let w = SqlCheck::new().check_script_with_stats(script);
    let ctx = &w.outcome.context;
    assert!(ctx.statements[2].shares_parse(), "the second SELECT * shares the first's parse");
    assert_eq!(ctx.statements[2].text(), "SELECT * FROM t WHERE id = 22222");
    assert_eq!(ctx.statements[2].exact().parsed.text(), "SELECT * FROM t WHERE id = 22222");
    assert_eq!(ctx.statements[2].parsed.text(), "SELECT * FROM t WHERE id = 1");
    let fixes = debug(w.outcome.fixes());
    assert!(fixes.iter().any(|f| f.contains("22222")), "{fixes:#?}");
    assert!(fixes.iter().any(|f| f.contains(":x")), "{fixes:#?}");
    assert_eq!(render(&w.outcome), oracle(script, Dialect::Generic));
    assert!(ctx.parsed_texts() > w.stats.parsed_texts, "fixes parsed shared texts on demand");
}

/// A dialect-specific lexing (MySQL `#` comments, backticks) goes
/// through the same shape-keyed path as Generic input.
#[test]
fn dialect_scripts_match_the_legacy_oracle() {
    let mut script = String::from("CREATE TABLE `t` (id INT PRIMARY KEY, v TEXT);\n");
    for i in 0..30 {
        script.push_str(&format!("SELECT * FROM `t` # pick {i}\n WHERE id = {i};\n"));
        script.push_str(&format!("INSERT INTO `t` VALUES ({i}, 'x');\n"));
    }
    let tool = SqlCheck::new().with_dialect(Dialect::MySql);
    assert_eq!(render(&tool.check_script(&script)), oracle(&script, Dialect::MySql));
    let w = tool.check_workload(&script, &BatchOptions::default());
    assert_eq!(render(&w.outcome), oracle(&script, Dialect::MySql));
    assert!(w.stats.parsed_texts < w.stats.unique_texts);
}

/// A custom rule that reads a literal value and the token text of
/// `parsed`: it flags a `LIMIT` above 1000, quoting the number and the
/// statement.
struct BigLimit;

const BIG_LIMIT: &str = "big LIMIT";

impl CustomRule for BigLimit {
    fn name(&self) -> &str {
        "big-limit"
    }

    fn detect(&self, ctx: &Context) -> Vec<Detection> {
        let mut out = Vec::new();
        for (index, s) in ctx.statements.iter().enumerate() {
            let Statement::Select(sel) = &s.parsed.stmt else { continue };
            let Some(limit) = sel.limit.as_deref() else { continue };
            if limit.parse::<f64>().is_ok_and(|n| n > 1000.0) {
                out.push(Detection {
                    kind: AntiPatternKind::ColumnWildcard,
                    locus: Locus::Statement { index },
                    message: format!("{BIG_LIMIT} {limit} in `{}`", s.parsed.text()).into(),
                    source: DetectionSource::InterQuery,
                    span: None,
                });
            }
        }
        out
    }
}

/// Custom rules see each statement's own parse: a registered rule that
/// reads numbers and token text reports exactly what it reports on a
/// context that shares nothing.
#[test]
fn custom_rules_see_each_statements_own_parse() {
    let key = |d: &Detection| format!("{:?} {}", d.locus, d.message);
    let mut rng = SmallRng::new(0xB16);
    let mut flagged = 0;
    for case in 0..8 {
        let mut script = random_script(&mut rng, 60);
        for i in 0..20 {
            script.push_str(&format!("SELECT * FROM tab1 ORDER BY RAND() LIMIT {};\n", 990 + i));
        }
        let legacy = ContextBuilder::new()
            .with_frontend(FrontendOptions::legacy())
            .add_script(&script)
            .build();
        let want: Vec<String> = BigLimit.detect(&legacy).iter().map(key).collect();
        flagged += want.len();
        let tool = SqlCheck::new().with_rule(Box::new(BigLimit));
        let runs = [
            tool.check_script_with_stats(&script),
            tool.check_workload(&script, &BatchOptions { threads: Some(2), ..BatchOptions::default() }),
        ];
        for w in runs {
            let got: Vec<String> = w
                .outcome
                .report
                .detections
                .iter()
                .filter(|d| d.message.starts_with(BIG_LIMIT))
                .map(key)
                .collect();
            assert_eq!(got, want, "case {case}:\n{script}");
            assert_eq!(w.stats.parsed_texts, w.stats.unique_texts, "case {case}: no sharing");
        }
    }
    assert!(flagged > 8 * 10, "every case flags its big LIMITs");
}

/// A shape whose first text parses with diagnostics cannot lend its
/// tree: every later text of the shape gets its own parse (on the
/// front-end workers), with its own diagnostics.
#[test]
fn unshareable_first_texts_fall_back_to_own_parses() {
    let mut script = String::from("CREATE TABLE t (id INT PRIMARY KEY, v TEXT);\n");
    for i in 0..40 {
        script.push_str(&format!("SELECT * FROM t WHERE id = {i} GARBAGE (((;\n"));
        script.push_str(&format!("SELECT v FROM t WHERE id = {};\n", i * 7));
    }
    let want = oracle(&script, Dialect::Generic);
    assert!(!want.diagnostics.is_empty(), "the degraded template has diagnostics");
    let tool = SqlCheck::new();
    let w = tool.check_script_with_stats(&script);
    assert_eq!(render(&w.outcome), want);
    // 1 DDL + 40 degraded texts parsed on their own + 1 plain shape.
    assert_eq!(w.stats.parsed_texts, 42);
    for threads in [1, 2] {
        let opts = BatchOptions { parallel: true, threads: Some(threads), ..BatchOptions::default() };
        let w = tool.check_workload(&script, &opts);
        assert_eq!(render(&w.outcome), want, "check_workload at {threads} thread(s)");
        assert_eq!(w.stats.parsed_texts, 42, "{threads} thread(s)");
    }
}
