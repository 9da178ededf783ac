//! The benchmark's own smoke test, at a tiny scale: every metric it
//! prints is declared in `BENCHMARK.json` with the same unit, inputs
//! repeat exactly for a seed and change with it, and the known-answer
//! checks fire on corrupted output.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::answers::{expected_findings, parse_listing};
use perfbench::logs::{check_listing, Log};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{cli, corpus, gen, session, RunConfig, Scale, WORKLOADS};
use sqlcheck::{BatchOptions, SqlCheck};
use std::collections::BTreeMap;

/// A minimal JSON value, enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected '{}' at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("UTF-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = cli::repo_root().join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(owned(END_TO_END), declared("end_to_end"));
    assert_eq!(owned(PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunConfig {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.05,
                trace,
                scale: Scale::Tiny,
            };
            let outcome = perfbench::run(&cfg).expect("tiny run");
            let table = if trace { PER_LAYER } else { END_TO_END };
            let line = Json::parse(&outcome.to_json(table));
            assert_eq!(
                line.get("correct"),
                &Json::Bool(true),
                "{workload} trace={trace}: {line:?}"
            );
            assert_eq!(
                line.get("failed"),
                &Json::Num(0.0),
                "{workload} trace={trace}"
            );
            let printed: Vec<(String, String)> = match line.get("metrics") {
                Json::Obj(m) => m
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                    .collect(),
                other => panic!("metrics is not an object: {other:?}"),
            };
            let mut want = declared(section);
            want.sort();
            assert_eq!(printed, want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn inputs_repeat_for_a_seed_and_change_with_it() {
    for log in [Log::Plain, Log::Skewed] {
        assert_eq!(
            log.script(Scale::Tiny, 5).text,
            log.script(Scale::Tiny, 5).text
        );
        assert_ne!(
            log.script(Scale::Tiny, 5).text,
            log.script(Scale::Tiny, 6).text
        );
    }
    let base = |seed| session::base_script(Scale::Tiny, seed);
    assert_eq!(base(5), base(5));
    assert_ne!(base(5), base(6));
    let edits = |seed| -> Vec<Vec<(usize, String)>> {
        gen::EditGen::new(120, seed)
            .take(50)
            .map(|s| s.edits)
            .collect()
    };
    assert_eq!(edits(5), edits(5));
    assert_ne!(edits(5), edits(6));
    let scripts = |seed| -> Vec<String> {
        corpus::corpus(Scale::Tiny, seed)
            .iter()
            .map(|r| r.script())
            .collect()
    };
    assert_eq!(scripts(5), scripts(5));
    assert_ne!(scripts(5), scripts(6));
}

#[test]
fn listing_check_fires_on_corrupted_cli_output() {
    let work = cli::work_dir().expect("work dir");
    let bin = cli::build(&work).expect("CLI builds");
    let script = Log::Plain.script(Scale::Tiny, 9);
    let input = work.join("smoke-plain.sql");
    std::fs::write(&input, &script.text).unwrap();
    let expected = expected_findings(&script.shapes);
    let mut out = Vec::new();
    let inv = cli::run(&bin, &input, &mut out).expect("CLI runs");
    assert!(
        check_listing(&out, inv.code, &expected).ok,
        "the real output passes"
    );
    let text = String::from_utf8(out).unwrap();
    assert!(parse_listing(&text).entries > 0);

    // A wrong exit code.
    assert!(!check_listing(text.as_bytes(), Some(0), &expected).ok);
    // A finding relabelled as another kind.
    let relabelled = text.replacen("Pattern Matching (", "Column Wildcard Usage (", 1);
    assert_ne!(relabelled, text);
    assert!(!check_listing(relabelled.as_bytes(), inv.code, &expected).ok);
    // A finding moved to another statement.
    let moved = text.replacen("@ statement #", "@ statement #1", 1);
    assert!(!check_listing(moved.as_bytes(), inv.code, &expected).ok);
    // A finding dropped.
    let first_entry = text.lines().next().unwrap();
    let dropped = text.replacen(first_entry, "", 1);
    assert!(!check_listing(dropped.as_bytes(), inv.code, &expected).ok);
    // A finding listed twice.
    let doubled = format!("{first_entry}\n{text}");
    assert!(!check_listing(doubled.as_bytes(), inv.code, &expected).ok);
}

#[test]
fn corpus_and_session_checks_fire_on_corrupted_output() {
    let repos = corpus::corpus(Scale::Tiny, 3);
    let (a, b) = (repos[0].script(), repos[1].script());
    let tool = SqlCheck::new();
    let checked = tool.check_workload(&a, &BatchOptions::default());
    assert!(corpus::verify(&tool, &a, &checked.outcome));
    assert!(
        !corpus::verify(&tool, &b, &checked.outcome),
        "another repository's result"
    );

    let base = session::base_script(Scale::Tiny, 3);
    let (mut s, _cache) = session::open(&base);
    let step = gen::EditGen::new(120, 3).next().unwrap();
    let edits: Vec<sqlcheck::Edit> = step
        .edits
        .iter()
        .map(|(i, t)| sqlcheck::Edit::new(*i, t.as_str()))
        .collect();
    s.recheck(&edits);
    assert!(session::verify(&s.outcome().outcome, s.script()).0);
    assert!(
        !session::verify(&s.outcome().outcome, &base).0,
        "the pre-edit script's answer"
    );
}
