//! Seeded inputs. The scripts come from the repository's own workload
//! generators (`script_for_shape`, the shapes every throughput and e2e
//! bench row is tagged with), so the benchmark runs the inputs those rows
//! run. Each statement's shape, which keys the known answers in
//! [`crate::answers`], is read back from its text.

use sqlcheck_bench::experiments::throughput::script_for_shape;
use sqlcheck_minidb::stats::SmallRng;

/// Which generator template a statement was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One of the eight plain templates: `k % 8` for table `app_t{k}`.
    Plain(u8),
    /// The skewed script's hot template (`app_hot`).
    Hot,
    /// The skewed script's 400-body procedure (`giant_migration`).
    Giant,
    /// One of the three compound templates: `trg{k}`, `chk{k}`, `proc{k}`.
    Compound(u8),
}

/// The statements of a generated script. Every statement ends in `;\n`;
/// the semicolons inside compound bodies are followed by a space.
pub fn split_statements(text: &str) -> impl Iterator<Item = &str> {
    text.split_terminator(";\n")
}

/// The template `stmt` was drawn from, or `None` for a text no generator
/// makes.
pub fn shape_of(stmt: &str) -> Option<Shape> {
    const COMPOUND: [&str; 3] = [
        "CREATE TRIGGER trg",
        "CREATE TRIGGER chk",
        "CREATE PROCEDURE proc",
    ];
    if stmt.starts_with("CREATE PROCEDURE giant_migration()") {
        return Some(Shape::Giant);
    }
    if let Some(i) = COMPOUND.iter().position(|p| stmt.starts_with(p)) {
        return Some(Shape::Compound(i as u8));
    }
    if stmt.contains(" FROM app_hot ") {
        return Some(Shape::Hot);
    }
    let (_, rest) = stmt.split_once("app_t")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let k: usize = rest[..digits].parse().ok()?;
    Some(Shape::Plain((k % 8) as u8))
}

/// A generated script and the shape of each of its statements, in order.
#[derive(Debug, Clone)]
pub struct Script {
    pub text: String,
    pub shapes: Vec<Shape>,
}

impl Script {
    /// `script_for_shape(shape, ..)` with its statements' shapes.
    pub fn of_shape(shape: &str, count: usize, templates: usize, seed: u64) -> Script {
        let text = script_for_shape(shape, count, templates, seed);
        let shapes = split_statements(&text)
            .map(|s| shape_of(s).unwrap_or_else(|| panic!("no known shape: {s}")))
            .collect();
        Script { text, shapes }
    }
}

/// One editor action: the statements to replace and their new texts.
/// A replacement holding two statements changes the statement count.
#[derive(Debug, Clone)]
pub struct EditStep {
    pub edits: Vec<(usize, String)>,
}

/// Templates the edit texts are drawn from. The base scripts use the
/// first 100, so nearly every edit text is new to the session.
const EDIT_TEMPLATES: usize = 16_000;

/// An endless, seeded stream of editor actions against a script of
/// `statements` statements. Each action replaces 1–4 distinct statements
/// with one statement each; every 20th replaces one statement with two,
/// growing the script by one. The new texts are the distinct statements
/// of a trigger-shaped script over [`EDIT_TEMPLATES`] templates, taken in
/// order (about 10k before the stream wraps around).
#[derive(Debug, Clone)]
pub struct EditGen {
    rng: SmallRng,
    pool: Vec<String>,
    next: usize,
    statements: usize,
    step: usize,
}

impl EditGen {
    pub fn new(statements: usize, seed: u64) -> Self {
        let source = script_for_shape("trigger", EDIT_TEMPLATES, EDIT_TEMPLATES, seed ^ 0xED17);
        let mut seen = std::collections::HashSet::new();
        let pool = split_statements(&source)
            .filter(|s| seen.insert(*s))
            .map(str::to_string)
            .collect();
        EditGen {
            rng: SmallRng::new(seed ^ 0xED17_5EED),
            pool,
            next: 0,
            statements,
            step: 0,
        }
    }

    fn text(&mut self) -> String {
        let t = self.pool[self.next % self.pool.len()].clone();
        self.next += 1;
        t
    }
}

impl Iterator for EditGen {
    type Item = EditStep;

    fn next(&mut self) -> Option<EditStep> {
        self.step += 1;
        let n = self.statements;
        let mut edits: Vec<(usize, String)> = Vec::new();
        if self.step.is_multiple_of(20) {
            let (a, b) = (self.text(), self.text());
            edits.push((self.rng.gen_range(n), format!("{a};\n{b}")));
            self.statements += 1;
        } else {
            let count = 1 + self.rng.gen_range(4);
            while edits.len() < count {
                let idx = self.rng.gen_range(n);
                if edits.iter().all(|(i, _)| *i != idx) {
                    let t = self.text();
                    edits.push((idx, t));
                }
            }
        }
        Some(EditStep { edits })
    }
}
