//! Rule registry (§7, *Extensibility*).
//!
//! "A developer may add a new AP rule that implements the generic rule
//! interface (name, type, detection rule, ranking metrics, and repair
//! rule) and register it in the sqlcheck rule registry."

use crate::context::Context;
use crate::rank::ApMetrics;
use crate::report::Detection;

/// The generic rule interface.
pub trait CustomRule: Send + Sync {
    /// Rule name (for reports and debugging).
    fn name(&self) -> &str;
    /// Detection: inspect the context, emit detections.
    ///
    /// Under [`crate::SqlCheck`] every statement's `parsed` tree is its
    /// own parse, literal values and token text included (registering a
    /// rule turns shape sharing off). A context built directly with
    /// [`crate::ContextBuilder`] shares one tree per statement shape by
    /// default; read [`crate::context::AnalyzedStatement::exact`] there.
    fn detect(&self, ctx: &Context) -> Vec<Detection>;
    /// Ranking metrics for the detections this rule emits.
    fn metrics(&self) -> ApMetrics {
        ApMetrics::NEUTRAL
    }
    /// Optional textual repair advice.
    fn repair(&self, _detection: &Detection) -> Option<String> {
        None
    }
}

/// A registry of custom rules, applied after the built-in phases.
#[derive(Default)]
pub struct RuleRegistry {
    rules: Vec<Box<dyn CustomRule>>,
}

impl RuleRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule.
    pub fn register(&mut self, rule: Box<dyn CustomRule>) {
        self.rules.push(rule);
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Run every registered rule.
    pub fn detect_all(&self, ctx: &Context) -> Vec<Detection> {
        self.rules.iter().flat_map(|r| r.detect(ctx)).collect()
    }

    /// Name of rule `i` (for diagnostics and reports).
    pub fn rule_name(&self, i: usize) -> &str {
        self.rules[i].name()
    }

    /// Run rule `i` alone — the per-unit entry point the pipeline uses to
    /// execute custom rules under panic isolation.
    pub fn detect_one(&self, i: usize, ctx: &Context) -> Vec<Detection> {
        self.rules[i].detect(ctx)
    }

    /// Find the repair advice for a detection, consulting rules in order.
    pub fn repair(&self, detection: &Detection) -> Option<String> {
        self.rules.iter().find_map(|r| r.repair(detection))
    }
}

impl std::fmt::Debug for RuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.rules.iter().map(|r| r.name()).collect();
        f.debug_struct("RuleRegistry").field("rules", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anti_pattern::AntiPatternKind;
    use crate::context::ContextBuilder;
    use crate::report::{DetectionSource, Locus};

    struct NoLimitRule;

    impl CustomRule for NoLimitRule {
        fn name(&self) -> &str {
            "select-without-limit"
        }

        fn detect(&self, ctx: &Context) -> Vec<Detection> {
            ctx.statements
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    if let sqlcheck_parser::ast::Statement::Select(sel) = &s.parsed.stmt {
                        if sel.limit.is_none() && sel.where_clause.is_none() {
                            return Some(Detection {
                                kind: AntiPatternKind::ColumnWildcard, // reuse a kind
                                locus: Locus::Statement { index: i },
                                message: "unbounded SELECT".into(),
                                source: DetectionSource::InterQuery,
                                span: None,
                            });
                        }
                    }
                    None
                })
                .collect()
        }

        fn repair(&self, _d: &Detection) -> Option<String> {
            Some("add a LIMIT or a WHERE clause".into())
        }
    }

    #[test]
    fn custom_rule_runs_and_repairs() {
        let mut reg = RuleRegistry::new();
        reg.register(Box::new(NoLimitRule));
        assert_eq!(reg.len(), 1);
        let ctx = ContextBuilder::new().add_script("SELECT a FROM t").build();
        let dets = reg.detect_all(&ctx);
        assert_eq!(dets.len(), 1);
        assert_eq!(reg.repair(&dets[0]).unwrap(), "add a LIMIT or a WHERE clause");
    }
}
