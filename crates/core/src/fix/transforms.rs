//! Non-ambiguous query/schema transformations (§6.1).
//!
//! Each function returns `Some(Fix)` when the context carries enough
//! syntactic information to transform safely, `None` to fall back to a
//! textual fix. Rewrites go through the AST and are rendered with
//! [`ToSql`], matching the paper's "transforms the parse tree to a SQL
//! string" step.
//!
//! Rewrites render a statement's own text and literal values, so they
//! read the statement's own parse ([`AnalyzedStatement::with_own_parse`])
//! or source text, never the shape tree a statement may share with texts
//! that differ in numeric values. Sites that only name tables and
//! columns read the shape tree: names and string literals are part of
//! the shape.
//!
//! [`AnalyzedStatement::with_own_parse`]: crate::context::AnalyzedStatement::with_own_parse

use crate::anti_pattern::AntiPatternKind;
use crate::context::Context;
use crate::fix::Fix;
use crate::report::{Detection, Locus};
use sqlcheck_parser::arena::{ExprArena, ExprId, ExprRange};
use sqlcheck_parser::ast::*;
use sqlcheck_parser::render::ToSql;
use sqlcheck_parser::IStr;

/// A rewrite of one statement's parse that reads only that parse and the
/// schema. Whether it applies depends only on the statement's shape —
/// its structure, names, string literals and the schema, never a numeric
/// or parameter value — while its output renders the parse's own text
/// and values.
pub type StatementRewrite = fn(&ParsedStatement, &Context) -> Option<Fix>;

/// The statement rewrite for `kind`, if its fix is one.
pub fn statement_rewrite(kind: AntiPatternKind) -> Option<StatementRewrite> {
    use AntiPatternKind::*;
    match kind {
        ImplicitColumns => Some(implicit_columns),
        ColumnWildcard => Some(column_wildcard),
        ConcatenateNulls => Some(concatenate_nulls),
        DistinctJoin => Some(distinct_join),
        _ => None,
    }
}

/// Implicit Columns (Example 2): add the explicit column list from the
/// schema. Requires the schema to know the table and the arities to match.
pub fn implicit_columns(parsed: &ParsedStatement, ctx: &Context) -> Option<Fix> {
    let Statement::Insert(ins) = &parsed.stmt else { return None };
    if !ins.columns.is_empty() {
        return None;
    }
    let table = ctx.schema.table(ins.table.name())?;
    let InsertSource::Values(rows) = &ins.source else { return None };
    let arity = rows.first()?.len();
    if table.columns.len() != arity {
        return None; // ambiguous — the paper falls back to a textual fix
    }
    let mut fixed = ins.clone();
    fixed.columns = table.columns.iter().map(|c| c.name.clone()).collect();
    Some(Fix::Rewrite { original: parsed.text(), fixed: fixed.to_sql(&parsed.arena) })
}

/// Column Wildcard: expand `*` to the explicit column list when every
/// table in scope is known to the schema.
pub fn column_wildcard(parsed: &ParsedStatement, ctx: &Context) -> Option<Fix> {
    let Statement::Select(sel) = &parsed.stmt else { return None };
    // New column-reference nodes go into a copy of the statement's arena
    // (existing ids stay valid — the arena is append-only).
    let mut arena = parsed.arena.clone();
    let mut fixed = sel.clone();
    let mut new_items = Vec::new();
    for item in &fixed.items {
        match item {
            SelectItem::Wildcard { qualifier } => {
                let expansions = expand_wildcard(sel, qualifier.as_deref(), ctx, &mut arena)?;
                new_items.extend(expansions);
            }
            other => new_items.push(other.clone()),
        }
    }
    fixed.items = new_items;
    Some(Fix::Rewrite { original: parsed.text(), fixed: fixed.to_sql(&arena) })
}

fn expand_wildcard(
    sel: &Select,
    qualifier: Option<&str>,
    ctx: &Context,
    arena: &mut ExprArena,
) -> Option<Vec<SelectItem>> {
    let tables: Vec<&TableRef> = match qualifier {
        Some(q) => sel
            .tables()
            .into_iter()
            .filter(|t| t.binding().eq_ignore_ascii_case(q))
            .collect(),
        None => sel.tables(),
    };
    if tables.is_empty() {
        return None;
    }
    let mut items = Vec::new();
    let multi = tables.len() > 1;
    for t in tables {
        if t.subquery.is_some() {
            return None;
        }
        let info = ctx.schema.table(t.name.name())?;
        if info.columns.is_empty() {
            return None;
        }
        for c in &info.columns {
            let expr = if multi || qualifier.is_some() {
                Expr::Ident(vec![t.binding().into(), c.name.clone()])
            } else {
                Expr::ident(c.name.clone())
            };
            items.push(SelectItem::Expr { expr: arena.alloc(expr), alias: None });
        }
    }
    Some(items)
}

/// Concatenate Nulls: wrap nullable identifier operands of `||` in
/// `COALESCE(x, '')`.
pub fn concatenate_nulls(parsed: &ParsedStatement, _ctx: &Context) -> Option<Fix> {
    let Statement::Select(sel) = &parsed.stmt else { return None };
    let mut arena = parsed.arena.clone();
    let mut fixed = sel.clone();
    let mut changed = false;
    for item in &mut fixed.items {
        if let SelectItem::Expr { expr, .. } = item {
            *expr = rewrite_concat(&mut arena, *expr, &mut changed);
        }
    }
    if let Some(w) = fixed.where_clause.take() {
        fixed.where_clause = Some(rewrite_concat(&mut arena, w, &mut changed));
    }
    if !changed {
        return None;
    }
    Some(Fix::Rewrite { original: parsed.text(), fixed: fixed.to_sql(&arena) })
}

fn rewrite_concat(arena: &mut ExprArena, id: ExprId, changed: &mut bool) -> ExprId {
    match arena.node(id).clone() {
        Expr::Binary { left, op, right } if op == "||" => {
            let l = rewrite_concat(arena, left, changed);
            let l = coalesce_ident(arena, l, changed);
            let r = rewrite_concat(arena, right, changed);
            let r = coalesce_ident(arena, r, changed);
            arena.alloc(Expr::Binary { left: l, op, right: r })
        }
        Expr::Binary { left, op, right } => {
            let l = rewrite_concat(arena, left, changed);
            let r = rewrite_concat(arena, right, changed);
            arena.alloc(Expr::Binary { left: l, op, right: r })
        }
        Expr::Paren(inner) => {
            let i = rewrite_concat(arena, inner, changed);
            arena.alloc(Expr::Paren(i))
        }
        _ => id,
    }
}

fn coalesce_ident(arena: &mut ExprArena, id: ExprId, changed: &mut bool) -> ExprId {
    if let Expr::Ident(_) = arena.node(id) {
        *changed = true;
        // Argument lists are contiguous runs, so re-allocate the ident
        // next to its '' fallback.
        let ident = arena.node(id).clone();
        let args = arena.alloc_range([ident, Expr::StringLit(IStr::empty())]);
        arena.alloc(Expr::Function { name: "COALESCE".into(), args, distinct: false })
    } else {
        id
    }
}

/// Distinct + Join: when the select list only touches the FROM table,
/// rewrite the join as an EXISTS semi-join (which cannot produce
/// duplicates), dropping the DISTINCT.
pub fn distinct_join(parsed: &ParsedStatement, _ctx: &Context) -> Option<Fix> {
    let Statement::Select(sel) = &parsed.stmt else { return None };
    if !sel.distinct || sel.joins.len() != 1 {
        return None;
    }
    let from = sel.from.as_ref()?;
    let join = &sel.joins[0];
    let on = join.on?;
    if join.table.subquery.is_some() || from.subquery.is_some() {
        return None;
    }
    // Every projected column must belong to the outer table.
    let outer_binding = from.binding().to_ascii_lowercase();
    let inner_binding = join.table.binding().to_ascii_lowercase();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard { qualifier: Some(q) }
                if q.to_ascii_lowercase() == outer_binding => {}
            SelectItem::Wildcard { .. } => return None,
            SelectItem::Expr { expr, .. } => {
                for (q, _) in parsed.arena.column_refs(*expr) {
                    match q {
                        Some(q) if q.to_ascii_lowercase() == inner_binding => return None,
                        _ => {}
                    }
                }
            }
        }
    }
    let mut arena = parsed.arena.clone();
    let one = arena.alloc(Expr::NumberLit("1".into()));
    let sub = Select {
        distinct: false,
        items: vec![SelectItem::Expr { expr: one, alias: None }],
        from: Some(join.table.clone()),
        joins: vec![],
        where_clause: Some(on),
        group_by: ExprRange::EMPTY,
        having: None,
        order_by: vec![],
        limit: None,
        set_op_tail: None,
    };
    let sub_id = arena.alloc(Expr::Subquery(Box::new(sub)));
    let exists = arena.alloc(Expr::Unary { op: "EXISTS".into(), expr: sub_id });
    let mut fixed = sel.clone();
    fixed.distinct = false;
    fixed.joins.clear();
    fixed.where_clause = Some(match fixed.where_clause.take() {
        Some(w) => arena.alloc(Expr::Binary { left: w, op: "AND".into(), right: exists }),
        None => exists,
    });
    Some(Fix::Rewrite { original: parsed.text(), fixed: fixed.to_sql(&arena) })
}

/// Enumerated Types (Fig 5): introduce a lookup table and re-point the
/// column at it.
pub fn enumerated_types(d: &Detection, ctx: &Context) -> Option<Fix> {
    // Identify (table, column, values) from the locus or the statement.
    let (table, column, values) = enum_site(d, ctx)?;
    let lookup = format!("{}_{}", table, column);
    let mut statements = vec![
        format!(
            "CREATE TABLE {lookup} ({column}_ID INTEGER PRIMARY KEY, {column}_Name VARCHAR(30) NOT NULL UNIQUE)"
        ),
    ];
    for (i, v) in values.iter().enumerate() {
        statements.push(format!(
            "INSERT INTO {lookup} ({column}_ID, {column}_Name) VALUES ({}, '{}')",
            i + 1,
            v.replace('\'', "''")
        ));
    }
    statements.push(format!(
        "ALTER TABLE {table} ADD COLUMN {column}_ID INTEGER REFERENCES {lookup}({column}_ID)"
    ));
    statements.push(format!(
        "-- backfill: UPDATE {table} SET {column}_ID = (SELECT {column}_ID FROM {lookup} WHERE {column}_Name = {table}.{column})"
    ));
    statements.push(format!("ALTER TABLE {table} DROP COLUMN {column}"));
    let impacted = impacted_statements(ctx, &table, &column);
    Some(Fix::SchemaChange { statements, impacted_queries: impacted })
}

fn enum_site(d: &Detection, ctx: &Context) -> Option<(String, String, Vec<String>)> {
    match &d.locus {
        Locus::Column { table, column } => {
            let values = ctx
                .schema
                .table(table)
                .and_then(|t| {
                    t.checks.iter().find_map(|c| {
                        c.in_list.as_ref().and_then(|(col, vals)| {
                            col.eq_ignore_ascii_case(column).then(|| vals.clone())
                        })
                    })
                })
                .unwrap_or_default();
            Some((table.clone(), column.clone(), values.iter().map(|v| v.to_string()).collect()))
        }
        Locus::Statement { index } => {
            // DDL never shares its shape's parse, so `parsed` is its own.
            match &ctx.statements.get(*index)?.parsed.stmt {
                Statement::AlterTable(at) => {
                    if let AlterAction::AddConstraint(tc) = &at.action {
                        if let TableConstraintKind::Check(ch) = &tc.kind {
                            if let Some((col, vals)) = &ch.in_list {
                                return Some((
                                    at.table.name().to_string(),
                                    col.to_string(),
                                    vals.iter().map(|v| v.to_string()).collect(),
                                ));
                            }
                        }
                    }
                    None
                }
                Statement::CreateTable(ct) => {
                    // ENUM column or CHECK IN-list.
                    for col in &ct.columns {
                        if let Some(ty) = &col.data_type {
                            if ty.name == "ENUM" {
                                let vals = ty
                                    .args
                                    .iter()
                                    .map(|a| a.trim_matches('\'').to_string())
                                    .collect();
                                return Some((
                                    ct.name.name().to_string(),
                                    col.name.to_string(),
                                    vals,
                                ));
                            }
                        }
                    }
                    for tc in &ct.constraints {
                        if let TableConstraintKind::Check(ch) = &tc.kind {
                            if let Some((col, vals)) = &ch.in_list {
                                return Some((
                                    ct.name.name().to_string(),
                                    col.to_string(),
                                    vals.iter().map(|v| v.to_string()).collect(),
                                ));
                            }
                        }
                    }
                    None
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Multi-Valued Attribute (§2.1.1 / §6): create the intersection table,
/// drop the list column, and rewrite impacted queries as index joins.
pub fn multi_valued_attribute(d: &Detection, ctx: &Context) -> Option<Fix> {
    let (table, column) = mva_site(d, ctx)?;
    // Guess the referenced entity from the column name: `User_IDs` → Users.
    let stem = column
        .trim_end_matches("_ids")
        .trim_end_matches("_IDS")
        .trim_end_matches("IDs")
        .trim_end_matches("ids")
        .trim_end_matches('_');
    let entity = if stem.is_empty() { "Item".to_string() } else { format!("{stem}s") };
    let entity_id = format!("{stem}_ID");
    let owner_pk = ctx
        .schema
        .table(&table)
        .and_then(|t| t.primary_key.first().cloned())
        .unwrap_or_else(|| format!("{table}_ID").into());
    let intersection = format!("{table}_{entity}");
    let statements = vec![
        format!(
            "CREATE TABLE {intersection} ({entity_id} VARCHAR(10) REFERENCES {entity}({entity_id}), \
             {owner_pk} VARCHAR(10) REFERENCES {table}({owner_pk}), \
             PRIMARY KEY ({entity_id}, {owner_pk}))"
        ),
        format!("-- backfill {intersection} by splitting {table}.{column}"),
        format!("ALTER TABLE {table} DROP COLUMN {column}"),
    ];
    let impacted = impacted_statements(ctx, &table, &column)
        .into_iter()
        .map(|(idx, _orig)| {
            (
                idx,
                format!(
                    "SELECT * FROM {intersection} AS H JOIN {table} AS T ON H.{owner_pk} = T.{owner_pk} \
                     WHERE H.{entity_id} = ?"
                ),
            )
        })
        .collect();
    Some(Fix::SchemaChange { statements, impacted_queries: impacted })
}

fn mva_site(d: &Detection, ctx: &Context) -> Option<(String, String)> {
    match &d.locus {
        Locus::Column { table, column } => Some((table.clone(), column.clone())),
        Locus::Statement { index } => {
            // Only table and column names are read, and those are part
            // of the shape: the shape tree names the same site.
            let s = ctx.statements.get(*index)?;
            let stmt = &s.parsed.stmt;
            // DDL site: the id-list text column itself.
            if let Statement::CreateTable(ct) = stmt {
                for col in &ct.columns {
                    let textual =
                        col.data_type.as_ref().map(|t| t.is_textual()).unwrap_or(false);
                    if textual && crate::detect::intra::id_list_column(&col.name) {
                        return Some((ct.name.name().to_string(), col.name.to_string()));
                    }
                }
            }
            let ann = &s.ann;
            // Pick the pattern-predicate column, resolved to its table.
            let col = ann
                .predicates
                .iter()
                .find(|p| {
                    matches!(p.op.as_str(), "LIKE" | "ILIKE" | "REGEXP" | "GLOB" | "SIMILAR TO")
                })
                .map(|p| p.column.clone())
                .or_else(|| {
                    ann.join_conditions
                        .iter()
                        .find(|j| j.is_pattern)
                        .map(|j| j.left.1.clone())
                })?;
            let table = ann.tables.first()?.clone();
            Some((table.into(), col.into()))
        }
        _ => None,
    }
}

/// No Foreign Key: emit the ALTER TABLE that declares the constraint.
pub fn no_foreign_key(d: &Detection, ctx: &Context) -> Option<Fix> {
    let Locus::Column { table, column } = &d.locus else { return None };
    // Find the PK side from the workload's join graph.
    let target = ctx.workload.join_edges.keys().find_map(|e| {
        if e.left.0.eq_ignore_ascii_case(table) && e.left.1.eq_ignore_ascii_case(column) {
            Some(e.right.clone())
        } else if e.right.0.eq_ignore_ascii_case(table) && e.right.1.eq_ignore_ascii_case(column)
        {
            Some(e.left.clone())
        } else {
            None
        }
    })?;
    let stmt = format!(
        "ALTER TABLE {table} ADD CONSTRAINT fk_{table}_{column} FOREIGN KEY ({column}) REFERENCES {}({})",
        target.0, target.1
    );
    Some(Fix::SchemaChange { statements: vec![stmt], impacted_queries: vec![] })
}

/// Index Underuse: emit the CREATE INDEX.
pub fn index_underuse(d: &Detection, _ctx: &Context) -> Option<Fix> {
    let Locus::Column { table, column } = &d.locus else { return None };
    Some(Fix::SchemaChange {
        statements: vec![format!("CREATE INDEX idx_{table}_{column} ON {table} ({column})")],
        impacted_queries: vec![],
    })
}

/// Index Overuse: emit the DROP INDEX.
pub fn index_overuse(d: &Detection, _ctx: &Context) -> Option<Fix> {
    let Locus::Index { index } = &d.locus else { return None };
    Some(Fix::SchemaChange {
        statements: vec![format!("DROP INDEX {index}")],
        impacted_queries: vec![],
    })
}

/// Rounding Errors: switch FLOAT columns to exact NUMERIC.
pub fn rounding_errors(d: &Detection, ctx: &Context) -> Option<Fix> {
    match &d.locus {
        Locus::Column { table, column } => Some(Fix::SchemaChange {
            statements: vec![format!(
                "ALTER TABLE {table} ALTER COLUMN {column} TYPE NUMERIC(19, 4)"
            )],
            impacted_queries: vec![],
        }),
        Locus::Statement { index } => {
            // DDL never shares its shape's parse, so `parsed` is its own.
            let parsed = &ctx.statements.get(*index)?.parsed;
            let Statement::CreateTable(ct) = &parsed.stmt else { return None };
            let mut fixed = ct.clone();
            let mut changed = false;
            for col in &mut fixed.columns {
                if let Some(ty) = &mut col.data_type {
                    if ty.is_inexact_fractional() {
                        *ty = TypeName {
                            name: "NUMERIC".into(),
                            args: vec!["19".into(), "4".into()],
                            modifiers: vec![],
                        };
                        changed = true;
                    }
                }
            }
            changed.then(|| Fix::Rewrite { original: parsed.text(), fixed: fixed.to_sql(&parsed.arena) })
        }
        _ => None,
    }
}

/// Statements whose annotations reference `table.column` — the paper's
/// `GetImpactedQueries`.
fn impacted_statements(ctx: &Context, table: &str, column: &str) -> Vec<(usize, String)> {
    ctx.statements
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            let touches_table =
                s.ann.tables.iter().any(|t| t.eq_ignore_ascii_case(table));
            let touches_col = s
                .ann
                .columns
                .iter()
                .any(|c| c.column.eq_ignore_ascii_case(column))
                || s.ann
                    .predicates
                    .iter()
                    .any(|p| p.column.eq_ignore_ascii_case(column));
            touches_table && touches_col
        })
        .map(|(i, s)| (i, s.text()))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::anti_pattern::AntiPatternKind;
    use crate::context::ContextBuilder;
    use crate::detect::Detector;
    use crate::fix::FixEngine;

    fn fix_for(sql: &str, kind: AntiPatternKind) -> Fix {
        let ctx = ContextBuilder::new().add_script(sql).build();
        let report = Detector::default().detect(&ctx);
        let d = report
            .detections
            .iter()
            .find(|d| d.kind == kind)
            .unwrap_or_else(|| panic!("{kind} not detected in: {sql}"));
        FixEngine.fix(d, &ctx)
    }

    #[test]
    fn implicit_columns_rewritten_from_schema() {
        // Example 2 from the paper.
        let f = fix_for(
            "CREATE TABLE Tenant (Tenant_ID TEXT PRIMARY KEY, Zone_ID TEXT, Active BOOLEAN, User_IDs TEXT);\
             INSERT INTO Tenant VALUES ('T1', 'Z1', True, 'U9');",
            AntiPatternKind::ImplicitColumns,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("expected rewrite, got {f:?}") };
        assert!(
            fixed.contains("(Tenant_ID, Zone_ID, Active, User_IDs)"),
            "column list injected: {fixed}"
        );
    }

    #[test]
    fn implicit_columns_arity_mismatch_falls_back() {
        let f = fix_for(
            "CREATE TABLE t (a INT, b INT, c INT);\
             INSERT INTO t VALUES (1, 2);",
            AntiPatternKind::ImplicitColumns,
        );
        assert!(matches!(f, Fix::Textual { .. }), "ambiguous → textual");
    }

    #[test]
    fn wildcard_expanded() {
        let f = fix_for(
            "CREATE TABLE t (a INT PRIMARY KEY, b TEXT);\
             SELECT * FROM t WHERE b = 'x';",
            AntiPatternKind::ColumnWildcard,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.starts_with("SELECT a, b FROM t"), "{fixed}");
    }

    #[test]
    fn wildcard_unknown_table_is_textual() {
        let f = fix_for("SELECT * FROM mystery", AntiPatternKind::ColumnWildcard);
        assert!(matches!(f, Fix::Textual { .. }));
    }

    #[test]
    fn concat_nulls_coalesced() {
        let f = fix_for(
            "CREATE TABLE u (first TEXT, last TEXT);\
             SELECT first || last FROM u;",
            AntiPatternKind::ConcatenateNulls,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("COALESCE(first, '')"), "{fixed}");
        assert!(fixed.contains("COALESCE(last, '')"), "{fixed}");
    }

    #[test]
    fn distinct_join_becomes_exists() {
        let f = fix_for(
            "SELECT DISTINCT t.a FROM t JOIN u ON t.id = u.tid",
            AntiPatternKind::DistinctJoin,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("EXISTS"), "{fixed}");
        assert!(!fixed.contains("DISTINCT"), "{fixed}");
        assert!(!fixed.contains("JOIN"), "{fixed}");
    }

    #[test]
    fn enumerated_types_lookup_table_from_paper_example4() {
        let f = fix_for(
            "CREATE TABLE User (User_ID TEXT PRIMARY KEY, Role VARCHAR(5));\
             ALTER TABLE User ADD CONSTRAINT User_Role_Check CHECK (Role IN ('R1','R2','R3'));",
            AntiPatternKind::EnumeratedTypes,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].contains("CREATE TABLE User_Role"), "{statements:?}");
        assert!(statements.iter().any(|s| s.contains("'R2'")));
        assert!(statements.iter().any(|s| s.contains("DROP COLUMN Role")));
    }

    #[test]
    fn mva_intersection_table_from_paper() {
        let f = fix_for(
            "CREATE TABLE Tenants (Tenant_ID TEXT PRIMARY KEY, User_IDs TEXT);\
             SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]';",
            AntiPatternKind::MultiValuedAttribute,
        );
        let Fix::SchemaChange { statements, impacted_queries } = f else { panic!("{f:?}") };
        assert!(statements.iter().any(|s| s.contains("CREATE TABLE")), "{statements:?}");
        assert!(statements.iter().any(|s| s.contains("DROP COLUMN User_IDs")));
        assert!(!impacted_queries.is_empty(), "LIKE query must be rewritten");
        assert!(impacted_queries[0].1.contains("JOIN"));
    }

    #[test]
    fn no_foreign_key_alter_statement() {
        let f = fix_for(
            "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);\
             CREATE TABLE Q (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER);\
             SELECT * FROM Q JOIN Tenant t ON t.Tenant_ID = Q.Tenant_ID;",
            AntiPatternKind::NoForeignKey,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].contains("FOREIGN KEY (tenant_id)"), "{statements:?}");
        assert!(statements[0].to_lowercase().contains("references tenant"));
    }

    #[test]
    fn index_fixes() {
        let f = fix_for(
            "CREATE TABLE t (id INT PRIMARY KEY, zone TEXT);\
             SELECT * FROM t WHERE zone = 'Z';",
            AntiPatternKind::IndexUnderuse,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert!(statements[0].starts_with("CREATE INDEX"));

        let f = fix_for(
            "CREATE TABLE t (id INT PRIMARY KEY, a INT);\
             CREATE INDEX ia ON t (a);\
             SELECT * FROM t WHERE id = 1;",
            AntiPatternKind::IndexOveruse,
        );
        let Fix::SchemaChange { statements, .. } = f else { panic!("{f:?}") };
        assert_eq!(statements[0], "DROP INDEX ia");
    }

    #[test]
    fn rounding_errors_rewrites_create_table() {
        let f = fix_for(
            "CREATE TABLE p (id INT PRIMARY KEY, price FLOAT)",
            AntiPatternKind::RoundingErrors,
        );
        let Fix::Rewrite { fixed, .. } = f else { panic!("{f:?}") };
        assert!(fixed.contains("NUMERIC(19, 4)"), "{fixed}");
        assert!(!fixed.contains("FLOAT"));
    }
}
