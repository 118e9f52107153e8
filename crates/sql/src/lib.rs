//! # imp-sql
//!
//! SQL frontend for IMP: "Users send SQL queries and updates to IMP that
//! are parsed using IMP's parser and translated into an intermediate
//! representation (relational algebra with update operations)" (paper §2).
//!
//! * [`lexer`] / [`parser`] — hand-written lexer and recursive-descent
//!   parser for the SQL dialect the paper's workloads use (Appendix A):
//!   SELECT with joins / GROUP BY / HAVING / ORDER BY / LIMIT / BETWEEN,
//!   subqueries in FROM, and INSERT / DELETE / UPDATE / CREATE TABLE.
//!   A VALUES cell that is one literal token is parsed straight to its
//!   value, skipping the expression precedence ladder.
//! * [`expr`] — resolved scalar expressions with an evaluator (shared by
//!   the backend engine, the capture rewrites, and the incremental engine).
//! * [`plan`] — the logical bag-algebra of paper Fig. 4.
//! * [`resolver`] — binds the AST against a catalog into a [`plan::LogicalPlan`].
//! * [`template`] — query templates: "a version of a query Q where
//!   constants in selection conditions are replaced with placeholders such
//!   that two queries that only differ in these constants have the same
//!   key" (paper §7.1). Used as the sketch-store key.
//! * [`queries`] — the Appendix A workload query texts, validated against
//!   this parser in-crate (the generators in `imp-data` build on them).

pub mod ast;
pub mod error;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod queries;
pub mod resolver;
pub mod template;

pub use ast::{AstExpr, BinOp, SelectItem, SelectStmt, Statement, TableRef, UnOp};
pub use error::SqlError;
pub use expr::Expr;
pub use plan::{flatten_join, AggFunc, AggSpec, LogicalPlan, NaryJoin, SortKey};
pub use resolver::{Catalog, Resolver};
pub use template::QueryTemplate;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SqlError>;

/// Parse a sequence of SQL statements separated by `;`.
pub fn parse(sql: &str) -> Result<Vec<Statement>> {
    parser::Parser::new(sql)?.parse_statements()
}

/// Parse exactly one SQL statement.
pub fn parse_one(sql: &str) -> Result<Statement> {
    let mut stmts = parse(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        n => Err(SqlError::Parse(format!("expected 1 statement, found {n}"))),
    }
}
