//! The literal VALUES path against the expression path.
//!
//! A VALUES cell that is one literal token is parsed straight to its
//! value and inserted as is; every other cell is parsed down the
//! precedence ladder, then resolved and evaluated. Wrapping a cell in
//! parentheses sends it down the ladder, so each script runs twice —
//! cells written ` c ` and `(c)`, the same bytes at the same offsets —
//! and both databases must agree on every outcome, error, table row and
//! delta record.

use imp_engine::Database;

/// One statement's rows, as cell texts.
type Rows<'a> = &'a [&'a [&'a str]];

/// `INSERT INTO t VALUES …` with every cell framed by `open`/`close`.
fn insert(rows: Rows<'_>, open: char, close: char) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|cells| {
            let cells: Vec<String> = cells.iter().map(|c| format!("{open}{c}{close}")).collect();
            format!("({})", cells.join(","))
        })
        .collect();
    format!("INSERT INTO t VALUES {}", rows.join(", "))
}

fn database() -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT, b FLOAT, c TEXT, d BOOL)")
        .unwrap();
    db
}

/// Everything a statement leaves behind: the table's rows and its delta
/// log, in order, and the database version.
fn contents(db: &Database) -> String {
    let t = db.table("t").unwrap();
    format!(
        "{:?}\n{:?}\nversion {}",
        t.rows(),
        t.delta_log().all(),
        db.version()
    )
}

#[test]
fn literal_cells_match_the_expression_path() {
    let script: &[Rows<'_>] = &[
        // Every literal form.
        &[
            &["-1", "-0.5", "'it''s'", "TRUE"],
            &["9223372036854775807", "2.5e1", "''", "FALSE"],
            &["-9223372036854775807", "-2.5E-3", "'naïve'", "NULL"],
            &["0", "0.0", "NULL", "true"],
            &["NULL", "NULL", "'x'", "false"],
            &["- 4", "- 1.5", "'a'", "null"],
        ],
        // Expression cells, mixed with literals.
        &[
            &["1+2", "1.5 * 2", "'b'", "NOT FALSE"],
            &["-(3)", "-(2.5)", "'c'", "1 < 2"],
            &["- - 4", "- -0.5", "'d'", "TRUE"],
            &["-5 * 2", "2.5e1", "NULL", "NULL"],
        ],
        // Wrong arity.
        &[&["1", "2.0", "'e'"]],
        // A string into an INT column, after a valid row.
        &[
            &["7", "7.0", "'f'", "TRUE"],
            &["'x'", "1.0", "'g'", "FALSE"],
        ],
        // One past i64::MIN's magnitude does not lex.
        &[&["-9223372036854775808", "1.0", "'h'", "TRUE"]],
        // Still writable after the errors.
        &[&["42", "-42.5", "'last'", "FALSE"]],
    ];
    let (mut literal, mut expression) = (database(), database());
    let mut errors = 0;
    for rows in script {
        let (fast, slow) = (insert(rows, ' ', ' '), insert(rows, '(', ')'));
        assert_eq!(fast.len(), slow.len(), "same offsets: {fast}");
        let fast_result = literal.execute_sql(&fast);
        let slow_result = expression.execute_sql(&slow);
        assert_eq!(
            format!("{fast_result:?}"),
            format!("{slow_result:?}"),
            "{fast}"
        );
        errors += fast_result.is_err() as usize;
        assert_eq!(contents(&literal), contents(&expression), "after {fast}");
    }
    assert_eq!(errors, 3, "arity, type and lex errors");
}
