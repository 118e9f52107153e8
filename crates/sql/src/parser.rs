//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Keyword, Token};
use crate::Result;
use imp_storage::{DataType, Value};

/// Parser over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lex `sql` and build a parser.
    pub fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &Token::Keyword(k) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {k:?}, found {}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {t}, found {}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    /// Parse a `;`-separated statement list.
    pub fn parse_statements(&mut self) -> Result<Vec<Statement>> {
        let mut stmts = Vec::new();
        loop {
            while self.eat(&Token::Semicolon) {}
            if self.peek() == &Token::Eof {
                break;
            }
            stmts.push(self.parse_statement()?);
        }
        Ok(stmts)
    }

    /// Parse one statement.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword(Keyword::Select) => Ok(Statement::Select(self.parse_select()?)),
            Token::Keyword(Keyword::Insert) => self.parse_insert(),
            Token::Keyword(Keyword::Delete) => self.parse_delete(),
            Token::Keyword(Keyword::Update) => self.parse_update(),
            Token::Keyword(Keyword::Create) => self.parse_create(),
            Token::Keyword(Keyword::Explain) => {
                self.advance();
                Ok(Statement::Explain(self.parse_select()?))
            }
            other => Err(SqlError::Parse(format!("unexpected token {other}"))),
        }
    }

    /// Parse a SELECT statement (entry also used for subqueries).
    pub fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let mut projection = vec![self.parse_select_item()?];
        while self.eat(&Token::Comma) {
            projection.push(self.parse_select_item()?);
        }
        self.expect_keyword(Keyword::From)?;
        let mut from = vec![self.parse_table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.parse_table_ref()?);
        }
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let e = self.parse_expr()?;
                let mut asc = true;
                if self.eat_keyword(Keyword::Desc) {
                    asc = false;
                } else {
                    self.eat_keyword(Keyword::Asc);
                }
                order_by.push((e, asc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.advance() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        // `EXCEPT [ALL] <select>` suffix (set difference).
        let except = if self.eat_keyword(Keyword::Except) {
            let all = self.eat_keyword(Keyword::All);
            Some((Box::new(self.parse_select()?), all))
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            distinct,
            except,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &Token::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            // implicit alias: `expr name`
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_primary_table_ref()?;
        loop {
            let is_join = match self.peek() {
                Token::Keyword(Keyword::Join) => {
                    self.advance();
                    true
                }
                Token::Keyword(Keyword::Inner) => {
                    self.advance();
                    self.expect_keyword(Keyword::Join)?;
                    true
                }
                _ => false,
            };
            if !is_join {
                break;
            }
            let right = self.parse_primary_table_ref()?;
            self.expect_keyword(Keyword::On)?;
            let on = self.parse_expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
            };
        }
        Ok(left)
    }

    fn parse_primary_table_ref(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            let query = self.parse_select()?;
            self.expect(&Token::RParen)?;
            self.eat_keyword(Keyword::As);
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        // `t AS alias` or the implicit `t alias` form.
        let alias = if self.eat_keyword(Keyword::As) || matches!(self.peek(), Token::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.ident()?;
        let columns = if self.peek() == &Token::LParen && matches!(self.peek2(), Token::Ident(_)) {
            self.expect(&Token::LParen)?;
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword(Keyword::Values)?;
        let mut rows: Vec<Vec<AstExpr>> = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            // Rows are as wide as the first one, unless the statement is
            // malformed.
            let mut row = Vec::with_capacity(rows.first().map_or(1, Vec::len));
            row.push(self.parse_value()?);
            while self.eat(&Token::Comma) {
                row.push(self.parse_value()?);
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    /// One VALUES cell: a literal cell is taken as its value, any other
    /// cell goes down the precedence ladder.
    fn parse_value(&mut self) -> Result<AstExpr> {
        match self.literal_cell() {
            Some(value) => Ok(AstExpr::Literal(value)),
            None => self.parse_expr(),
        }
    }

    /// Consume a cell that is one literal token — `Int`, `Float`, `Str`,
    /// `NULL`, `TRUE`, `FALSE`, or `-` and a number — followed by `,` or
    /// `)`, and return its value (a string payload is moved out of the
    /// token, not cloned). `None`, with nothing consumed, for every other
    /// cell.
    fn literal_cell(&mut self) -> Option<Value> {
        let negated = self.peek() == &Token::Minus;
        let at = self.pos + negated as usize;
        if !matches!(self.tokens.get(at + 1), Some(Token::Comma | Token::RParen)) {
            return None;
        }
        let value = match (&mut self.tokens[at], negated) {
            (Token::Int(i), true) => Value::Int(i.checked_neg()?),
            (Token::Int(i), false) => Value::Int(*i),
            (Token::Float(f), true) => Value::Float(-*f),
            (Token::Float(f), false) => Value::Float(*f),
            (Token::Str(s), false) => Value::str(std::mem::take(s)),
            (Token::Keyword(Keyword::Null), false) => Value::Null,
            (Token::Keyword(Keyword::True), false) => Value::Bool(true),
            (Token::Keyword(Keyword::False), false) => Value::Bool(false),
            _ => return None,
        };
        self.pos = at + 1;
        Some(value)
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.ident()?;
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_keyword(Keyword::Set)?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let e = self.parse_expr()?;
            sets.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Create)?;
        self.expect_keyword(Keyword::Table)?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let dtype = match self.advance() {
                Token::Keyword(Keyword::Int) => DataType::Int,
                Token::Keyword(Keyword::Float) => DataType::Float,
                Token::Keyword(Keyword::Text) => DataType::Str,
                Token::Keyword(Keyword::Bool) => DataType::Bool,
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected column type (INT|FLOAT|TEXT|BOOL), found {other}"
                    )))
                }
            };
            columns.push((col, dtype));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    // ---- expressions: precedence climbing ----

    /// Parse a full expression (lowest precedence: OR).
    pub fn parse_expr(&mut self) -> Result<AstExpr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = AstExpr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = AstExpr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<AstExpr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.parse_not()?;
            return Ok(AstExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<AstExpr> {
        let left = self.parse_additive()?;
        // postfix predicates
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek() == &Token::Keyword(Keyword::Not)
            && matches!(
                self.peek2(),
                Token::Keyword(Keyword::Between) | Token::Keyword(Keyword::In)
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::In) {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse(
                "expected BETWEEN or IN after NOT".to_string(),
            ));
        }
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::Neq => BinOp::Neq,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(AstExpr::binary(op, left, right))
    }

    fn parse_additive(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = AstExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<AstExpr> {
        if self.eat(&Token::Minus) {
            let inner = self.parse_unary()?;
            return Ok(AstExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<AstExpr> {
        match self.advance() {
            Token::Int(i) => Ok(AstExpr::Literal(Value::Int(i))),
            Token::Float(f) => Ok(AstExpr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(AstExpr::Literal(Value::str(s))),
            Token::Keyword(Keyword::Null) => Ok(AstExpr::Literal(Value::Null)),
            Token::Keyword(Keyword::True) => Ok(AstExpr::Literal(Value::Bool(true))),
            Token::Keyword(Keyword::False) => Ok(AstExpr::Literal(Value::Bool(false))),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // function call?
                if self.peek() == &Token::LParen {
                    self.advance();
                    if self.eat(&Token::Star) {
                        self.expect(&Token::RParen)?;
                        return Ok(AstExpr::FuncCall {
                            name: name.to_ascii_lowercase(),
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        args.push(self.parse_expr()?);
                        while self.eat(&Token::Comma) {
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(AstExpr::FuncCall {
                        name: name.to_ascii_lowercase(),
                        args,
                        star: false,
                    });
                }
                // qualified column?
                if self.peek() == &Token::Dot {
                    self.advance();
                    let col = self.ident()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(AstExpr::col(name))
            }
            other => Err(SqlError::Parse(format!(
                "unexpected token {other} in expression"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_one;

    #[test]
    fn parses_running_example() {
        // Q_top from paper Fig. 1.
        let stmt = parse_one(
            "SELECT brand, SUM(price * numSold) AS rev \
             FROM sales GROUP BY brand \
             HAVING SUM(price * numSold) > 5000",
        )
        .unwrap();
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        assert_eq!(s.projection.len(), 2);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_join_with_subquery() {
        // Q_join shape from Appendix A.1.3.
        let stmt = parse_one(
            "SELECT a, avg(b) AS ab FROM ( \
               SELECT a AS a, b AS b, c AS c FROM t1gb50g WHERE b < 10 \
             ) tt JOIN tjoinhelp ON (a = ttid) \
             GROUP BY a HAVING avg(c) < 10",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(matches!(s.from[0], TableRef::Join { .. }));
    }

    #[test]
    fn parses_top_k() {
        let stmt =
            parse_one("SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 10").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1); // ascending
    }

    #[test]
    fn parses_between_and_or() {
        let stmt = parse_one(
            "SELECT * FROM s WHERE (price BETWEEN 1001 AND 1500) \
             OR (price BETWEEN 1501 AND 10000)",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let f = s.filter.unwrap();
        assert!(matches!(f, AstExpr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn parses_insert_delete_update() {
        assert!(matches!(
            parse_one("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse_one("DELETE FROM t WHERE a = 3").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_one("UPDATE t SET a = a + 1 WHERE b < 2").unwrap(),
            Statement::Update { sets, .. } if sets.len() == 1
        ));
    }

    #[test]
    fn literal_values_cells_are_literals() {
        let Statement::Insert { rows, .. } =
            parse_one("INSERT INTO t VALUES (-1, 2.5, 'a', NULL)").unwrap()
        else {
            panic!()
        };
        let expected = [
            Value::Int(-1),
            Value::Float(2.5),
            Value::str("a"),
            Value::Null,
        ];
        assert_eq!(rows[0], expected.map(AstExpr::Literal));
    }

    #[test]
    fn other_values_cells_are_expressions() {
        let Statement::Insert { rows, .. } =
            parse_one("INSERT INTO t VALUES (1 + 2, -(3), - - 4, -5 * 2, -a)").unwrap()
        else {
            panic!()
        };
        let rendered: Vec<String> = rows[0].iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            ["(1 + 2)", "(-3)", "(-(-4))", "((-5) * 2)", "(-a)"]
        );
    }

    #[test]
    fn parses_create_table() {
        let s = parse_one("CREATE TABLE t (a INT, b FLOAT, c TEXT, d BOOL)").unwrap();
        assert!(matches!(
            s,
            Statement::CreateTable { columns, .. } if columns.len() == 4
        ));
    }

    #[test]
    fn precedence_mul_before_add_before_cmp() {
        let Statement::Select(s) = parse_one("SELECT * FROM t WHERE a + b * 2 > 10").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.filter.unwrap().to_string(), "((a + (b * 2)) > 10)");
    }

    #[test]
    fn not_between() {
        let Statement::Select(s) =
            parse_one("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            s.filter.unwrap(),
            AstExpr::Between { negated: true, .. }
        ));
    }

    #[test]
    fn count_star() {
        let Statement::Select(s) = parse_one("SELECT count(*) FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else {
            panic!()
        };
        assert!(matches!(expr, AstExpr::FuncCall { star: true, .. }));
    }

    #[test]
    fn parses_except_and_except_all() {
        let Statement::Select(s) = parse_one("SELECT a FROM t EXCEPT ALL SELECT a FROM u").unwrap()
        else {
            panic!()
        };
        let (rhs, all) = s.except.unwrap();
        assert!(all);
        assert_eq!(rhs.from.len(), 1);
        let Statement::Select(s) = parse_one("SELECT a FROM t EXCEPT SELECT a FROM u").unwrap()
        else {
            panic!()
        };
        assert!(!s.except.unwrap().1);
    }

    #[test]
    fn parses_explain() {
        assert!(matches!(
            parse_one("EXPLAIN SELECT a FROM t").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn multiple_statements() {
        let stmts = crate::parse("SELECT * FROM a; SELECT * FROM b;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_one("SELECT FROM").is_err());
        assert!(parse_one("FROB x").is_err());
    }
}
