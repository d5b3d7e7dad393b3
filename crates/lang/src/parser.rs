//! Recursive-descent parser for the ADDS intermediate language.

use crate::ast::*;
use crate::lexer::lex;
use crate::source::{Diagnostic, Span};
use crate::token::{Token, TokenKind};

/// Deepest nesting a parsed program may have. At every point of the
/// parse, the levels open around it (blocks, parens, call arguments,
/// index brackets) plus the height of the tree below it (operator, field
/// and call nodes) stay within this cap. So the returned tree is at most
/// this deep, a long left-associative chain counts as much as the same
/// depth of parens, and the printer's parenthesized output of a program
/// re-parses within the same cap. Every later pass (type check, printer,
/// analysis, compile, interpreter) recurses over the tree, so the cap
/// bounds their stack use too; past it the program gets an ordinary
/// parse diagnostic.
pub const MAX_NESTING: usize = 128;

/// Recursive-descent parser over the lexed token stream.
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Levels open around the current parse position (enclosing blocks,
    /// parens, call arguments, and index expressions).
    open: usize,
}

type PResult<T> = Result<T, Diagnostic>;

/// An expression with its height in [`MAX_NESTING`] levels (0 for a leaf).
type Measured = (Expr, usize);

/// Parse a complete program.
pub fn parse_program(src: &str) -> PResult<Program> {
    Parser::new(src)?.program()
}

/// Parse a single expression (used by tests and the REPL-ish demos).
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

impl Parser {
    /// Lex `src` and position the parser at the first token.
    pub fn new(src: &str) -> PResult<Self> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            open: 0,
        })
    }

    fn too_deep(&self) -> Diagnostic {
        Diagnostic::new(
            self.peek_span(),
            format!("program nests deeper than {MAX_NESTING} levels"),
        )
    }

    /// Open one more level, failing before the recursion can outgrow
    /// [`MAX_NESTING`]. (A failed parse is abandoned, so only the success
    /// paths pair this with [`Parser::ascend`].)
    fn descend(&mut self) -> PResult<()> {
        if self.open >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.open += 1;
        Ok(())
    }

    fn ascend(&mut self) {
        self.open -= 1;
    }

    /// The height of a node over children of height `child`, checked
    /// against the levels already open around it.
    fn node(&self, child: usize) -> PResult<usize> {
        if self.open + child >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(Diagnostic::new(
                self.peek_span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn ident(&mut self) -> PResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.peek_span();
                self.bump();
                Ok((name, span))
            }
            other => Err(Diagnostic::new(
                self.peek_span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    // ---------------------------------------------------------------- items

    fn program(&mut self) -> PResult<Program> {
        let mut types = Vec::new();
        let mut funcs = Vec::new();
        loop {
            match self.peek() {
                TokenKind::KwType => types.push(self.type_decl()?),
                TokenKind::KwFunction | TokenKind::KwProcedure => funcs.push(self.fun_decl()?),
                TokenKind::Eof => break,
                other => {
                    return Err(Diagnostic::new(
                        self.peek_span(),
                        format!(
                            "expected `type`, `function` or `procedure`, found {}",
                            other.describe()
                        ),
                    ))
                }
            }
        }
        Ok(Program { types, funcs })
    }

    fn type_decl(&mut self) -> PResult<TypeDecl> {
        let start = self.peek_span();
        self.expect(TokenKind::KwType)?;
        let (name, _) = self.ident()?;

        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let (d, _) = self.ident()?;
            self.expect(TokenKind::RBracket)?;
            dims.push(d);
        }

        let mut independent = Vec::new();
        if self.eat(&TokenKind::KwWhere) {
            loop {
                let (a, _) = self.ident()?;
                self.expect(TokenKind::OrOr)?;
                let (b, _) = self.ident()?;
                independent.push((a, b));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            fields.push(self.field_decl()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        self.eat(&TokenKind::Semi);

        Ok(TypeDecl {
            name,
            dims,
            independent,
            fields,
            span: start.merge(end),
        })
    }

    fn field_decl(&mut self) -> PResult<FieldDecl> {
        let start = self.peek_span();
        // Scalar fields start with a scalar type keyword.
        let scalar = match self.peek() {
            TokenKind::KwInt => Some(ScalarTy::Int),
            TokenKind::KwReal => Some(ScalarTy::Real),
            TokenKind::KwBool => Some(ScalarTy::Bool),
            _ => None,
        };
        if let Some(st) = scalar {
            self.bump();
            let mut names = Vec::new();
            loop {
                let (n, _) = self.ident()?;
                names.push(n);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            let end = self.expect(TokenKind::Semi)?.span;
            return Ok(FieldDecl {
                names,
                kind: FieldKind::Scalar(st),
                span: start.merge(end),
            });
        }

        // Pointer fields: `Target *a, *b[8] is uniquely forward along D;`
        let (target, _) = self.ident()?;
        let mut names = Vec::new();
        let mut array_len = None;
        loop {
            self.expect(TokenKind::Star)?;
            let (n, _) = self.ident()?;
            names.push(n);
            if self.eat(&TokenKind::LBracket) {
                let tok = self.bump();
                let TokenKind::Int(len) = tok.kind else {
                    return Err(Diagnostic::new(tok.span, "expected array length"));
                };
                if len <= 0 {
                    return Err(Diagnostic::new(tok.span, "array length must be positive"));
                }
                self.expect(TokenKind::RBracket)?;
                array_len = Some(len as usize);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let route = if self.eat(&TokenKind::KwIs) {
            let unique = self.eat(&TokenKind::KwUniquely);
            let direction = match self.bump() {
                Token {
                    kind: TokenKind::KwForward,
                    ..
                } => Direction::Forward,
                Token {
                    kind: TokenKind::KwBackward,
                    ..
                } => Direction::Backward,
                t => {
                    return Err(Diagnostic::new(
                        t.span,
                        format!(
                            "expected `forward` or `backward`, found {}",
                            t.kind.describe()
                        ),
                    ))
                }
            };
            self.expect(TokenKind::KwAlong)?;
            let (dim, _) = self.ident()?;
            Some(Route {
                unique,
                direction,
                dim,
            })
        } else {
            None
        };

        if array_len.is_some() && names.len() > 1 {
            return Err(Diagnostic::new(
                start,
                "array pointer fields cannot be grouped with other fields",
            ));
        }

        let end = self.expect(TokenKind::Semi)?.span;
        Ok(FieldDecl {
            names,
            kind: FieldKind::Pointer {
                target,
                array_len,
                route,
            },
            span: start.merge(end),
        })
    }

    fn fun_decl(&mut self) -> PResult<FunDecl> {
        let start = self.peek_span();
        let is_proc = self.at(&TokenKind::KwProcedure);
        self.bump(); // function | procedure
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let (pname, pspan) = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if !is_proc && self.eat(&TokenKind::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        let span = start.merge(body.span);
        Ok(FunDecl {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn ty(&mut self) -> PResult<Ty> {
        match self.peek().clone() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Ty::Int)
            }
            TokenKind::KwReal => {
                self.bump();
                Ok(Ty::Real)
            }
            TokenKind::KwBool => {
                self.bump();
                Ok(Ty::Bool)
            }
            TokenKind::Ident(name) => {
                self.bump();
                self.expect(TokenKind::Star)?;
                Ok(Ty::Ptr(name))
            }
            other => Err(Diagnostic::new(
                self.peek_span(),
                format!("expected a type, found {}", other.describe()),
            )),
        }
    }

    // ----------------------------------------------------------- statements

    fn block(&mut self) -> PResult<Block> {
        self.descend()?;
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        self.ascend();
        Ok(Block {
            stmts,
            span: start.merge(end),
        })
    }

    /// A block, or a single statement treated as a one-statement block
    /// (`then return x;`).
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            self.descend()?;
            let s = self.stmt()?;
            self.ascend();
            let span = s.span();
            Ok(Block {
                stmts: vec![s],
                span,
            })
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        match self.peek() {
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwFor => self.for_stmt(false),
            TokenKind::KwParfor => self.for_stmt(true),
            TokenKind::KwReturn => self.return_stmt(),
            TokenKind::KwVar => self.var_decl(),
            _ => self.assign_or_call(),
        }
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect(TokenKind::KwWhile)?.span;
        // No special-casing of `while (...)`: parenthesized conditions parse
        // via the primary-expression rule, which also keeps
        // `while (a / b) % 2 == 1` unambiguous.
        let cond = self.expr()?;
        let body = self.block_or_stmt()?;
        let span = start.merge(body.span);
        Ok(Stmt::While { cond, body, span })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect(TokenKind::KwIf)?.span;
        let cond = self.expr()?;
        self.eat(&TokenKind::KwThen);
        let then_blk = self.block_or_stmt()?;
        let mut span = start.merge(then_blk.span);
        let else_blk = if self.eat(&TokenKind::KwElse) {
            let b = self.block_or_stmt()?;
            span = span.merge(b.span);
            Some(b)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        })
    }

    fn for_stmt(&mut self, parallel: bool) -> PResult<Stmt> {
        let start = self.bump().span; // for | parfor
        let (var, _) = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let from = self.expr()?;
        self.expect(TokenKind::KwTo)?;
        let to = self.expr()?;
        let body = self.block_or_stmt()?;
        let span = start.merge(body.span);
        Ok(Stmt::For {
            var,
            from,
            to,
            body,
            parallel,
            span,
        })
    }

    fn return_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect(TokenKind::KwReturn)?.span;
        if self.eat(&TokenKind::Semi) {
            return Ok(Stmt::Return {
                value: None,
                span: start,
            });
        }
        let value = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Return {
            value: Some(value),
            span: start.merge(end),
        })
    }

    fn var_decl(&mut self) -> PResult<Stmt> {
        let start = self.expect(TokenKind::KwVar)?.span;
        let (name, _) = self.ident()?;
        let ty = if self.eat(&TokenKind::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::VarDecl {
            name,
            ty,
            init,
            span: start.merge(end),
        })
    }

    fn assign_or_call(&mut self) -> PResult<Stmt> {
        let start = self.peek_span();
        let (name, name_span) = self.ident()?;

        // Call statement: `f(a, b);`
        if self.at(&TokenKind::LParen) {
            let (call, _) = self.call_tail(name, name_span)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Call(call));
        }

        // Otherwise an lvalue chain followed by `=`.
        let mut path = Vec::new();
        while self.at(&TokenKind::Arrow) {
            self.bump();
            let (field, fspan) = self.ident()?;
            let index = if self.eat(&TokenKind::LBracket) {
                self.descend()?;
                let e = self.expr()?;
                self.ascend();
                self.expect(TokenKind::RBracket)?;
                Some(Box::new(e))
            } else {
                None
            };
            path.push(FieldAccess {
                field,
                index,
                span: fspan,
            });
        }
        let lhs = LValue {
            base: name,
            path,
            span: start.merge(self.peek_span()),
        };
        self.expect(TokenKind::Assign)?;
        let rhs = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Assign {
            lhs,
            rhs,
            span: start.merge(end),
        })
    }

    /// A call's argument list; the height is the tallest argument's.
    fn call_tail(&mut self, callee: String, start: Span) -> PResult<(Call, usize)> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        let mut height = 0;
        if !self.at(&TokenKind::RParen) {
            loop {
                self.descend()?;
                let (arg, h) = self.binary(0)?;
                self.ascend();
                args.push(arg);
                height = height.max(h);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RParen)?.span;
        let call = Call {
            callee,
            args,
            span: start.merge(end),
        };
        Ok((call, height))
    }

    // ---------------------------------------------------------- expressions

    pub(crate) fn expr(&mut self) -> PResult<Expr> {
        Ok(self.binary(0)?.0)
    }

    /// Binary operators at precedence `min` and tighter, by precedence
    /// climbing: `||` < `&&` < comparisons < `+ -` < `* / %`, all
    /// left-associative except comparisons, which take at most one
    /// operator (`a < b < c` is an error, not `(a < b) < c`).
    fn binary(&mut self, min: u8) -> PResult<Measured> {
        let (mut lhs, mut height) = self.unary_expr()?;
        let mut last = None;
        while let Some((op, level)) = binop(self.peek()) {
            // A tighter operator than the last one folded here is one the
            // right operand refused: a second comparison.
            if level < min || last.is_some_and(|l| level > l || (l == CMP && level == CMP)) {
                break;
            }
            self.bump();
            let (rhs, h) = self.binary(level + 1)?;
            height = self.node(height.max(h))?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
            last = Some(level);
        }
        Ok((lhs, height))
    }

    /// Prefix operators, collected in a loop so a long run of them needs
    /// no recursion, then applied innermost-first.
    fn unary_expr(&mut self) -> PResult<Measured> {
        let mut ops = Vec::new();
        loop {
            let op = match self.peek() {
                TokenKind::Minus => UnOp::Neg,
                TokenKind::Bang => UnOp::Not,
                _ => break,
            };
            ops.push((op, self.bump().span));
        }
        let (mut e, mut height) = self.postfix_expr()?;
        for (op, start) in ops.into_iter().rev() {
            height = self.node(height)?;
            let span = start.merge(e.span());
            e = Expr::Unary {
                op,
                operand: Box::new(e),
                span,
            };
        }
        Ok((e, height))
    }

    fn postfix_expr(&mut self) -> PResult<Measured> {
        let (mut e, mut height) = self.primary_expr()?;
        while self.at(&TokenKind::Arrow) {
            self.bump();
            let (field, fspan) = self.ident()?;
            let index = if self.eat(&TokenKind::LBracket) {
                self.descend()?;
                let (idx, h) = self.binary(0)?;
                self.ascend();
                self.expect(TokenKind::RBracket)?;
                height = height.max(h);
                Some(Box::new(idx))
            } else {
                None
            };
            height = self.node(height)?;
            let span = e.span().merge(fspan);
            e = Expr::Field {
                base: Box::new(e),
                field,
                index,
                span,
            };
        }
        Ok((e, height))
    }

    fn primary_expr(&mut self) -> PResult<Measured> {
        let span = self.peek_span();
        let leaf = match self.peek().clone() {
            TokenKind::Int(v) => Expr::Int(v, span),
            TokenKind::Real(v) => Expr::Real(v, span),
            TokenKind::KwTrue => Expr::Bool(true, span),
            TokenKind::KwFalse => Expr::Bool(false, span),
            TokenKind::KwNull => Expr::Null(span),
            TokenKind::KwNew => {
                self.bump();
                let (ty, tspan) = self.ident()?;
                return Ok((Expr::New(ty, span.merge(tspan)), 0));
            }
            TokenKind::LParen => {
                self.bump();
                // A paren is a level for what it encloses but adds no
                // node: the printer's parens re-parse within the cap.
                self.descend()?;
                let inner = self.binary(0)?;
                self.ascend();
                self.expect(TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(name) => {
                self.bump();
                if !self.at(&TokenKind::LParen) {
                    return Ok((Expr::Var(name, span), 0));
                }
                let (call, h) = self.call_tail(name, span)?;
                return Ok((Expr::Call(call), self.node(h)?));
            }
            other => {
                return Err(Diagnostic::new(
                    span,
                    format!("expected an expression, found {}", other.describe()),
                ))
            }
        };
        self.bump();
        Ok((leaf, 0))
    }
}

/// Precedence level of the comparison operators.
const CMP: u8 = 2;

/// The binary operator `tok` spells, with its precedence level.
fn binop(tok: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match tok {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, CMP),
        TokenKind::NotEq => (BinOp::Ne, CMP),
        TokenKind::Lt => (BinOp::Lt, CMP),
        TokenKind::Le => (BinOp::Le, CMP),
        TokenKind::Gt => (BinOp::Gt, CMP),
        TokenKind::Ge => (BinOp::Ge, CMP),
        TokenKind::Plus => (BinOp::Add, 3),
        TokenKind::Minus => (BinOp::Sub, 3),
        TokenKind::Star => (BinOp::Mul, 4),
        TokenKind::Slash => (BinOp::Div, 4),
        TokenKind::Percent => (BinOp::Rem, 4),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_one_way_list_declaration() {
        let prog = parse_program(
            "type OneWayList [X] { int data; OneWayList *next is uniquely forward along X; };",
        )
        .unwrap();
        assert_eq!(prog.types.len(), 1);
        let t = &prog.types[0];
        assert_eq!(t.name, "OneWayList");
        assert_eq!(t.dims, vec!["X"]);
        assert_eq!(t.fields.len(), 2);
        match &t.fields[1].kind {
            FieldKind::Pointer { target, route, .. } => {
                assert_eq!(target, "OneWayList");
                let r = route.as_ref().unwrap();
                assert!(r.unique);
                assert_eq!(r.direction, Direction::Forward);
                assert_eq!(r.dim, "X");
            }
            _ => panic!("expected pointer field"),
        }
    }

    #[test]
    fn parses_range_tree_with_independence() {
        let prog = parse_program(
            "type TwoDRangeTree [down][sub][leaves] where sub||down, sub||leaves {
                int data;
                TwoDRangeTree *left, *right is uniquely forward along down;
                TwoDRangeTree *subtree is uniquely forward along sub;
                TwoDRangeTree *next is uniquely forward along leaves;
                TwoDRangeTree *prev is backward along leaves;
            };",
        )
        .unwrap();
        let t = &prog.types[0];
        assert_eq!(t.dims, vec!["down", "sub", "leaves"]);
        assert_eq!(
            t.independent,
            vec![
                ("sub".to_string(), "down".to_string()),
                ("sub".to_string(), "leaves".to_string())
            ]
        );
        assert_eq!(t.fields[1].names, vec!["left", "right"]);
    }

    #[test]
    fn parses_octree_with_array_field() {
        let prog = parse_program(
            "type Octree [down][leaves] {
                real mass;
                bool node_type;
                Octree *subtrees[8] is uniquely forward along down;
                Octree *next is uniquely forward along leaves;
            };",
        )
        .unwrap();
        let t = &prog.types[0];
        match &t.fields[2].kind {
            FieldKind::Pointer { array_len, .. } => assert_eq!(*array_len, Some(8)),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_paper_multiply_loop() {
        let prog = parse_program(
            "procedure scale(head: ListNode*, c: int) {
                var p: ListNode*;
                p = head;
                while p <> NULL {
                    p->coef = p->coef * c;
                    p = p->next;
                }
            }",
        )
        .unwrap();
        let f = &prog.funcs[0];
        assert_eq!(f.name, "scale");
        assert_eq!(f.params.len(), 2);
        assert!(f.ret.is_none());
        assert_eq!(f.body.stmts.len(), 3);
        match &f.body.stmts[2] {
            Stmt::While { body, .. } => assert_eq!(body.stmts.len(), 2),
            _ => panic!("expected while"),
        }
    }

    #[test]
    fn parses_if_then_else_with_paper_syntax() {
        let prog = parse_program(
            "function f(p: T*): int {
                if p <> NULL then
                    return 1;
                else
                    return 0;
            }",
        )
        .unwrap();
        match &prog.funcs[0].body.stmts[0] {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.stmts.len(), 1);
                assert!(else_blk.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_parfor_strip_mined_loop() {
        let prog = parse_program(
            "procedure main(particles: Octree*, root: Octree*) {
                var p: Octree*;
                var i: int;
                p = particles;
                while p <> NULL {
                    parfor i = 0 to PEs-1 {
                        BHL1_iteration(i, p, root);
                    }
                    for i = 0 to PEs-1 {
                        p = p->next;
                    }
                }
            }",
        )
        .unwrap();
        let body = &prog.funcs[0].body;
        match &body.stmts[3] {
            Stmt::While { body, .. } => {
                assert!(matches!(body.stmts[0], Stmt::For { parallel: true, .. }));
                assert!(matches!(
                    body.stmts[1],
                    Stmt::For {
                        parallel: false,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn comparison_binds_looser_than_arith() {
        let e = parse_expr("a + 1 < b * 2").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Lt, .. }));
    }

    #[test]
    fn logical_operators_nest() {
        let e = parse_expr("a < b && c <> NULL || !d").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn field_chains_and_array_indexing() {
        let e = parse_expr("node->subtrees[i]->mass").unwrap();
        let Expr::Field { base, field, .. } = e else {
            panic!()
        };
        assert_eq!(field, "mass");
        let Expr::Field {
            field: f2, index, ..
        } = *base
        else {
            panic!()
        };
        assert_eq!(f2, "subtrees");
        assert!(index.is_some());
    }

    #[test]
    fn assignment_through_array_field() {
        let prog =
            parse_program("procedure g(n: Octree*, q: Octree*) { n->subtrees[3] = q; }").unwrap();
        match &prog.funcs[0].body.stmts[0] {
            Stmt::Assign { lhs, .. } => {
                assert_eq!(lhs.base, "n");
                assert_eq!(lhs.path[0].field, "subtrees");
                assert!(lhs.path[0].index.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn error_messages_name_the_offender() {
        let err = parse_program("type T { int; }").unwrap_err();
        assert!(
            err.message.contains("expected identifier"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_grouped_array_fields() {
        let err = parse_program("type T { T *a[4], *b is forward along D; }").unwrap_err();
        assert!(err.message.contains("array"), "{}", err.message);
    }

    #[test]
    fn new_expression() {
        let prog =
            parse_program("function mk(): Octree* { var n: Octree* = new Octree; return n; }")
                .unwrap();
        match &prog.funcs[0].body.stmts[0] {
            Stmt::VarDecl { init, .. } => assert!(matches!(init, Some(Expr::New(_, _)))),
            _ => panic!(),
        }
    }

    /// A procedure whose deepest path has `levels` counted levels: its
    /// body block plus `levels - 1` of the given shape.
    fn nested(levels: usize, shape: &str) -> String {
        let n = levels - 1;
        let body = match shape {
            "parens" => format!("y = {}x{};", "(".repeat(n), ")".repeat(n)),
            "chain" => format!("y = x{};", " + x".repeat(n)),
            "negs" => format!("y = {}x;", "-".repeat(n)),
            "fields" => format!("y = p{};", "->next".repeat(n)),
            "calls" => format!("y = {}x{};", "f(".repeat(n), ")".repeat(n)),
            "whiles" => format!("{}y = x;{}", "while x { ".repeat(n), " }".repeat(n)),
            _ => unreachable!(),
        };
        format!("procedure p() {{ {body} }}")
    }

    #[test]
    fn comparisons_do_not_chain() {
        assert!(parse_expr("a < b < c").is_err());
        assert!(parse_expr("x && a == b == c").is_err());
        let e = parse_expr("a < b && c + d * e >= f || g").unwrap();
        assert_eq!(
            crate::pretty::expr(&e),
            "((a < b) && ((c + (d * e)) >= f)) || g"
        );
    }

    #[test]
    fn nesting_is_capped_at_every_shape() {
        for shape in ["parens", "chain", "negs", "fields", "calls", "whiles"] {
            let at_cap = nested(MAX_NESTING, shape);
            assert!(parse_program(&at_cap).is_ok(), "{shape} at the cap");
            let err = parse_program(&nested(MAX_NESTING + 1, shape)).unwrap_err();
            assert!(
                err.message.contains("nests deeper"),
                "{shape}: {}",
                err.message
            );
        }
    }

    #[test]
    fn printed_programs_at_the_cap_parse_again() {
        // The printer parenthesizes nested operators; those parens must
        // not push a program that parsed back over the cap.
        for shape in ["parens", "chain", "negs", "fields", "calls", "whiles"] {
            let tree = parse_program(&nested(MAX_NESTING, shape)).unwrap();
            let printed = crate::pretty::program(&tree);
            let again = parse_program(&printed);
            assert!(again.is_ok(), "{shape}: {:?}", again.err());
        }
    }

    #[test]
    fn shallow_levels_add_up_along_one_path() {
        // Parens around a chain: both kinds count toward the same cap.
        let half = MAX_NESTING / 2;
        let inner = format!("x{}", " + x".repeat(half));
        let src = |parens: usize| {
            let e = format!("{}{inner}{}", "(".repeat(parens), ")".repeat(parens));
            format!("procedure p() {{ y = {e}; }}")
        };
        assert!(parse_program(&src(MAX_NESTING - half - 1)).is_ok());
        assert!(parse_program(&src(MAX_NESTING - half)).is_err());
    }
}
