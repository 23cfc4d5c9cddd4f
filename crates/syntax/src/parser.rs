//! Operator-precedence reader for Edinburgh-syntax Prolog.
//!
//! Implements the classic DEC-10 reading algorithm: a primary term is read,
//! then extended by infix/postfix operators whose precedence fits the
//! current maximum. Variables are resolved to clause-local indices; `_` is
//! fresh at every occurrence.

use crate::ast::{Body, Clause, Directive, SourceProgram};
use crate::error::{ParseError, Pos, Result};
use crate::ops::OpTable;
use crate::symbol::sym;
use crate::term::Term;
use crate::token::{tokenize, Token, TokenKind};
use std::collections::HashMap;

/// Deepest term nesting the reader accepts. Each level is one nested
/// argument, list, operand or parenthesis (a clause body nests one level
/// per goal; list elements do not nest). Reading recurses once per level
/// and so does every later walk over the term; the reader is the deepest
/// walk of the reorder pipeline, at about 5.5 KB a level in a debug build
/// and 0.7 KB in a release build. At this limit reading and reordering a
/// program fit in a thread's default 2 MiB stack in either build; deeper
/// input is a positioned parse error, never a stack overflow.
pub const MAX_TERM_DEPTH: usize = 256;

/// Reader over a token stream, with an operator table and a per-term
/// variable table.
pub struct Parser {
    tokens: Vec<Token>,
    index: usize,
    ops: OpTable,
    vars: HashMap<String, usize>,
    var_names: Vec<String>,
    /// Nesting depth of the term being read (see [`MAX_TERM_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Creates a parser for the given source text with the standard
    /// operator table.
    pub fn new(src: &str) -> Result<Parser> {
        Parser::with_ops(src, OpTable::standard())
    }

    /// Creates a parser with a custom operator table.
    pub fn with_ops(src: &str, ops: OpTable) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(src)?,
            index: 0,
            ops,
            vars: HashMap::new(),
            var_names: Vec::new(),
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.index).map(|t| &t.kind)
    }

    fn pos(&self) -> Pos {
        self.tokens
            .get(self.index)
            .or_else(|| self.tokens.last())
            .map(|t| t.pos)
            .unwrap_or(Pos { line: 1, col: 1 })
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.index).map(|t| t.kind.clone());
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(ParseError::new(self.pos(), msg))
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == Some(kind) {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn fresh_var(&mut self, name: &str) -> Term {
        if name == "_" {
            let idx = self.var_names.len();
            self.var_names.push(format!("_A{idx}"));
            return Term::Var(idx);
        }
        if let Some(&idx) = self.vars.get(name) {
            return Term::Var(idx);
        }
        let idx = self.var_names.len();
        self.var_names.push(name.to_owned());
        self.vars.insert(name.to_owned(), idx);
        Term::Var(idx)
    }

    /// Can the token begin a term? Used to decide whether a prefix-operator
    /// atom is being applied or stands alone.
    fn starts_term(kind: &TokenKind) -> bool {
        matches!(
            kind,
            TokenKind::Atom(_)
                | TokenKind::Var(_)
                | TokenKind::Int(_)
                | TokenKind::Float(_)
                | TokenKind::Str(_)
                | TokenKind::Open
                | TokenKind::OpenCT
                | TokenKind::OpenList
                | TokenKind::OpenCurly
        )
    }

    /// Reads one term with precedence at most `max_prec`. Returns the term
    /// and its actual precedence. Every recursive read passes through
    /// here, so this is where the nesting limit is enforced.
    pub fn term(&mut self, max_prec: u32) -> Result<(Term, u32)> {
        if self.depth == MAX_TERM_DEPTH {
            return self.error(format!("term nested deeper than {MAX_TERM_DEPTH} levels"));
        }
        self.depth += 1;
        let read = self.operator_term(max_prec);
        self.depth -= 1;
        read
    }

    /// A primary term extended by the infix and postfix operators that fit
    /// under `max_prec`.
    fn operator_term(&mut self, max_prec: u32) -> Result<(Term, u32)> {
        let (mut left, mut left_prec) = self.primary(max_prec)?;
        loop {
            match self.peek() {
                Some(TokenKind::Atom(name)) => {
                    let name = name.clone();
                    if let Some(def) = self.ops.infix(&name) {
                        if def.prec <= max_prec && left_prec <= def.left_max() {
                            self.bump();
                            let (right, _) = self.term(def.right_max())?;
                            left = Term::struct_(sym(&name), vec![left, right]);
                            left_prec = def.prec;
                            continue;
                        }
                    }
                    if let Some(def) = self.ops.postfix(&name) {
                        if def.prec <= max_prec && left_prec <= def.left_max() {
                            self.bump();
                            left = Term::struct_(sym(&name), vec![left]);
                            left_prec = def.prec;
                            continue;
                        }
                    }
                    return Ok((left, left_prec));
                }
                Some(TokenKind::Comma) => {
                    // ',' is an infix operator of precedence 1000 when the
                    // context allows it (i.e. outside argument lists).
                    let def = crate::ops::OpDef {
                        prec: 1000,
                        op_type: crate::ops::OpType::Xfy,
                    };
                    if def.prec <= max_prec && left_prec <= def.left_max() {
                        self.bump();
                        let (right, _) = self.term(def.right_max())?;
                        left = Term::struct_(sym(","), vec![left, right]);
                        left_prec = def.prec;
                        continue;
                    }
                    return Ok((left, left_prec));
                }
                Some(TokenKind::Bar) => {
                    // '|' as an infix is a synonym for ';' at 1100.
                    if 1100 <= max_prec && left_prec <= 1099 {
                        self.bump();
                        let (right, _) = self.term(1100)?;
                        left = Term::struct_(sym(";"), vec![left, right]);
                        left_prec = 1100;
                        continue;
                    }
                    return Ok((left, left_prec));
                }
                _ => return Ok((left, left_prec)),
            }
        }
    }

    fn primary(&mut self, max_prec: u32) -> Result<(Term, u32)> {
        match self.bump() {
            None => self.error("unexpected end of input"),
            Some(TokenKind::Int(n)) => Ok((Term::Int(n), 0)),
            Some(TokenKind::Float(x)) => Ok((Term::Float(x), 0)),
            Some(TokenKind::Str(s)) => {
                // Double-quoted strings read as lists of character codes.
                Ok((Term::list(s.chars().map(|c| Term::Int(c as i64))), 0))
            }
            Some(TokenKind::Var(name)) => Ok((self.fresh_var(&name), 0)),
            Some(TokenKind::Open) | Some(TokenKind::OpenCT) => {
                let (t, _) = self.term(1200)?;
                self.expect(&TokenKind::Close, ")")?;
                Ok((t, 0))
            }
            Some(TokenKind::OpenList) => self.list(),
            Some(TokenKind::OpenCurly) => {
                if self.peek() == Some(&TokenKind::CloseCurly) {
                    self.bump();
                    return Ok((Term::atom("{}"), 0));
                }
                let (t, _) = self.term(1200)?;
                self.expect(&TokenKind::CloseCurly, "}")?;
                Ok((Term::struct_(sym("{}"), vec![t]), 0))
            }
            Some(TokenKind::Atom(name)) => self.atom_or_application(&name, max_prec),
            Some(other) => self.error(format!("unexpected token {other:?}")),
        }
    }

    fn atom_or_application(&mut self, name: &str, max_prec: u32) -> Result<(Term, u32)> {
        // Functor application binds tightest: `f(...)`.
        if self.peek() == Some(&TokenKind::OpenCT) {
            self.bump();
            let mut args = vec![self.term(999)?.0];
            while self.peek() == Some(&TokenKind::Comma) {
                self.bump();
                args.push(self.term(999)?.0);
            }
            self.expect(&TokenKind::Close, ") after arguments")?;
            return Ok((Term::struct_(sym(name), args), 0));
        }
        // Prefix operator application.
        if let Some(def) = self.ops.prefix(name) {
            let applies = def.prec <= max_prec
                && self.peek().is_some_and(Self::starts_term)
                // An atom that is an infix operator cannot start the operand
                // (e.g. `- =` is not an application), unless it could itself
                // be a prefix op or plain atom; keep it simple and allow it —
                // failures surface as parse errors downstream.
                ;
            if applies {
                // Negative numeric literals: `-1` reads as the integer -1.
                if name == "-" {
                    match self.peek() {
                        Some(TokenKind::Int(n)) => {
                            let n = *n;
                            self.bump();
                            return Ok((Term::Int(-n), 0));
                        }
                        Some(TokenKind::Float(x)) => {
                            let x = *x;
                            self.bump();
                            return Ok((Term::Float(-x), 0));
                        }
                        _ => {}
                    }
                }
                // Don't consume an infix operator atom as an operand of a
                // prefix op when it is immediately followed by something
                // that suggests infix use; a pragmatic lookahead: if the
                // next token is an atom that is *only* an infix op, treat
                // the prefix atom as a plain atom instead.
                let treat_as_plain = match self.peek() {
                    Some(TokenKind::Atom(next)) => {
                        self.ops.infix(next).is_some() && self.ops.prefix(next).is_none() && {
                            // peek one further: `f(- , x)` style is rare;
                            // an infix op right after a would-be prefix op
                            // means the prefix atom is an operand.
                            true
                        }
                    }
                    _ => false,
                };
                if !treat_as_plain {
                    let (arg, _) = self.term(def.right_max())?;
                    return Ok((Term::struct_(sym(name), vec![arg]), def.prec));
                }
            }
        }
        // Plain atom. An atom that is an operator is a valid operand; give
        // it precedence 0 as an operand (slight liberalisation of the
        // standard that accepts strictly more programs).
        Ok((Term::atom(name), 0))
    }

    fn list(&mut self) -> Result<(Term, u32)> {
        if self.peek() == Some(&TokenKind::CloseList) {
            self.bump();
            return Ok((Term::nil(), 0));
        }
        let mut items = vec![self.term(999)?.0];
        while self.peek() == Some(&TokenKind::Comma) {
            self.bump();
            items.push(self.term(999)?.0);
        }
        let tail = if self.peek() == Some(&TokenKind::Bar) {
            self.bump();
            self.term(999)?.0
        } else {
            Term::nil()
        };
        self.expect(&TokenKind::CloseList, "] at end of list")?;
        Ok((Term::partial_list(items, tail), 0))
    }

    /// Reads one clause-or-directive terminated by `.`; returns `None` at
    /// end of input. The variable table is reset per clause.
    pub fn next_item(&mut self) -> Result<Option<Item>> {
        if self.peek().is_none() {
            return Ok(None);
        }
        self.vars.clear();
        self.var_names.clear();
        let (term, _) = self.term(1200)?;
        self.expect(&TokenKind::End, ". at end of clause")?;
        let var_names = std::mem::take(&mut self.var_names);

        let colon_dash = sym(":-");
        let question = sym("?-");
        let item = match &term {
            Term::Struct(f, args) if *f == colon_dash && args.len() == 2 => Item::Clause(Clause {
                head: args[0].clone(),
                body: Body::from_term(&args[1]),
                var_names,
            }),
            Term::Struct(f, args) if (*f == colon_dash || *f == question) && args.len() == 1 => {
                Item::Directive(Directive {
                    goal: args[0].clone(),
                })
            }
            head => {
                if head.pred_id().is_none() {
                    return self.error(format!("clause head must be callable: {head}"));
                }
                Item::Clause(Clause {
                    head: head.clone(),
                    body: Body::True,
                    var_names,
                })
            }
        };
        Ok(Some(item))
    }
}

/// One parsed top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Clause(Clause),
    Directive(Directive),
}

/// Parses a whole program (clauses + directives).
pub fn parse_program(src: &str) -> Result<SourceProgram> {
    let mut parser = Parser::new(src)?;
    let mut program = SourceProgram::default();
    while let Some(item) = parser.next_item()? {
        match item {
            Item::Clause(c) => program.clauses.push(c),
            Item::Directive(d) => program.directives.push(d),
        }
    }
    Ok(program)
}

/// Parses a single term (no trailing `.` required). Returns the term and
/// the names of its variables (index `i` names `Var(i)`).
pub fn parse_term(src: &str) -> Result<(Term, Vec<String>)> {
    let mut parser = Parser::new(src)?;
    let (term, _) = parser.term(1200)?;
    if parser.peek() == Some(&TokenKind::End) {
        parser.bump();
    }
    if parser.peek().is_some() {
        return parser.error("trailing tokens after term");
    }
    Ok((term, parser.var_names))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: &str) -> Term {
        parse_term(src).unwrap().0
    }

    #[test]
    fn atoms_and_numbers() {
        assert_eq!(t("foo"), Term::atom("foo"));
        assert_eq!(t("42"), Term::Int(42));
        assert_eq!(t("-42"), Term::Int(-42));
        assert_eq!(t("3.5"), Term::Float(3.5));
        assert_eq!(t("'quoted atom'"), Term::atom("quoted atom"));
    }

    #[test]
    fn compound_terms() {
        assert_eq!(
            t("mother(john, joan)"),
            Term::app("mother", vec![Term::atom("john"), Term::atom("joan")])
        );
        assert_eq!(
            t("f(g(x), Y)"),
            Term::app(
                "f",
                vec![Term::app("g", vec![Term::atom("x")]), Term::Var(0)]
            )
        );
    }

    #[test]
    fn variables_share_within_term() {
        let (term, names) = parse_term("f(X, Y, X)").unwrap();
        assert_eq!(term.variables().len(), 2);
        assert_eq!(names, vec!["X", "Y"]);
        // `_` is always fresh
        let (term, _) = parse_term("f(_, _)").unwrap();
        assert_eq!(term.variables().len(), 2);
    }

    #[test]
    fn infix_precedence() {
        // 1+2*3 parses as 1+(2*3)
        assert_eq!(
            t("1+2*3"),
            Term::app(
                "+",
                vec![
                    Term::Int(1),
                    Term::app("*", vec![Term::Int(2), Term::Int(3)])
                ]
            )
        );
        // left associativity of yfx: 1-2-3 = (1-2)-3
        assert_eq!(
            t("1-2-3"),
            Term::app(
                "-",
                vec![
                    Term::app("-", vec![Term::Int(1), Term::Int(2)]),
                    Term::Int(3)
                ]
            )
        );
        // right associativity of xfy: (a,b,c) = ','(a, ','(b,c))
        let term = t("(a, b, c)");
        match &term {
            Term::Struct(f, args) if f.as_str() == "," => match &args[1] {
                Term::Struct(f2, _) => assert_eq!(f2.as_str(), ","),
                other => panic!("expected nested comma, got {other}"),
            },
            other => panic!("expected comma term, got {other}"),
        }
    }

    #[test]
    fn clause_and_directive_parsing() {
        let p = parse_program(
            ":- entry(main/0).\n\
             parent(C, P) :- mother(C, P).\n\
             mother(john, joan).",
        )
        .unwrap();
        assert_eq!(p.directives.len(), 1);
        assert_eq!(p.clauses.len(), 2);
        assert!(p.clauses[1].is_fact());
        assert!(!p.clauses[0].is_fact());
    }

    #[test]
    fn body_structure() {
        let p = parse_program("a(X) :- b(X), (c(X) ; d(X)), \\+ e(X), !.").unwrap();
        let goals = p.clauses[0].body.conjuncts();
        assert_eq!(goals.len(), 4);
        assert!(matches!(goals[1], Body::Or(_, _)));
        assert!(matches!(goals[2], Body::Not(_)));
        assert!(matches!(goals[3], Body::Cut));
    }

    #[test]
    fn if_then_else_parses() {
        let p = parse_program("a(X) :- (b(X) -> c(X) ; d(X)).").unwrap();
        assert!(matches!(p.clauses[0].body, Body::IfThenElse(_, _, _)));
    }

    #[test]
    fn lists_parse() {
        assert_eq!(t("[]"), Term::nil());
        assert_eq!(t("[1, 2]"), Term::list(vec![Term::Int(1), Term::Int(2)]));
        let (term, _) = parse_term("[H|T]").unwrap();
        assert_eq!(term, Term::cons(Term::Var(0), Term::Var(1)));
        let (term, _) = parse_term("[a, b|T]").unwrap();
        assert_eq!(
            term,
            Term::partial_list(vec![Term::atom("a"), Term::atom("b")], Term::Var(0))
        );
    }

    #[test]
    fn strings_read_as_code_lists() {
        assert_eq!(t("\"ab\""), Term::list(vec![Term::Int(97), Term::Int(98)]));
    }

    #[test]
    fn curly_terms() {
        assert_eq!(t("{}"), Term::atom("{}"));
        assert_eq!(t("{a}"), Term::app("{}", vec![Term::atom("a")]));
    }

    #[test]
    fn operators_in_clause_bodies() {
        let p = parse_program("len([_|L], C, N) :- C1 is C + 1, len(L, C1, N).").unwrap();
        let goals = p.clauses[0].body.conjuncts();
        assert_eq!(goals.len(), 2);
        match goals[0] {
            Body::Call(term) => {
                assert_eq!(term.pred_id().unwrap().name.as_str(), "is");
            }
            other => panic!("expected is/2 call, got {other:?}"),
        }
    }

    #[test]
    fn prefix_minus_application() {
        assert_eq!(
            t("-(1, 2)"),
            Term::app("-", vec![Term::Int(1), Term::Int(2)])
        );
        assert_eq!(t("- a"), Term::app("-", vec![Term::atom("a")]));
    }

    #[test]
    fn directive_with_question_mark() {
        let p = parse_program("?- main.").unwrap();
        assert_eq!(p.directives.len(), 1);
    }

    #[test]
    fn errors_report_positions() {
        let err = parse_program("a(.").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(parse_program("f(a) :- ").is_err());
        assert!(parse_program("1.").is_err()); // number is not a valid head
    }

    #[test]
    fn missing_end_is_an_error() {
        assert!(parse_program("a(b)").is_err());
    }

    #[test]
    fn paper_family_tree_fragment_parses() {
        let src = r#"
            female(X) :- girl(X).
            female(X) :- wife(_, X).
            male(X) :- not(female(X)).
            grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
            grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
            parent(C, P) :- mother(C, P).
            parent(C, P) :- mother(C, M), wife(P, M).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.clauses.len(), 7);
    }

    /// `p(f(f(…a…)))` whose innermost `a` is read at nesting `depth`.
    fn nested(depth: usize) -> String {
        format!("p({}a{}.", "f(".repeat(depth - 2), ")".repeat(depth - 1))
    }

    #[test]
    fn deep_terms_are_a_positioned_error_not_a_stack_overflow() {
        let err = parse_program(&nested(200_000)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert_eq!(err.pos.line, 1);
        assert_eq!(err.pos.col as usize, 2 + 2 * (MAX_TERM_DEPTH - 1) + 1);
    }

    #[test]
    fn every_nesting_form_reads_up_to_the_limit_and_no_further() {
        let d = MAX_TERM_DEPTH;
        let forms: [fn(usize) -> String; 6] = [
            nested,
            |d| format!("p({}a{}).", "[".repeat(d - 2), "]".repeat(d - 2)),
            |d| format!("p :- {}a{}.", "(".repeat(d - 2), ")".repeat(d - 2)),
            |d| format!("p :- {}a.", "\\+ ".repeat(d - 2)),
            |d| format!("p :- {}a.", "a, ".repeat(d - 2)),
            |d| format!("p :- {}a.", "a ; ".repeat(d - 2)),
        ];
        for form in forms {
            let at_limit = form(d);
            if let Err(e) = parse_program(&at_limit) {
                panic!("{at_limit:.40}…: {e}");
            }
            let err = parse_program(&form(d + 1)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }
}
