//! A lightweight statement parser over the token stream.
//!
//! The flow-sensitive rule (D009) needs more structure than a flat
//! token walk: it reasons about *paths* through a function. This
//! module recovers just enough shape for that — per-function statement
//! trees with branches (`if`/`else`, `match`), loops (`for`/`while`/
//! `loop`) and early exits (`return`/`break`/`continue`) — without
//! attempting a real Rust grammar. Everything inside a flat statement
//! stays a token range: expressions are never parsed, only scanned.
//!
//! The parser is deliberately *lossy and total*: any construct it does
//! not understand is swallowed into the nearest flat statement by
//! bracket-depth scanning, so malformed or exotic input degrades to a
//! coarser statement tree instead of an error. Coarser trees can only
//! *hide* flow (fewer distinct paths), never invent it, which keeps the
//! dataflow rules on the false-negative side of any parse imprecision.
//! A robustness test in `tests/fixtures.rs` runs this over every file
//! in the workspace.

use crate::lexer::{Token, TokenKind};

/// One parsed function body.
#[derive(Debug)]
pub struct Func {
    /// Function name (for findings).
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    pub body: Vec<Stmt>,
}

/// One statement. Flat variants carry `[lo, hi)` token ranges into the
/// file's token slice; structured variants carry child statement lists.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> = <expr>;` — `name` is `Some` only for a plain
    /// identifier pattern (`let h = ...` / `let mut h = ...`);
    /// destructuring patterns and `let _` are untracked by design.
    Let {
        name: Option<String>,
        lo: usize,
        hi: usize,
        line: u32,
    },
    /// Any other flat statement (expression, `use`, macro call, ...).
    Expr {
        lo: usize,
        hi: usize,
        line: u32,
    },
    /// `return <expr>;` (or a trailing diverging arm expression).
    Return {
        lo: usize,
        hi: usize,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    If {
        /// Condition token range (includes `let` patterns of `if let`).
        cond: (usize, usize),
        then_b: Vec<Stmt>,
        else_b: Vec<Stmt>,
        line: u32,
    },
    /// `for`/`while`/`loop` — `head` covers the iterator/condition
    /// tokens (empty for bare `loop`).
    Loop {
        head: (usize, usize),
        body: Vec<Stmt>,
        line: u32,
    },
    Match {
        /// Scrutinee token range.
        head: (usize, usize),
        arms: Vec<Arm>,
        line: u32,
    },
    /// A bare `{ ... }` / `unsafe { ... }` block.
    Block {
        body: Vec<Stmt>,
        line: u32,
    },
}

/// One `match` arm: pattern (incl. guard) token range plus body.
#[derive(Debug)]
pub struct Arm {
    pub pat: (usize, usize),
    pub body: Vec<Stmt>,
    pub line: u32,
}

/// Nesting bound: beyond this the parser flattens instead of recursing
/// (a statement tree this deep adds no flow precision worth the risk).
const MAX_DEPTH: u32 = 64;

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes()[0] == c as u8
}

/// Parses every function (including nested ones) in the file. Function
/// bodies never overlap in the result: a nested `fn` is lifted out as
/// its own entry and skipped in the enclosing body.
#[must_use]
pub fn parse_functions(tokens: &[Token]) -> Vec<Func> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_ident(&tokens[i], "fn") {
            i = parse_fn(tokens, i, &mut out, 0);
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one `fn` starting at the `fn` keyword; returns the index one
/// past the function (or past the `fn` token when it is not actually a
/// function definition, e.g. an `fn(..)` pointer type).
fn parse_fn(tokens: &[Token], at: usize, out: &mut Vec<Func>, depth: u32) -> usize {
    let line = tokens[at].line;
    let Some(name_tok) = tokens.get(at + 1) else {
        return at + 1;
    };
    if name_tok.kind != TokenKind::Ident {
        return at + 1; // `fn(...)` pointer type or malformed
    }
    let name = name_tok.text.clone();
    // Skip the signature: generics, params, return type, where-clause —
    // everything up to the body `{` or a trait-decl `;`.
    let mut i = at + 2;
    let mut angle = 0i32;
    let mut round = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '-') && tokens.get(i + 1).is_some_and(|u| is_punct(u, '>')) {
            i += 2; // `->` — don't let its `>` close a generic
            continue;
        }
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') {
            angle -= 1;
        } else if is_punct(t, '(') || is_punct(t, '[') {
            round += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') {
            round -= 1;
        } else if round == 0 && angle <= 0 {
            if is_punct(t, ';') {
                return i + 1; // bodyless trait method
            }
            if is_punct(t, '{') {
                let (body, end) = parse_block(tokens, i + 1, out, depth);
                out.push(Func { name, line, body });
                return end;
            }
        }
        i += 1;
    }
    i
}

/// Parses statements until the matching `}`; `i` points just past the
/// opening `{`. Returns `(stmts, index one past the close)`.
fn parse_block(
    tokens: &[Token],
    mut i: usize,
    out: &mut Vec<Func>,
    depth: u32,
) -> (Vec<Stmt>, usize) {
    let mut stmts = Vec::new();
    if depth > MAX_DEPTH {
        // Too deep: swallow the block as one flat statement.
        let line = tokens.get(i).map_or(0, |t| t.line);
        let lo = i;
        i = skip_balanced_to_close(tokens, i);
        stmts.push(Stmt::Expr {
            lo,
            hi: i.saturating_sub(1),
            line,
        });
        return (stmts, i);
    }
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '}') {
            return (stmts, i + 1);
        }
        if is_punct(t, ';') {
            i += 1; // stray empty statement
            continue;
        }
        if is_punct(t, '#') {
            i = skip_attribute(tokens, i);
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "let" => {
                    let (s, next) = parse_let(tokens, i);
                    stmts.push(s);
                    i = next;
                    continue;
                }
                "if" => {
                    let (s, next) = parse_if(tokens, i, out, depth);
                    stmts.push(s);
                    i = next;
                    continue;
                }
                "match" => {
                    let (s, next) = parse_match(tokens, i, out, depth);
                    stmts.push(s);
                    i = next;
                    continue;
                }
                "for" | "while" | "loop" => {
                    let line = t.line;
                    let head_lo = i + 1;
                    let open = find_block_open(tokens, head_lo);
                    let head_hi = open;
                    let (body, next) = parse_block(tokens, open + 1, out, depth + 1);
                    stmts.push(Stmt::Loop {
                        head: (head_lo, head_hi),
                        body,
                        line,
                    });
                    i = next;
                    continue;
                }
                "unsafe" if tokens.get(i + 1).is_some_and(|u| is_punct(u, '{')) => {
                    let (body, next) = parse_block(tokens, i + 2, out, depth + 1);
                    stmts.push(Stmt::Block { body, line: t.line });
                    i = next;
                    continue;
                }
                "return" => {
                    let line = t.line;
                    let lo = i;
                    let hi = scan_stmt_end(tokens, i + 1);
                    stmts.push(Stmt::Return { lo, hi, line });
                    i = hi;
                    continue;
                }
                "break" => {
                    let line = t.line;
                    i = scan_stmt_end(tokens, i + 1);
                    stmts.push(Stmt::Break { line });
                    continue;
                }
                "continue" => {
                    let line = t.line;
                    i = scan_stmt_end(tokens, i + 1);
                    stmts.push(Stmt::Continue { line });
                    continue;
                }
                "fn" => {
                    // Nested function: lifted into `out`, skipped here.
                    i = parse_fn(tokens, i, out, depth + 1);
                    continue;
                }
                "struct" | "enum" | "impl" | "trait" | "mod" => {
                    i = skip_item(tokens, i + 1);
                    continue;
                }
                _ => {}
            }
        }
        if is_punct(t, '{') {
            let (body, next) = parse_block(tokens, i + 1, out, depth + 1);
            stmts.push(Stmt::Block { body, line: t.line });
            i = next;
            continue;
        }
        // Anything else: a flat expression statement.
        let line = t.line;
        let lo = i;
        let hi = scan_stmt_end(tokens, i);
        stmts.push(Stmt::Expr { lo, hi, line });
        i = hi.max(lo + 1);
    }
    (stmts, i)
}

/// `let [mut] <pat> [: ty] = <expr>;` — the whole statement is one flat
/// range; only a plain identifier pattern yields a tracked name.
fn parse_let(tokens: &[Token], at: usize) -> (Stmt, usize) {
    let line = tokens[at].line;
    let mut j = at + 1;
    if tokens.get(j).is_some_and(|t| is_ident(t, "mut")) {
        j += 1;
    }
    let name = match (tokens.get(j), tokens.get(j + 1)) {
        (Some(n), Some(nx))
            if n.kind == TokenKind::Ident
                && n.text != "_"
                && (is_punct(nx, '=')
                    || (is_punct(nx, ':') && !is_punct2(tokens, j + 1, "::"))) =>
        {
            Some(n.text.clone())
        }
        _ => None,
    };
    let hi = scan_stmt_end(tokens, j);
    (
        Stmt::Let {
            name,
            lo: at,
            hi,
            line,
        },
        hi,
    )
}

/// `:` at `at` followed by another `:` (i.e. a `::` path)?
fn is_punct2(tokens: &[Token], at: usize, _pat: &str) -> bool {
    tokens.get(at + 1).is_some_and(|t| is_punct(t, ':'))
}

fn parse_if(tokens: &[Token], at: usize, out: &mut Vec<Func>, depth: u32) -> (Stmt, usize) {
    let line = tokens[at].line;
    let cond_lo = at + 1;
    let open = find_block_open(tokens, cond_lo);
    let (then_b, mut i) = parse_block(tokens, open + 1, out, depth + 1);
    let mut else_b = Vec::new();
    if tokens.get(i).is_some_and(|t| is_ident(t, "else")) {
        if tokens.get(i + 1).is_some_and(|t| is_ident(t, "if")) {
            let (nested, next) = parse_if(tokens, i + 1, out, depth);
            else_b.push(nested);
            i = next;
        } else if tokens.get(i + 1).is_some_and(|t| is_punct(t, '{')) {
            let (b, next) = parse_block(tokens, i + 2, out, depth + 1);
            else_b = b;
            i = next;
        }
    }
    (
        Stmt::If {
            cond: (cond_lo, open),
            then_b,
            else_b,
            line,
        },
        i,
    )
}

fn parse_match(tokens: &[Token], at: usize, out: &mut Vec<Func>, depth: u32) -> (Stmt, usize) {
    let line = tokens[at].line;
    let head_lo = at + 1;
    let open = find_block_open(tokens, head_lo);
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < tokens.len() {
        if is_punct(&tokens[i], '}') {
            i += 1;
            break;
        }
        if is_punct(&tokens[i], '#') {
            i = skip_attribute(tokens, i);
            continue;
        }
        if is_punct(&tokens[i], ',') {
            i += 1;
            continue;
        }
        let arm_line = tokens[i].line;
        let pat_lo = i;
        let arrow = find_arm_arrow(tokens, i);
        let pat_hi = arrow;
        let mut body = Vec::new();
        let mut j = arrow + 2; // past `=>`
        if tokens.get(j).is_some_and(|t| is_punct(t, '{')) {
            let (b, next) = parse_block(tokens, j + 1, out, depth + 1);
            body = b;
            j = next;
        } else if j < tokens.len() {
            let t = &tokens[j];
            if is_ident(t, "return") {
                let hi = scan_arm_expr_end(tokens, j + 1);
                body.push(Stmt::Return {
                    lo: j,
                    hi,
                    line: t.line,
                });
                j = hi;
            } else if is_ident(t, "break") {
                j = scan_arm_expr_end(tokens, j + 1);
                body.push(Stmt::Break { line: t.line });
            } else if is_ident(t, "continue") {
                j = scan_arm_expr_end(tokens, j + 1);
                body.push(Stmt::Continue { line: t.line });
            } else {
                let hi = scan_arm_expr_end(tokens, j);
                body.push(Stmt::Expr {
                    lo: j,
                    hi,
                    line: t.line,
                });
                j = hi;
            }
        }
        arms.push(Arm {
            pat: (pat_lo, pat_hi),
            body,
            line: arm_line,
        });
        if j <= i {
            j = i + 1; // guarantee progress on malformed arms
        }
        i = j;
    }
    (
        Stmt::Match {
            head: (head_lo, open),
            arms,
            line,
        },
        i,
    )
}

/// Finds the `{` opening a control-flow body: the first `{` at bracket
/// depth 0 scanning from `at` (braces inside parens/brackets — closure
/// bodies, struct literals in call args — are skipped by the depth
/// count; Rust forbids bare struct literals in these positions).
fn find_block_open(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '(') || is_punct(t, '[') {
            depth += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') {
            depth -= 1;
        } else if depth <= 0 && is_punct(t, '{') {
            return i;
        }
        i += 1;
    }
    i.saturating_sub(1)
}

/// Finds the `=>` of a match arm at bracket depth 0 (struct patterns
/// `Foo { .. }` and tuple patterns nest; `>=`/`->`/guard comparisons
/// never produce `=` directly followed by `>`).
fn find_arm_arrow(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '(') || is_punct(t, '[') || is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') || is_punct(t, '}') {
            if depth == 0 {
                return i; // malformed arm; stop at the match close
            }
            depth -= 1;
        } else if depth == 0
            && is_punct(t, '=')
            && tokens.get(i + 1).is_some_and(|u| is_punct(u, '>'))
        {
            return i;
        }
        i += 1;
    }
    i.saturating_sub(1)
}

/// Scans a flat statement to its end: the `;` at depth 0 (consumed) or
/// a `}` at depth 0 (not consumed — trailing expression). Returns the
/// index one past the statement.
fn scan_stmt_end(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '(') || is_punct(t, '[') || is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') {
            depth -= 1;
        } else if is_punct(t, '}') {
            if depth == 0 {
                return i;
            }
            depth -= 1;
        } else if depth == 0 && is_punct(t, ';') {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Scans a non-block match-arm expression to its end: `,` at depth 0
/// (not consumed; the arm loop eats it) or the match's `}`.
fn scan_arm_expr_end(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '(') || is_punct(t, '[') || is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') {
            depth -= 1;
        } else if is_punct(t, '}') {
            if depth == 0 {
                return i;
            }
            depth -= 1;
        } else if depth == 0 && is_punct(t, ',') {
            return i;
        }
        i += 1;
    }
    i
}

/// Skips `#[...]` / `#![...]`; `at` points at `#`.
fn skip_attribute(tokens: &[Token], at: usize) -> usize {
    let mut i = at + 1;
    if tokens.get(i).is_some_and(|t| is_punct(t, '!')) {
        i += 1;
    }
    if !tokens.get(i).is_some_and(|t| is_punct(t, '[')) {
        return at + 1;
    }
    let mut depth = 1i32;
    i += 1;
    while i < tokens.len() && depth > 0 {
        if is_punct(&tokens[i], '[') {
            depth += 1;
        } else if is_punct(&tokens[i], ']') {
            depth -= 1;
        }
        i += 1;
    }
    i
}

/// Skips a nested item (`struct`/`enum`/`impl`/`trait`/`mod` inside a
/// body): to the first `;` or past the balanced `{...}`.
fn skip_item(tokens: &[Token], at: usize) -> usize {
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, ';') {
            return i + 1;
        }
        if is_punct(t, '{') {
            return skip_balanced_to_close(tokens, i + 1);
        }
        i += 1;
    }
    i
}

/// `i` points just past an opening `{`; returns the index one past the
/// matching `}`.
fn skip_balanced_to_close(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 1i32;
    while i < tokens.len() && depth > 0 {
        if is_punct(&tokens[i], '{') {
            depth += 1;
        } else if is_punct(&tokens[i], '}') {
            depth -= 1;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Func> {
        parse_functions(&lex(src).tokens)
    }

    #[test]
    fn flat_statements_and_let_names() {
        let f = parse("fn f() { let h = go(); h.use_it(); let _ = drop_me(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "f");
        assert_eq!(f[0].body.len(), 3);
        match &f[0].body[0] {
            Stmt::Let { name, .. } => assert_eq!(name.as_deref(), Some("h")),
            s => panic!("{s:?}"),
        }
        match &f[0].body[2] {
            Stmt::Let { name, .. } => assert!(name.is_none(), "`let _` is untracked"),
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn if_else_chain_and_match_arms() {
        let f = parse(
            "fn f(x: u32) -> u32 {
                if x > 1 { a(); } else if x > 0 { b(); } else { c(); }
                match x { 0 => zero(), 1 => { one(); } _ => return 9, }
                x
            }",
        );
        assert_eq!(f.len(), 1);
        let body = &f[0].body;
        assert_eq!(body.len(), 3, "{body:?}");
        let Stmt::If { then_b, else_b, .. } = &body[0] else {
            panic!("{body:?}")
        };
        assert_eq!(then_b.len(), 1);
        assert!(matches!(else_b[0], Stmt::If { .. }), "else-if chains");
        let Stmt::Match { arms, .. } = &body[1] else {
            panic!("{body:?}")
        };
        assert_eq!(arms.len(), 3);
        assert!(matches!(arms[2].body[0], Stmt::Return { .. }));
    }

    #[test]
    fn loops_breaks_and_closure_braces() {
        let f = parse(
            "fn f(v: &[u32]) {
                for x in v.iter().filter(|y| { **y > 0 }) {
                    if *x == 3 { break; }
                    while *x > 0 { continue; }
                }
                loop { return; }
            }",
        );
        let body = &f[0].body;
        assert_eq!(body.len(), 2, "{body:?}");
        let Stmt::Loop { body: inner, .. } = &body[0] else {
            panic!("{body:?}")
        };
        assert_eq!(inner.len(), 2, "closure braces must not open the body");
    }

    #[test]
    fn nested_fns_are_lifted_not_inlined() {
        let f = parse("fn outer() { fn inner() { leak(); } outer_stmt(); }");
        assert_eq!(f.len(), 2, "{f:?}");
        let outer = f.iter().find(|x| x.name == "outer").unwrap();
        assert_eq!(
            outer.body.len(),
            1,
            "inner fn is lifted out: {:?}",
            outer.body
        );
        assert!(f.iter().any(|x| x.name == "inner"));
    }

    #[test]
    fn trait_decls_generics_and_fn_pointers() {
        let f = parse(
            "trait T { fn sig(&self) -> Option<u32>; }
             fn g<F: Fn(u32) -> bool>(cb: F, p: fn(u8) -> u8) -> Vec<u32> { body(); Vec::new() }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].name, "g");
        assert_eq!(f[0].body.len(), 2);
    }

    #[test]
    fn struct_literals_in_match_arms() {
        let f = parse(
            "fn f(o: Option<Cfg>) -> Cfg {
                match o { Some(Cfg { x }) => Cfg { x }, None => Cfg { x: 0 }, }
            }",
        );
        let Stmt::Match { arms, .. } = &f[0].body[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 2, "{arms:?}");
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn f( {",
            "fn",
            "fn f() { match x { ",
            "fn f() { if }",
            "fn f() { let = ; }",
            "}}}}",
            "fn f() { a(b(c(d(e(",
        ] {
            let _ = parse(src);
        }
    }
}
