//! Operator-aware pretty-printer.
//!
//! The reorderer's output is Prolog source (the paper shows "essentially raw
//! output from the reorderer"), so the printer round-trips with the reader:
//! `parse_term(print(t)) == t` for any term, with operator notation, list
//! syntax, and quoted atoms where needed.

use crate::ast::{Clause, SourceProgram};
use crate::ops::OpTable;
use crate::symbol::sym;
use crate::term::Term;
use crate::token::atom_needs_quotes;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// The standard operator table, built once: the printer never changes it.
/// (The reader keeps a table of its own, which `op/3` may extend.)
fn standard_ops() -> &'static OpTable {
    static OPS: OnceLock<OpTable> = OnceLock::new();
    OPS.get_or_init(OpTable::standard)
}

/// Formats `term` into `f`. `var_names[i]` names `Var(i)`; out-of-range
/// variables print as `_G<i>` (matching the paper's `_NNNN` style output).
pub fn fmt_term(f: &mut fmt::Formatter<'_>, term: &Term, var_names: &[String]) -> fmt::Result {
    let mut out = String::new();
    // 1201: a standalone term is unambiguous, so operator atoms print bare.
    write_term(&mut out, term, 1201, standard_ops(), var_names);
    f.write_str(&out)
}

/// Renders a term to a string with the standard operator table.
pub fn term_to_string(term: &Term, var_names: &[String]) -> String {
    let mut out = String::new();
    // 1201: see `fmt_term`.
    write_term(&mut out, term, 1201, standard_ops(), var_names);
    out
}

fn write_atom(out: &mut String, name: &str) {
    if atom_needs_quotes(name) {
        out.push('\'');
        for c in name.chars() {
            match c {
                '\'' => out.push_str("\\'"),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                other => out.push(other),
            }
        }
        out.push('\'');
    } else {
        out.push_str(name);
    }
}

fn write_var(out: &mut String, idx: usize, var_names: &[String]) {
    match var_names.get(idx) {
        Some(name) => {
            let _ = write!(out, "{name}");
        }
        None => {
            let _ = write!(out, "_G{idx}");
        }
    }
}

fn write_term(out: &mut String, term: &Term, max_prec: u32, ops: &OpTable, var_names: &[String]) {
    match term {
        Term::Var(v) => write_var(out, *v, var_names),
        Term::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Term::Float(x) => {
            if x.fract() == 0.0 && x.is_finite() {
                let _ = write!(out, "{x:.1}");
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Term::Atom(a) => {
            // An atom that names an operator has that operator's priority
            // as a term: parenthesise it in tighter contexts, or the
            // reader would try to apply it (e.g. the operand of `-` in
            // `- (=..)`).
            let name = a.as_str();
            // Treat an operator atom as having priority 1201 (as SWI
            // does): it is parenthesised in every operand context, since
            // the reader would otherwise try to apply it.
            if ops.is_op(name) && max_prec < 1201 {
                out.push('(');
                write_atom(out, name);
                out.push(')');
            } else {
                write_atom(out, name);
            }
        }
        Term::Struct(name, args) => {
            // List syntax
            if *name == sym(".") && args.len() == 2 {
                write_list(out, term, ops, var_names);
                return;
            }
            // {}/1
            if *name == sym("{}") && args.len() == 1 {
                out.push('{');
                write_term(out, &args[0], 1200, ops, var_names);
                out.push('}');
                return;
            }
            let name_str = name.as_str();
            // Infix operator
            if args.len() == 2 {
                if let Some(def) = ops.infix(name_str) {
                    let paren = def.prec > max_prec;
                    if paren {
                        out.push('(');
                    }
                    write_term(out, &args[0], def.left_max(), ops, var_names);
                    if name_str == "," {
                        out.push_str(", ");
                    } else {
                        // alphabetic operators need spaces; symbolic ones get
                        // them too, for readability
                        let _ = write!(out, " {name_str} ");
                    }
                    write_term(out, &args[1], def.right_max(), ops, var_names);
                    if paren {
                        out.push(')');
                    }
                    return;
                }
            }
            // Prefix operator
            if args.len() == 1 {
                // `-(1)` must not print as `- 1`: the reader would fold it
                // into a negative literal. Use functional notation for
                // sign operators over numbers.
                if matches!(name_str, "-" | "+") && matches!(args[0], Term::Int(_) | Term::Float(_))
                {
                    write_atom(out, name_str);
                    out.push('(');
                    write_term(out, &args[0], 999, ops, var_names);
                    out.push(')');
                    return;
                }
                if let Some(def) = ops.prefix(name_str) {
                    let paren = def.prec > max_prec;
                    if paren {
                        out.push('(');
                    }
                    out.push_str(name_str);
                    // space needed between alphanumeric op and operand, and
                    // between symbolic op and symbolic operand (e.g. `- -a`)
                    out.push(' ');
                    write_term(out, &args[0], def.right_max(), ops, var_names);
                    if paren {
                        out.push(')');
                    }
                    return;
                }
            }
            // Canonical functional notation
            write_atom(out, name_str);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_term(out, arg, 999, ops, var_names);
            }
            out.push(')');
        }
    }
}

fn write_list(out: &mut String, term: &Term, ops: &OpTable, var_names: &[String]) {
    out.push('[');
    let mut cur = term;
    let mut first = true;
    loop {
        match cur {
            Term::Struct(dot, args) if *dot == sym(".") && args.len() == 2 => {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                write_term(out, &args[0], 999, ops, var_names);
                cur = &args[1];
            }
            Term::Atom(nil) if *nil == sym("[]") => break,
            tail => {
                out.push('|');
                write_term(out, tail, 999, ops, var_names);
                break;
            }
        }
    }
    out.push(']');
}

/// Renders a clause, with `.` terminator but no trailing newline.
pub fn clause_to_string(clause: &Clause) -> String {
    let ops = standard_ops();
    let mut out = String::new();
    write_term(&mut out, &clause.head, 999, ops, &clause.var_names);
    if !clause.is_fact() {
        out.push_str(" :- ");
        let body_term = clause.body.to_term();
        write_term(&mut out, &body_term, 1199, ops, &clause.var_names);
    }
    out.push('.');
    out
}

/// Renders a whole program, one clause per line, with a blank line between
/// predicates.
pub fn program_to_string(program: &SourceProgram) -> String {
    let mut out = String::new();
    for d in &program.directives {
        out.push_str(":- ");
        out.push_str(&term_to_string(&d.goal, &[]));
        out.push_str(".\n");
    }
    if !program.directives.is_empty() && !program.clauses.is_empty() {
        out.push('\n');
    }
    let mut prev_pred = None;
    for clause in &program.clauses {
        let pred = clause.pred_id();
        if prev_pred.is_some() && prev_pred != Some(pred) {
            out.push('\n');
        }
        prev_pred = Some(pred);
        out.push_str(&clause_to_string(clause));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    fn round_trip(src: &str) {
        let (term, names) = parse_term(src).unwrap();
        let printed = term_to_string(&term, &names);
        let (reparsed, _) = parse_term(&printed).unwrap();
        assert_eq!(
            term, reparsed,
            "round-trip failed: {src} printed as {printed}"
        );
    }

    #[test]
    fn atoms_round_trip() {
        round_trip("foo");
        round_trip("'hello world'");
        round_trip("'Capitalised'");
        round_trip("[]");
        round_trip("{}");
    }

    #[test]
    fn numbers_round_trip() {
        round_trip("42");
        round_trip("-7");
        round_trip("3.5");
    }

    #[test]
    fn operators_round_trip() {
        round_trip("1+2*3");
        round_trip("(1+2)*3");
        round_trip("X is Y + 1");
        round_trip("a :- b, c ; d");
        round_trip("\\+ a");
        round_trip("a = b");
        round_trip("X =.. L");
    }

    #[test]
    fn lists_round_trip() {
        round_trip("[1, 2, 3]");
        round_trip("[H|T]");
        round_trip("[a, b|T]");
        round_trip("[[1], [2, X]]");
    }

    #[test]
    fn nested_control_round_trips() {
        round_trip("a :- (b -> c ; d)");
        round_trip("(a, b ; c)");
        round_trip("f((a, b), c)");
    }

    #[test]
    fn comma_args_parenthesised() {
        // A ','/2 structure in argument position must print with parens.
        let (term, names) = parse_term("f((a, b))").unwrap();
        let printed = term_to_string(&term, &names);
        assert_eq!(printed, "f((a, b))");
    }

    #[test]
    fn clause_printing() {
        let p = parse_program("grandmother(GC, GM) :- grandparent(GC, GM), female(GM).").unwrap();
        let s = clause_to_string(&p.clauses[0]);
        assert_eq!(s, "grandmother(GC, GM) :- grandparent(GC, GM), female(GM).");
    }

    #[test]
    fn program_round_trips() {
        let src = "\
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).

mother(john, joan).
";
        let p = parse_program(src).unwrap();
        let printed = program_to_string(&p);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p.clauses, p2.clauses);
    }

    #[test]
    fn quoted_atom_printing() {
        let s = term_to_string(&Term::atom("hello world"), &[]);
        assert_eq!(s, "'hello world'");
        let s = term_to_string(&Term::atom("don't"), &[]);
        assert_eq!(s, "'don\\'t'");
    }

    #[test]
    fn unnamed_vars_print_generated_names() {
        let t = Term::app("f", vec![Term::Var(3)]);
        assert_eq!(term_to_string(&t, &[]), "f(_G3)");
    }
}
