//! Arithmetic evaluation: `is/2` and the numeric comparisons.

use super::Cont;
use crate::error::EngineError;
use crate::machine::{Ctl, Machine};
use crate::store::Store;
use prolog_syntax::arith::{int_div, int_mod};
use prolog_syntax::Term;
use std::cmp::Ordering;

/// A Prolog number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    I(i64),
    F(f64),
}

impl Num {
    pub fn to_term(self) -> Term {
        match self {
            Num::I(n) => Term::Int(n),
            Num::F(x) => Term::Float(x),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Num::I(n) => n as f64,
            Num::F(x) => x,
        }
    }

    fn compare(self, other: Num) -> Ordering {
        match (self, other) {
            (Num::I(a), Num::I(b)) => a.cmp(&b),
            (a, b) => a
                .as_f64()
                .partial_cmp(&b.as_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

/// Evaluates an arithmetic expression against the store.
pub fn eval_arith(store: &Store, t: &Term) -> Result<Num, EngineError> {
    let t = store.deref(t);
    match &t {
        Term::Int(n) => Ok(Num::I(*n)),
        Term::Float(x) => Ok(Num::F(*x)),
        Term::Var(_) => Err(EngineError::Instantiation(
            "arithmetic expression contains an unbound variable".into(),
        )),
        Term::Atom(a) => match a.as_str() {
            "pi" => Ok(Num::F(std::f64::consts::PI)),
            "e" => Ok(Num::F(std::f64::consts::E)),
            _ => Err(EngineError::Type {
                expected: "evaluable",
                found: t.clone(),
            }),
        },
        Term::Struct(f, args) => {
            let name = f.as_str();
            match (name, args.len()) {
                ("+", 2) => bin(store, args, int_op(i64::checked_add), f64_op(|a, b| a + b)),
                ("-", 2) => bin(store, args, int_op(i64::checked_sub), f64_op(|a, b| a - b)),
                ("*", 2) => bin(store, args, int_op(i64::checked_mul), f64_op(|a, b| a * b)),
                ("/", 2) => {
                    // C-Prolog behaviour: integer division when both
                    // operands are integers, float division otherwise.
                    let a = eval_arith(store, &args[0])?;
                    let b = eval_arith(store, &args[1])?;
                    match (a, b) {
                        (Num::I(_), Num::I(0)) => {
                            Err(EngineError::Arithmetic("division by zero".into()))
                        }
                        (Num::I(x), Num::I(y)) => Ok(Num::I(x.wrapping_div(y))),
                        (x, y) => {
                            let d = y.as_f64();
                            if d == 0.0 {
                                Err(EngineError::Arithmetic("division by zero".into()))
                            } else {
                                Ok(Num::F(x.as_f64() / d))
                            }
                        }
                    }
                }
                ("//", 2) => int_only(store, args, |a, b| {
                    int_div(a, b).ok_or_else(|| EngineError::Arithmetic("division by zero".into()))
                }),
                ("mod", 2) => int_only(store, args, |a, b| {
                    int_mod(a, b).ok_or_else(|| EngineError::Arithmetic("mod by zero".into()))
                }),
                ("rem", 2) => int_only(store, args, |a, b| {
                    if b == 0 {
                        Err(EngineError::Arithmetic("rem by zero".into()))
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                ("min", 2) => {
                    let a = eval_arith(store, &args[0])?;
                    let b = eval_arith(store, &args[1])?;
                    Ok(if a.compare(b).is_le() { a } else { b })
                }
                ("max", 2) => {
                    let a = eval_arith(store, &args[0])?;
                    let b = eval_arith(store, &args[1])?;
                    Ok(if a.compare(b).is_ge() { a } else { b })
                }
                ("**", 2) => {
                    let a = eval_arith(store, &args[0])?.as_f64();
                    let b = eval_arith(store, &args[1])?.as_f64();
                    Ok(Num::F(a.powf(b)))
                }
                ("^", 2) => {
                    let a = eval_arith(store, &args[0])?;
                    let b = eval_arith(store, &args[1])?;
                    match (a, b) {
                        (Num::I(x), Num::I(y)) if y >= 0 => Ok(Num::I(
                            x.checked_pow(y.min(u32::MAX as i64) as u32)
                                .ok_or_else(|| {
                                    EngineError::Arithmetic("integer overflow in ^".into())
                                })?,
                        )),
                        (x, y) => Ok(Num::F(x.as_f64().powf(y.as_f64()))),
                    }
                }
                ("<<", 2) => int_only(store, args, |a, b| Ok(a.wrapping_shl(b as u32))),
                (">>", 2) => int_only(store, args, |a, b| Ok(a.wrapping_shr(b as u32))),
                ("/\\", 2) => int_only(store, args, |a, b| Ok(a & b)),
                ("\\/", 2) => int_only(store, args, |a, b| Ok(a | b)),
                ("xor", 2) => int_only(store, args, |a, b| Ok(a ^ b)),
                ("-", 1) => match eval_arith(store, &args[0])? {
                    Num::I(n) => Ok(Num::I(n.wrapping_neg())),
                    Num::F(x) => Ok(Num::F(-x)),
                },
                ("+", 1) => eval_arith(store, &args[0]),
                ("\\", 1) => match eval_arith(store, &args[0])? {
                    Num::I(n) => Ok(Num::I(!n)),
                    other => Err(EngineError::Type {
                        expected: "integer",
                        found: other.to_term(),
                    }),
                },
                ("abs", 1) => match eval_arith(store, &args[0])? {
                    Num::I(n) => Ok(Num::I(n.wrapping_abs())),
                    Num::F(x) => Ok(Num::F(x.abs())),
                },
                ("sign", 1) => match eval_arith(store, &args[0])? {
                    Num::I(n) => Ok(Num::I(n.signum())),
                    Num::F(x) => Ok(Num::F(if x == 0.0 { 0.0 } else { x.signum() })),
                },
                ("sqrt", 1) => Ok(Num::F(eval_arith(store, &args[0])?.as_f64().sqrt())),
                ("truncate", 1) => Ok(Num::I(eval_arith(store, &args[0])?.as_f64() as i64)),
                ("float", 1) => Ok(Num::F(eval_arith(store, &args[0])?.as_f64())),
                _ => Err(EngineError::Type {
                    expected: "evaluable",
                    found: t.clone(),
                }),
            }
        }
    }
}

fn bin(
    store: &Store,
    args: &[Term],
    int_case: impl Fn(i64, i64) -> Result<i64, EngineError>,
    float_case: impl Fn(f64, f64) -> f64,
) -> Result<Num, EngineError> {
    let a = eval_arith(store, &args[0])?;
    let b = eval_arith(store, &args[1])?;
    match (a, b) {
        (Num::I(x), Num::I(y)) => int_case(x, y).map(Num::I),
        (x, y) => Ok(Num::F(float_case(x.as_f64(), y.as_f64()))),
    }
}

fn int_op(f: impl Fn(i64, i64) -> Option<i64>) -> impl Fn(i64, i64) -> Result<i64, EngineError> {
    move |a, b| f(a, b).ok_or_else(|| EngineError::Arithmetic("integer overflow".into()))
}

fn f64_op(f: impl Fn(f64, f64) -> f64) -> impl Fn(f64, f64) -> f64 {
    f
}

fn int_only(
    store: &Store,
    args: &[Term],
    f: impl Fn(i64, i64) -> Result<i64, EngineError>,
) -> Result<Num, EngineError> {
    let a = eval_arith(store, &args[0])?;
    let b = eval_arith(store, &args[1])?;
    match (a, b) {
        (Num::I(x), Num::I(y)) => f(x, y).map(Num::I),
        (Num::F(x), _) => Err(EngineError::Type {
            expected: "integer",
            found: Term::Float(x),
        }),
        (_, Num::F(y)) => Err(EngineError::Type {
            expected: "integer",
            found: Term::Float(y),
        }),
    }
}

/// `is/2`.
pub fn is2<'db>(m: &mut Machine<'db>, args: &[Term], k: Cont<'_, 'db>) -> Ctl {
    match eval_arith(&m.store, &args[1]) {
        Ok(n) => {
            let ok = crate::unify::unify(&mut m.store, &args[0], &n.to_term(), false);
            if ok {
                k(m)
            } else {
                Ctl::Fail
            }
        }
        Err(e) => Ctl::Err(e),
    }
}

/// The six numeric comparison built-ins share this shape.
pub fn num_compare<'db>(
    m: &mut Machine<'db>,
    args: &[Term],
    k: Cont<'_, 'db>,
    accept: impl Fn(Ordering) -> bool,
) -> Ctl {
    let a = match eval_arith(&m.store, &args[0]) {
        Ok(n) => n,
        Err(e) => return Ctl::Err(e),
    };
    let b = match eval_arith(&m.store, &args[1]) {
        Ok(n) => n,
        Err(e) => return Ctl::Err(e),
    };
    if accept(a.compare(b)) {
        k(m)
    } else {
        Ctl::Fail
    }
}
