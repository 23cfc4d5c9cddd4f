//! Terms, reader, and printer for a DEC-10-style Prolog.
//!
//! This crate is the syntactic substrate of the reordering system described
//! in Gooley & Wah, *Efficient Reordering of Prolog Programs* (ICDE 1988).
//! It provides:
//!
//! * interned functor/atom symbols ([`Symbol`]),
//! * the term representation ([`Term`]) shared by the engine, the static
//!   analyses, and the reorderer,
//! * a typed clause-body AST ([`Body`]) that makes control constructs
//!   (`,`/`;`/`->`/`\+`/`!`) explicit, because the reorderer's mobility
//!   rules are defined over those constructs,
//! * a tokenizer and operator-precedence reader for standard Edinburgh
//!   syntax ([`parse_program`], [`parse_term`]), and
//! * an operator-aware pretty-printer used to emit reordered programs
//!   ([`pretty`]).
//!
//! # Example
//!
//! ```
//! use prolog_syntax::{parse_program, pretty::program_to_string};
//!
//! let src = "grandmother(GC, GM) :- grandparent(GC, GM), female(GM).";
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.clauses.len(), 1);
//! let printed = program_to_string(&program);
//! assert!(printed.contains("grandmother(GC, GM)"));
//! ```

pub mod arith;
pub mod ast;
pub mod error;
pub mod ops;
pub mod parser;
pub mod pretty;
pub mod symbol;
pub mod term;
pub mod token;

pub use ast::{Body, Clause, Directive, SourceProgram};
pub use error::{ParseError, Result};
pub use ops::{OpTable, OpType};
pub use parser::{parse_program, parse_term, Parser, MAX_TERM_DEPTH};
pub use symbol::{sym, Symbol};
pub use term::{PredId, Term};
