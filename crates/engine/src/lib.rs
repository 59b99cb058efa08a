//! # maybms-engine — relational substrate for the MayBMS reproduction
//!
//! The original MayBMS (SIGMOD 2009) is "built entirely inside PostgreSQL"
//! (§2.4): U-relations are ordinary tables, uncertainty-aware queries are
//! rewritten to ordinary relational plans, and the confidence-computation
//! constructs are registered as executor aggregates. This crate is the
//! from-scratch stand-in for that relational backend:
//!
//! * [`types`] — dynamically-typed scalar [`types::Value`] with a total
//!   order and hash (join/group keys), NaN-free floats;
//! * [`schema`] — named, typed, qualifier-aware columns;
//! * [`mod@tuple`] — [`Tuple`] rows and the [`tuple::TupleBatch`] that
//!   builds them: the row view of a relation, made on request;
//! * [`expr`] — scalar expressions with SQL three-valued logic;
//! * [`mod@column`] — column-major morsels: typed column vectors with null
//!   bitmaps (MonetDB/X100-style);
//! * [`vector`] — vectorised expression kernels over [`mod@column`] batches,
//!   bit-identical to the scalar evaluator (scalar fallback on any
//!   divergence);
//! * [`ops`] — the value-level parts of the relational operators:
//!   SELECT-list and ORDER BY items and mergeable aggregate states (the
//!   operators themselves run in `maybms-pipe`, which hashes join keys
//!   as [`ValueRef`]s);
//! * [`group`] — the one hash grouping: [`group::GroupTable`] turns key
//!   columns into group ids for `GROUP BY`, `DISTINCT`, `select
//!   possible` and `repair key`;
//! * [`Expr::fold`] — bind-time constant folding that never moves or
//!   drops a runtime error.
//!
//! Queries are planned and run by `maybms-core` as fused pipelines over
//! U-relations (`maybms-pipe`); a t-certain table is a U-relation whose
//! conditions are all empty (§2.3), so this crate carries no plan tree
//! or catalog of its own.
//!
//! Everything is deterministic, matching the execution model the paper's
//! rewrites target: `maybms-pipe` runs these parts chunk-parallel on the
//! vendored `maybms-par` pool, and the output (order and values) is
//! identical to the sequential path at any thread count — group tables
//! merge in input order ([`group::GroupTable::merge_in`]), float sums
//! are exact ([`ops::ExactSum`]).
//!
//! ## Quick example
//!
//! ```
//! use maybms_engine::prelude::*;
//!
//! let schema = Schema::from_pairs(&[("player", DataType::Text), ("p", DataType::Float)]);
//! let ft = [
//!     Tuple::new(vec!["Bryant".into(), Value::Float(0.8)]),
//!     Tuple::new(vec!["Duncan".into(), Value::Float(0.6)]),
//! ];
//! let fit = Expr::col("p")
//!     .binary(BinaryOp::Gt, Expr::lit(Value::Float(0.7)))
//!     .bind(&schema)
//!     .unwrap();
//! let hits = ft.iter().filter(|t| fit.eval_predicate(t).unwrap()).count();
//! assert_eq!(hits, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod column;
pub mod error;
pub mod expr;
mod fold;
pub mod group;
pub mod hash;
pub mod ops;
pub mod schema;
pub mod tuple;
pub mod types;
pub mod vector;

pub use column::{BatchBuilder, Column, ColumnBatch, ColumnBuilder, ColumnData, NullMask, StrDict};
pub use error::{EngineError, Result};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use schema::{Field, Schema};
pub use tuple::Tuple;
pub use types::{DataType, Value, ValueRef};

/// Glob-import convenience: `use maybms_engine::prelude::*;`.
pub mod prelude {
    pub use crate::error::{EngineError, Result};
    pub use crate::expr::{BinaryOp, Expr, UnaryOp};
    pub use crate::ops::{AggFunc, ProjectItem, SortKey};
    pub use crate::schema::{Field, Schema};
    pub use crate::tuple::Tuple;
    pub use crate::types::{DataType, Value};
}
