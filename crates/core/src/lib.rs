//! # maybms-core — MayBMS query processing
//!
//! This crate ties the stack together into "a complete probabilistic
//! database management system" (§1): the SQL frontend (`maybms-sql`), the
//! U-relational representation and algebra (`maybms-urel`), the confidence
//! engines (`maybms-conf`), and the relational substrate
//! (`maybms-engine`).
//!
//! The paper's §2.2 language maps here as follows:
//!
//! | construct | module |
//! |---|---|
//! | `conf`, `aconf(ε,δ)`, `tconf`, `possible` | [`plan`], [`agg`], [`exec`] |
//! | `repair key … weight by …`, `pick tuples …` | [`plan`], [`exec`] (via `maybms-urel`) |
//! | `esum`, `ecount` (linearity of expectation) | [`agg`] |
//! | `argmax(arg, value)` | [`agg`] |
//! | typing rules: static ones, then those reading t-certainty | [`plan`], then [`exec`], [`agg`] |
//! | updates as table modifications (§2.3) | [`db`] |
//!
//! A query is planned ([`plan::plan_query`]: bound, checked and ordered
//! against a read-only catalog) and then run ([`exec::run`]); `EXPLAIN`
//! prints the plan and runs nothing.
//!
//! ## Example: the paper's Figure 1, verbatim
//!
//! ```
//! use maybms_core::MayBms;
//! use maybms_engine::{DataType, Value};
//! use maybms_urel::rel;
//!
//! let mut db = MayBms::new();
//! db.register(
//!     "ft",
//!     rel(
//!         &[("player", DataType::Text), ("init", DataType::Text),
//!           ("final", DataType::Text), ("p", DataType::Float)],
//!         vec![
//!             vec!["Bryant".into(), "F".into(), "F".into(), Value::Float(0.8)],
//!             vec!["Bryant".into(), "F".into(), "SE".into(), Value::Float(0.05)],
//!             vec!["Bryant".into(), "F".into(), "SL".into(), Value::Float(0.15)],
//!         ],
//!     ),
//! ).unwrap();
//! // One-step random walk (Figure 1's R2) and its confidence.
//! let r = db.query(
//!     "select Final, conf() as p from (repair key Player, Init in FT weight by p) R \
//!      group by Final",
//! ).unwrap();
//! assert_eq!(r.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod db;
pub mod error;
pub mod exec;
pub mod plan;
pub mod translate;

pub use db::{MayBms, RecoveryReport, StatementResult};
pub use error::{CoreError, Result};
pub use exec::QueryOutput;
/// The SQL frontend, for callers that drive [`exec`] over their own catalog.
pub use maybms_sql as sql;
