//! # maybms-urel — U-relational databases
//!
//! "MayBMS stores probabilistic data in U-relational databases, a succinct
//! and complete representation system for large sets of possible worlds"
//! (§2.1). This crate implements that representation system and the
//! constructs that build it:
//!
//! * [`var`] / [`world_table`] — finite independent random variables,
//!   their distributions, world sampling and enumeration;
//! * [`wsd`] — world-set descriptors: the per-tuple condition columns;
//! * [`urelation`] — U-relations, the one relation type (a t-certain
//!   table is one with empty conditions), and the t-certain test;
//! * [`repair`] / [`pick`] — the `repair key` and `pick tuples`
//!   hypothesis-space constructs (§2.2);
//! * [`worlds`] — exponential possible-world enumeration, used as the
//!   ground-truth oracle in tests.
//!
//! The parsimonious translation of positive relational algebra onto this
//! representation (σ, π, ⋈, ∪ — §2.3) is `maybms-pipe`'s executor, which
//! also hosts the vertical decomposition for attribute-level uncertainty.
//!
//! ## Example: Figure 1's one-step random walk
//!
//! ```
//! use maybms_engine::{DataType, Expr, Value};
//! use maybms_urel::rel;
//! use maybms_urel::repair::{repair_key, RepairKeyOptions};
//! use maybms_urel::world_table::WorldTable;
//!
//! let ft = rel(
//!     &[("player", DataType::Text), ("init", DataType::Text),
//!       ("final", DataType::Text), ("p", DataType::Float)],
//!     vec![
//!         vec!["Bryant".into(), "F".into(), "F".into(), Value::Float(0.8)],
//!         vec!["Bryant".into(), "F".into(), "SE".into(), Value::Float(0.05)],
//!         vec!["Bryant".into(), "F".into(), "SL".into(), Value::Float(0.15)],
//!     ],
//! );
//! let mut wt = WorldTable::new();
//! let r2 = repair_key(
//!     &ft,
//!     &[Expr::col("player"), Expr::col("init")],
//!     &RepairKeyOptions { weight: Some(Expr::col("p")) },
//!     &mut wt,
//! ).unwrap();
//! assert_eq!(r2.len(), 3);            // three conditioned alternatives
//! assert_eq!(wt.num_vars(), 1);       // one variable for the (Bryant, F) group
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod pick;
pub mod repair;
pub mod urelation;
pub mod var;
pub mod world_table;
pub mod worlds;
pub mod wsd;

pub use error::{Result, UrelError};
pub use pick::{pick_tuples, pick_tuples_u, PickTuplesOptions};
pub use repair::{repair_key, repair_key_u, RepairKeyOptions};
pub use urelation::{rel, URelation, UTuple, Zone, ZONE_ROWS};
pub use var::{Assignment, Var};
pub use world_table::{World, WorldTable};
pub use wsd::Wsd;
