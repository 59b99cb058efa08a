//! # MayBMS — a probabilistic database management system (Rust reproduction)
//!
//! A from-scratch reproduction of *MayBMS: A Probabilistic Database
//! Management System* (Huang, Antova, Koch, Olteanu — SIGMOD 2009): the
//! U-relational representation system, the uncertainty-aware SQL dialect
//! (`repair key`, `pick tuples`, `conf`, `aconf`, `tconf`, `possible`,
//! `esum`, `ecount`, `argmax`), and the full portfolio of confidence
//! computation engines (exact decomposition trees, Karp–Luby + DKLR
//! optimal Monte Carlo, and the independent product for tuple-independent
//! lineage) on top of an in-memory relational engine.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`MayBms`] — the database: SQL in, relations out;
//! * [`engine`] — the relational substrate;
//! * [`sql`] — the parser/AST;
//! * [`urel`] — U-relations, world-set descriptors, `repair-key`;
//! * [`conf`] — confidence computation;
//! * [`core`] — planner/executor internals;
//! * [`store`] — durability: write-ahead log, checkpoints, recovery.
//!
//! ## Quickstart
//!
//! ```
//! use maybms::MayBms;
//!
//! let mut db = MayBms::new();
//! db.run("create table coin (face text, w double precision)").unwrap();
//! db.run("insert into coin values ('heads', 0.5), ('tails', 0.5)").unwrap();
//! // One nondeterministic coin: repair the empty key — exactly one face
//! // survives per possible world, weighted by w.
//! let r = db.query(
//!     "select face, conf() as p from (repair key in coin weight by w) c group by face",
//! ).unwrap();
//! assert_eq!(r.len(), 2);
//! let p0 = r.tuples()[0].value(1).as_f64().unwrap();
//! assert!((p0 - 0.5).abs() < 1e-9);
//! ```

pub use maybms_conf as conf;
pub use maybms_core as core;
pub use maybms_engine as engine;
pub use maybms_par as par;
pub use maybms_pipe as pipe;
pub use maybms_sql as sql;
pub use maybms_store as store;
pub use maybms_urel as urel;

pub use maybms_core::{CoreError, MayBms, QueryOutput, Result, StatementResult};
