//! Physical relational operators over materialised [`Relation`]s.
//!
//! Free functions that transform relations directly — what `maybms-urel`
//! composes its parsimonious translation from, and what `maybms-core`
//! calls at its remaining materialising breakers (sort, distinct, union).
//!
//! # Parallel execution
//!
//! The batch-granular operators (σ, hash ⋈, grouping) run chunked on the
//! process-wide `maybms-par` pool when the input is large enough to
//! amortise task overhead; the `*_with` variants take an explicit pool
//! handle and chunk size (used by the determinism property tests to pin
//! 1/2/8-thread pools on tiny inputs). Parallel output — tuple order and
//! values — is *identical* to the sequential path at any thread count:
//! chunk partials are merged in chunk order, and chunk boundaries never
//! influence per-row results.
//!
//! [`Relation`]: crate::tuple::Relation

mod aggregate;
mod filter;
mod join;
mod project;
mod set;
mod sort;

/// Inputs below this many rows run sequentially in the auto-dispatching
/// operators: at engine row costs, a task is only worth queueing once a
/// chunk holds a few thousand rows.
pub const PAR_MIN_ROWS: usize = 8192;

/// Minimum chunk size the auto-dispatching operators hand to the pool.
pub const PAR_MIN_CHUNK: usize = 4096;

pub use aggregate::{
    aggregate, aggregate_with, group_indices, group_indices_with, AggCall, AggFunc, AggState,
    ExactSum,
};
pub use filter::{filter, filter_with};
pub use join::{
    cross_join, hash_join, hash_join_with, join_key_hash, join_keys_eq, nested_loop_join,
    single_key_hash, tuple_key_hash, tuple_keys_eq,
};
pub use project::{project, ProjectItem};
pub use set::{distinct, union_all};
pub use sort::{limit, sort, SortKey};
