//! The value-level parts of the relational operators.
//!
//! The operators themselves — σ, π, ⋈ probes, grouped aggregation, sort,
//! union, cross product, limit — run in `maybms-pipe`, once, over
//! U-relations. What they share lives here: the items a SELECT list and
//! an ORDER BY clause are made of ([`ProjectItem`], [`SortKey`]), the
//! mergeable aggregate accumulators ([`AggState`], [`ExactSum`]) and
//! `repair key`'s partitioner ([`group_indices`]).
//!
//! # Parallel execution
//!
//! [`group_indices`] runs chunked on the process-wide `maybms-par` pool
//! when the input is large enough to amortise task overhead;
//! [`group_indices_with`] takes an explicit pool handle and chunk size
//! (used by the determinism property tests to pin 1/2/8-thread pools on
//! tiny inputs). Parallel output — key order and member order — is
//! *identical* to the sequential path at any thread count: chunk
//! partials are merged in chunk order, and chunk boundaries never
//! influence per-row results.

mod aggregate;
mod project;
mod sort;

/// Inputs below this many rows run sequentially in [`group_indices`]: at
/// engine row costs, a task is only worth queueing once a chunk holds a
/// few thousand rows.
pub const PAR_MIN_ROWS: usize = 8192;

/// Minimum chunk (morsel) size handed to the pool by [`group_indices`]
/// and the pipeline executor.
pub const PAR_MIN_CHUNK: usize = 4096;

pub use aggregate::{group_indices, group_indices_with, AggFunc, AggState, ExactSum};
pub use project::ProjectItem;
pub use sort::SortKey;
