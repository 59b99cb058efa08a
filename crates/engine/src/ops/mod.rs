//! The value-level parts of the relational operators.
//!
//! The operators themselves — σ, π, ⋈ probes, grouped aggregation, sort,
//! union, cross product, limit — run in `maybms-pipe`, once, over
//! U-relations. What they share lives here: the items a SELECT list and
//! an ORDER BY clause are made of ([`ProjectItem`], [`SortKey`]) and the
//! mergeable aggregate accumulators ([`AggState`], [`ExactSum`]). The
//! one hash grouping every operator that groups goes through is
//! [`crate::group::GroupTable`].

mod aggregate;
mod project;
mod sort;

pub use aggregate::{AggFunc, AggState, ExactSum};
pub use project::ProjectItem;
pub use sort::SortKey;
