//! # maybms-pipe — morsel-driven streaming execution
//!
//! The substrate's original executors run bottom-up and fully materialise
//! every intermediate relation: a `σ → π → σ → π` chain allocates four
//! complete relations, and memory traffic — not the probabilistic
//! bookkeeping — dominates the hot path. This crate is the push-based
//! streaming layer on top of the same operators:
//!
//! * a query plan is decomposed into **pipelines** split at *breakers* —
//!   operators that must see all of their input before emitting anything
//!   (hash-join *build*, aggregation, sort, distinct, limit, union,
//!   nested-loop join);
//! * within a pipeline, fused `Scan → Filter → Project → (join-probe)`
//!   stages consume the source in **morsels** (contiguous row ranges) and
//!   push each row through the whole stage chain with **no intermediate
//!   materialisation** — only the pipeline's final output is built, one
//!   morsel-local [`TupleBatch`](maybms_engine::tuple::TupleBatch) at a
//!   time;
//! * hash-join **builds are morsel-local**: each morsel constructs a
//!   private hash table and the per-key candidate lists are merged in
//!   morsel order ([`BuildTable`]), so the merged table is identical to a
//!   sequential build at any thread count;
//! * grouped aggregation is **streaming**: the breaker's input pipeline
//!   folds each surviving row into a morsel-local [`GroupTable`] of
//!   mergeable accumulator states, merged in morsel order with global
//!   first-seen key order ([`groupby`]) — `GROUP BY` plans never
//!   materialise their input;
//! * the **kernel-eligible σ/π prefix** of a pipeline runs *columnar*:
//!   each morsel pivots into a typed
//!   [`ColumnBatch`](maybms_engine::column::ColumnBatch) (only the
//!   referenced source columns), predicates and projections evaluate
//!   through the vectorised kernels of
//!   [`maybms_engine::vector`], and rows pivot back to shared-row
//!   tuples at probes, breakers, and sinks (where the U-relational WSD
//!   bookkeeping lives). The planner decides eligibility per stage at
//!   plan time; `EXPLAIN` marks those stages `(vectorised)`. Off-switch:
//!   `MAYBMS_COLUMNAR=0` (see [`columnar_default`]);
//! * when the source table is **columnar at rest** (every stored table
//!   since the storage refactor — see `maybms_engine::catalog`), a
//!   kernel-eligible scan skips the per-morsel pivot entirely: stages
//!   borrow the stored column slices (dictionary codes included) and
//!   the whole σ/π prefix runs **zero-pivot** — `EXPLAIN` marks the
//!   source `(columnar, zero-pivot)` and the
//!   `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total`
//!   counters stay flat. Dictionary-encoded text columns feed the
//!   hash-join build side and the dense GROUP BY key path with u32
//!   codes and pre-cached hashes instead of strings;
//! * morsels run on the `maybms-par` pool and morsel outputs are
//!   concatenated in morsel order, preserving PR 2's determinism
//!   contract: **pipelined output is bit-identical to the materialising
//!   path at any thread count** — and the columnar path is bit-identical
//!   to the row path, values *and* errors (property-tested at 1/2/8
//!   threads in `crates/bench/tests/pipe_equiv.rs` and
//!   `crates/bench/tests/vec_equiv.rs`).
//!
//! Two front ends share the machinery:
//!
//! * [`plan`] — decomposes and executes an engine
//!   [`PhysicalPlan`](maybms_engine::PhysicalPlan) (certain relations);
//! * [`ustream`] — a lazy [`UStream`] over U-relations that
//!   `maybms-core` threads through its select/project/join chains,
//!   conjoining world-set descriptors in the probe stage and dropping
//!   unsatisfiable rows exactly as `urel::algebra` does.
//!
//! Both expose an `explain`-style description of the decomposition —
//! what the SQL `EXPLAIN` statement prints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub(crate) mod fuse;
pub mod groupby;
pub mod plan;
pub mod ustream;

pub use build::BuildTable;
pub use groupby::GroupTable;
pub use plan::{decompose, execute, execute_opts, execute_with, explain, PipePlan};
pub use ustream::UStream;

/// Is the columnar (vectorised) execution path enabled by default?
///
/// On unless `MAYBMS_COLUMNAR=0` — the default [`execute`] /
/// [`UStream::collect`] entry points consult this; the `*_opts`
/// variants take the flag explicitly (what the columnar ≡ row
/// equivalence property tests pin). Read once per process.
pub fn columnar_default() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("MAYBMS_COLUMNAR").map_or(true, |v| v.trim() != "0")
    })
}

/// Hash of a row slice's key columns (columnar single-key fast path),
/// `None` when any key is NULL. Agrees with the engine's
/// `tuple_key_hash`, so pipelined probes hit the same buckets as
/// materialised joins.
#[inline]
pub(crate) fn row_key_hash(row: &[maybms_engine::Value], keys: &[usize]) -> Option<u64> {
    if let [k] = keys {
        maybms_engine::ops::single_key_hash(&row[*k])
    } else {
        maybms_engine::ops::join_key_hash(row, keys)
    }
}
