//! # maybms-pipe — morsel-driven streaming execution
//!
//! The one set of relational operators, and the executor every SQL
//! statement runs on. The paper's parsimonious translation (§2.3) maps
//! each positive-RA operator to the *same* operator over the
//! representation plus condition-column bookkeeping — σ and π carry
//! conditions along (π eliminates no duplicates), ⋈ conjoins them and
//! drops unsatisfiable pairs, ∪ is multiset union — at a cost polynomial
//! in the representation and independent of the number of worlds. Here
//! that is a push-based streaming executor:
//!
//! * a query is a set of **pipelines** split at *breakers* — operators
//!   that must see all of their input before emitting anything:
//!   hash-join *build* ([`build`]), grouped aggregation and `DISTINCT`
//!   ([`groupby`]), and sort, union, cross product and limit
//!   ([`breaker`]);
//! * within a pipeline, fused `Scan → Filter → Project → (join-probe)`
//!   stages consume the source in **morsels** (contiguous row ranges) and
//!   push each row through the whole stage chain with **no intermediate
//!   materialisation** — only the pipeline's final output is built, one
//!   morsel-local [`TupleBatch`](maybms_engine::tuple::TupleBatch) at a
//!   time;
//! * every in-flight row carries its world-set descriptor: probe stages
//!   conjoin the two sides' WSDs and drop unsatisfiable pairs; a
//!   t-certain table is the case where every WSD is empty, so certain
//!   and uncertain queries share this one executor;
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
//!   predicates and projections evaluate through the vectorised kernels
//!   of [`maybms_engine::vector`] over a typed
//!   [`ColumnBatch`](maybms_engine::column::ColumnBatch) of only the
//!   referenced source columns, and rows pivot back to shared-row tuples
//!   at probes, breakers, and sinks (where the WSD bookkeeping lives).
//!   Eligibility is decided per stage from the bound expressions
//!   ([`maybms_engine::vector::vectorisable`]); `EXPLAIN` marks those
//!   stages `(vectorised)`, and every other stage takes the
//!   row-at-a-time walk;
//! * when the source table is **columnar at rest** (every stored table),
//!   a kernel-eligible scan skips the per-morsel pivot entirely: stages
//!   borrow the stored column slices (dictionary codes included) and
//!   the whole σ/π prefix runs **zero-pivot** — `EXPLAIN` marks the
//!   source `(columnar, zero-pivot)` and the
//!   `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total`
//!   counters stay flat. Dictionary-encoded text columns feed the
//!   hash-join build side and the dense GROUP BY key path with u32
//!   codes and pre-cached hashes instead of strings;
//! * every pipeline — filter-only selection, sink walk, the dense-code
//!   GROUP BY fold — runs on **one morsel driver**, which alone owns the
//!   chunk rule, the zone-map skip, the governor checkpoint and the
//!   per-morsel tally; each run keeps one [`maybms_obs::PipelineStats`] record and
//!   hands it, when it ends, to the metrics registry, its `pipeline`
//!   span and the statement's [`maybms_obs::QueryStats`] at once (this
//!   crate adds to the registry nowhere else);
//! * morsels run on the `maybms-par` pool and morsel outputs are
//!   concatenated in morsel order. The determinism contract: **output —
//!   values, WSDs, row order and the first runtime error — depends on
//!   neither thread count nor morsel size**, and equals a row-major
//!   scalar walk of the same chain (property-tested against the
//!   `maybms_bench::naive` oracle at 1/2/8 threads, over compacted and
//!   row-major sources, in `crates/bench/tests/pipe_equiv.rs`,
//!   `vec_equiv.rs` and `dict_equiv.rs`).
//!
//! The front end is [`UStream`]: a lazy pipeline over one source
//! U-relation that `maybms-core` threads its select/project/join chains
//! through; its [`UStream::stage_labels`] are the stage lines `EXPLAIN`
//! and `EXPLAIN ANALYZE` print. [`vertical`] (attribute-level
//! uncertainty, §2.1) recomposes its pieces through the same probes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breaker;
pub mod build;
pub(crate) mod fuse;
pub mod groupby;
pub mod ustream;
pub mod vertical;

pub use build::BuildTable;
pub use groupby::GroupTable;
pub use ustream::UStream;

/// Hash of a row slice's key columns (columnar single-key fast path),
/// `None` when any key is NULL — what both the build and the probe side
/// of a hash join bucket by.
#[inline]
pub(crate) fn row_key_hash(row: &[maybms_engine::Value], keys: &[usize]) -> Option<u64> {
    if let [k] = keys {
        maybms_engine::ops::single_key_hash(&row[*k])
    } else {
        maybms_engine::ops::join_key_hash(row, keys)
    }
}
