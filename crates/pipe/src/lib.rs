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
//! * within a pipeline, fused `Scan → Filter → Project → Probe` stages
//!   consume the source in **morsels** (contiguous row ranges), each a
//!   run of typed [`ColumnBatch`](maybms_engine::column::ColumnBatch)
//!   vectors that pass through the whole stage chain with **no `Value`
//!   row built**: σ and π evaluate through the kernels of
//!   [`maybms_engine::vector`] (`EXPLAIN` marks those stages
//!   `(vectorised)`; an expression the kernels do not take —
//!   [`maybms_engine::vector::vectorisable`] — runs row by row over the
//!   batch), and a hash probe hashes key columns, verifies candidates on
//!   typed values and gathers the joined rows from both sides' columns.
//!   A materialising sink keeps the batches, which concatenate into the
//!   result's columns: a result is a column batch like a stored table;
//! * every in-flight row carries its world-set descriptor: probe stages
//!   conjoin the two sides' WSDs and drop unsatisfiable pairs; a
//!   t-certain table is the case where every WSD is empty (no conjoin
//!   runs), so certain and uncertain queries share this one executor;
//! * hash-join **builds are morsel-local and flat**: each morsel emits
//!   its `(hash, row)` pairs per shard, and each shard lays them out in
//!   morsel order as one row array sliced per key ([`BuildTable`]), so
//!   every key's candidates are the ascending rows a sequential build
//!   gives at any thread count, and a build allocates per shard and
//!   morsel, never per key;
//! * grouped aggregation is **streaming**: the breaker's input pipeline
//!   hands each batch of surviving rows to a morsel-local
//!   [`GroupTable`](maybms_engine::group::GroupTable) of mergeable
//!   accumulator states — groups from the key columns (dictionary codes,
//!   `i64`s, or `Value` keys), one fold per batch over typed argument
//!   columns — merged in morsel order with global first-seen key order
//!   ([`groupby`]); `GROUP BY` plans never materialise their input;
//! * every source — a stored table or an intermediate result — is
//!   columns, so morsels slice them (dictionary codes included) instead
//!   of pivoting: every scan runs **zero-pivot** — `EXPLAIN` marks the
//!   source `(columnar, zero-pivot)` and the
//!   `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total`
//!   counters stay flat. Dictionary-encoded text keys hash by code from
//!   per-entry hashes cached on the dictionary, on both sides of a join;
//! * every pipeline — filter-only selection and sink walk — runs on
//!   **one morsel driver**, which alone owns the chunk rule, the
//!   zone-map skip, the governor checkpoint and the per-morsel tally;
//!   each run keeps one [`maybms_obs::PipelineStats`] record and hands it,
//!   when it ends, to the metrics registry, its `pipeline` span and the
//!   statement's [`maybms_obs::QueryStats`] at once (this crate adds to
//!   the registry nowhere else);
//! * morsels run on the `maybms-par` pool and morsel outputs are
//!   concatenated in morsel order. The determinism contract: **output —
//!   values, WSDs, row order and the first runtime error — depends on
//!   neither thread count nor morsel size**, and equals a row-major
//!   scalar walk of the same chain (property-tested against the
//!   `maybms_bench::naive` oracle at 1/2/8 threads, over plain and
//!   dictionary-encoded sources, in `crates/bench/tests/pipe_equiv.rs`,
//!   `vec_equiv.rs`, `dict_equiv.rs` and `group_equiv.rs`).
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
pub use groupby::GroupedBatch;
pub use ustream::UStream;

/// Minimum morsel size the executor hands to the pool: a task is only
/// worth queueing once it holds a few thousand rows. The determinism
/// tests pin smaller morsels through the `_with` entry points.
pub const PAR_MIN_CHUNK: usize = 4096;
