//! Morsel-local grouped aggregation with a deterministic merge — the
//! grouped-aggregation **breaker**, sibling of [`crate::build`].
//!
//! The grouping *is* the pipeline's sink: each morsel hands its
//! surviving rows over as column batches, a morsel-private
//! [`GroupTable`] — the engine's one hash grouping — resolves every
//! row's group from the key columns, and the caller's fold takes the
//! whole batch ([`GroupedBatch`]). No `Value` row is built. The
//! morsels' tables merge **in morsel order**:
//!
//! * a key's first-seen position is decided by the earliest morsel that
//!   contains it, so the merged key order equals the sequential scan's
//!   first-seen order at any thread count or morsel size;
//! * two states for the same key merge with a caller-supplied `merge`
//!   (e.g. [`AggState::merge`](maybms_engine::ops::AggState::merge)),
//!   whose contract is that fold-then-merge equals folding the
//!   concatenated rows — float sums use
//!   [`ExactSum`](maybms_engine::ops::ExactSum) to make that hold
//!   bit-for-bit.
//!
//! The state type is the caller's: `maybms-core` reaches this module
//! through [`UStream::collect_grouped`](crate::UStream::collect_grouped)
//! with an accumulator holding member WSDs (for the per-group `conf()`
//! fan-out), running `esum`/`ecount` partial sums and typed folds of
//! the standard aggregates.

use maybms_engine::group::GroupTable;
use maybms_engine::vector::KernelCounts;
use maybms_engine::{ColumnBatch, EngineError, Expr, Value};
use maybms_obs::PipelineStats;
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, UrelError, Wsd};

use crate::fuse::{self, MorselSink, Stage};

/// One batch of rows for a grouped fold (the `fold` of
/// [`UStream::collect_grouped`](crate::UStream::collect_grouped)).
#[derive(Debug, Clone, Copy)]
pub struct GroupedBatch<'a> {
    /// Each row's group — an index into the fold's states — for the
    /// batch's first `groups.len()` rows, the only ones to fold (a key
    /// expression raised at the next one).
    pub groups: &'a [u32],
    /// The rows, in the pipeline's output shape.
    pub batch: &'a ColumnBatch,
    /// The rows' conditions; `None` when every one is the tautology.
    pub wsds: Option<&'a [Wsd]>,
}

/// The grouped morsel sink: resolves every row's group from the (bound)
/// key expressions through its morsel-local [`GroupTable`] and hands the
/// batch to the caller's fold.
struct GroupSink<'a, A, NF, FF> {
    table: GroupTable<A>,
    key_exprs: &'a [Expr],
    new_state: &'a NF,
    fold: &'a FF,
}

impl<A, NF, FF> MorselSink for GroupSink<'_, A, NF, FF>
where
    NF: Fn() -> A,
    FF: Fn(&mut [A], &GroupedBatch<'_>, &mut KernelCounts) -> Result<()>,
{
    fn push_batch(
        &mut self,
        batch: ColumnBatch,
        wsds: Option<Vec<Wsd>>,
        kernels: &mut KernelCounts,
    ) -> Result<()> {
        // Keys are evaluated before the fold: only the rows before the
        // first key error fold.
        let (groups, pending) =
            self.table
                .group_batch(self.key_exprs, &batch, kernels, self.new_state);
        let rows = GroupedBatch {
            groups: &groups,
            batch: &batch,
            wsds: wsds.as_deref(),
        };
        (self.fold)(self.table.states_mut(), &rows, kernels)?;
        pending.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Run a fused stage chain with grouped aggregation as the terminal
/// sink: per-morsel [`GroupTable`]s, merged in morsel order, the merged
/// group count tallied into `stats`. Returns `(keys, states)` in
/// first-seen order. `fold` reads the columns `reads` of its batches
/// besides the keys (the pipeline gathers no other).
///
/// A run that fails is repeated as one morsel, and that run's error is
/// returned: it is the scalar walk's first error. Split runs can meet
/// another one first — a state may only fail when a later morsel's state
/// merges into it (`min` / `max` over text in one morsel and numbers in
/// the next), after a later row's error has already ended the run.
/// Governor aborts are returned as they are.
///
/// With no key expressions, a single global group is guaranteed (even
/// over an empty input — SQL's scalar-aggregate behaviour).
#[allow(clippy::too_many_arguments)]
pub(crate) fn group_stream<A, NF, FF, MF>(
    source: &URelation,
    stages: &[Stage],
    key_exprs: &[Expr],
    reads: &[usize],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    new_state: NF,
    fold: FF,
    mut merge: MF,
) -> Result<(Vec<Vec<Value>>, Vec<A>)>
where
    A: Send,
    NF: Fn() -> A + Sync,
    FF: Fn(&mut [A], &GroupedBatch<'_>, &mut KernelCounts) -> Result<()> + Sync,
    MF: FnMut(&mut A, A) -> Result<()>,
{
    // The sink reads the key columns and what the fold reads.
    let mut reads = reads.to_vec();
    key_exprs
        .iter()
        .for_each(|e| e.referenced_columns(&mut reads));
    let mut run = |min_morsel: usize, stats: &PipelineStats| -> Result<GroupTable<A>> {
        let sinks = fuse::run_sink(source, stages, &reads, pool, min_morsel, stats, || {
            GroupSink {
                table: GroupTable::new(),
                key_exprs,
                new_state: &new_state,
                fold: &fold,
            }
        })?;
        // The first morsel's table is kept; the later ones merge into it.
        let mut tables = sinks.into_iter().map(|sink| sink.table);
        let mut merged = tables.next().unwrap_or_default();
        for table in tables {
            merged.merge_in(table, &mut merge)?;
        }
        Ok(merged)
    };
    let mut merged = match run(min_morsel, stats) {
        Err(e) if !matches!(e, UrelError::Engine(EngineError::Gov(_))) => {
            // The repeat is not this pipeline's record: its tally goes
            // nowhere.
            let unrecorded = PipelineStats::new(source.len(), stages.len());
            return Err(run(source.len().max(1), &unrecorded).err().unwrap_or(e));
        }
        merged => merged?,
    };
    if key_exprs.is_empty() && merged.is_empty() {
        merged.entry(&[], &new_state);
    }
    stats.groups.add(merged.len() as u64);
    Ok(merged.into_parts())
}
