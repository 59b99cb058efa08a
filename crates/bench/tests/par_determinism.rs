//! Determinism property tests for the parallel execution paths.
//!
//! `maybms-par` callers promise that parallel output is **identical** to
//! the sequential path — same tuples, same order, same WSDs, bit-equal
//! confidence values — at any thread count. These properties check that
//! promise on explicit 1/2/8-thread pools with morsels small enough
//! that tiny random inputs really split across tasks, over adversarial
//! input families: NULL join keys (which must never match), cross-type
//! numeric keys (1 == 1.0), and conflicting WSDs (whose join pairs must
//! drop as unsatisfiable). (σ/π/⋈ chains at 1/2/8 threads against the
//! scalar oracle are `pipe_equiv.rs` and `vec_equiv.rs`.)

use maybms_conf::{dklr, karp_luby::KarpLuby, Dnf};
use maybms_engine::group::GroupTable;
use maybms_engine::vector::KernelCounts;
use maybms_engine::{BinaryOp, DataType, Expr, Schema, Tuple, Value};
use maybms_obs::QueryStats;
use maybms_par::ThreadPool;
use maybms_pipe::{GroupedBatch, UStream};
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use proptest::prelude::*;
use std::sync::Arc;

/// Thread counts every property is checked at (1 must equal 2 must equal
/// 8 must equal the sequential reference).
const THREADS: [usize; 3] = [1, 2, 8];

fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

fn arb_text() -> impl Strategy<Value = Value> {
    prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str)
}

fn schema3() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Unknown),
        ("v", DataType::Unknown),
        ("s", DataType::Text),
    ]))
}

fn arb_relation() -> impl Strategy<Value = URelation> {
    prop::collection::vec((arb_num(), arb_num(), arb_text()), 0..24).prop_map(|rows| {
        URelation::new(
            schema3(),
            rows.into_iter()
                .map(|(k, v, s)| UTuple::certain(Tuple::new(vec![k, v, s])))
                .collect(),
        )
        .unwrap()
    })
}

/// A U-relation over three shared variables: self-joins hit conflicting
/// assignments, i.e. unsatisfiable-WSD drops.
fn arb_urelation() -> impl Strategy<Value = (WorldTable, URelation)> {
    (
        prop::collection::vec((arb_num(), arb_num(), arb_text()), 0..16),
        prop::collection::vec(prop::collection::vec((0u32..3, 0u16..2), 0..3), 0..16),
    )
        .prop_map(|(rows, raw_wsds)| {
            let mut wt = WorldTable::new();
            for _ in 0..3 {
                wt.new_var(&[0.5, 0.5]).unwrap();
            }
            let tuples = rows
                .into_iter()
                .zip(raw_wsds.into_iter().chain(std::iter::repeat(Vec::new())))
                .map(|((k, v, s), raw)| {
                    let wsd = Wsd::from_assignments(
                        raw.into_iter()
                            .map(|(v, a)| Assignment::new(Var(v), a))
                            .collect(),
                    )
                    .unwrap_or_else(Wsd::tautology);
                    UTuple::new(Tuple::new(vec![k, v, s]), wsd)
                })
                .collect();
            (wt, URelation::new(schema3(), tuples).unwrap())
        })
}

/// A DNF with independent blocks plus a few cross-block clauses, for the
/// sampling property.
fn arb_dnf() -> impl Strategy<Value = (WorldTable, Dnf)> {
    (
        2usize..5,                                       // blocks
        prop::collection::vec((0u16..2, 0u16..2), 1..4), // cross clauses
    )
        .prop_map(|(blocks, cross)| {
            let mut wt = WorldTable::new();
            let mut vars = Vec::new();
            let mut clauses = Vec::new();
            for b in 0..blocks {
                let x = wt.new_var(&[0.4, 0.6]).unwrap();
                let y = wt
                    .new_var(&[0.3 + 0.1 * (b % 3) as f64, 0.7 - 0.1 * (b % 3) as f64])
                    .unwrap();
                vars.push((x, y));
                clauses.push(
                    Wsd::from_assignments(vec![Assignment::new(x, 1), Assignment::new(y, 1)])
                        .unwrap(),
                );
                clauses.push(
                    Wsd::from_assignments(vec![Assignment::new(x, 0), Assignment::new(y, 0)])
                        .unwrap(),
                );
            }
            for (i, &(a0, a1)) in cross.iter().enumerate() {
                let (x, _) = vars[i % vars.len()];
                let (_, y) = vars[(i + 1) % vars.len()];
                if let Some(w) =
                    Wsd::from_assignments(vec![Assignment::new(x, a0), Assignment::new(y, a1)])
                {
                    clauses.push(w);
                }
            }
            (wt, Dnf::new(clauses))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Grouping: one engine group table over the whole relation in one
    /// pass equals the grouped breaker's morsel-local tables merged in
    /// morsel order — first-seen key order and each group's member rows
    /// in ascending order — at 1/2/8 threads with single-row morsels.
    #[test]
    fn par_group_table_identical(u in arb_relation()) {
        let exprs = [Expr::col("k")];
        let bound = [exprs[0].bind(u.schema()).unwrap()];
        let rows = u.tuples();
        let mut table: GroupTable<Vec<Tuple>> = GroupTable::new();
        let (ids, err) =
            table.group_batch(&bound, u.at_rest().0, &mut KernelCounts::default(), &Vec::new);
        prop_assert!(err.is_none());
        for (i, &g) in ids.iter().enumerate() {
            table.states_mut()[g as usize].push(rows[i].data.clone());
        }
        let seq = table.into_parts();
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            // The fold copies whole rows: it reads every column.
            let every: Vec<usize> = (0..u.schema().len()).collect();
            let par = UStream::new(u.clone())
                .collect_grouped(
                    &exprs,
                    &every,
                    &pool,
                    1,
                    &QueryStats::new(),
                    Vec::new,
                    |states: &mut [Vec<Tuple>], rows: &GroupedBatch<'_>, _: &mut KernelCounts| {
                        for (j, &g) in rows.groups.iter().enumerate() {
                            let mut row = Vec::new();
                            rows.batch.write_row(j, &mut row);
                            states[g as usize].push(Tuple::new(row));
                        }
                        Ok(())
                    },
                    |a: &mut Vec<Tuple>, b| {
                        a.extend(b);
                        Ok(())
                    },
                )
                .unwrap();
            prop_assert_eq!(&seq, &par, "threads = {}", threads);
        }
    }

    /// Instrumented execution: attaching a per-pipeline stats collector
    /// never changes the output, and the collected per-stage `(rows_in,
    /// rows_out, build_rows)` counts are identical at 1/2/8 threads with
    /// single-row morsels (order-independent sums — the instrumentation
    /// side of the determinism contract).
    #[test]
    fn instrumented_ustream_stats_identical((_wt, u) in arb_urelation()) {
        let pred = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(0i64));
        let build_stream = || {
            UStream::new(u.clone())
                .filter(&pred)
                .unwrap()
                .hash_join(u.clone(), &[0], &[0])
                .unwrap()
        };
        let p1 = ThreadPool::new(1);
        let qs = QueryStats::new();
        let reference = build_stream().collect_with(&p1, 1, &qs).unwrap();
        let fingerprint = |ps: &maybms_obs::PipelineStats| -> Vec<(u64, u64, u64)> {
            let pipeline = (ps.rows_in.get(), ps.rows_out.get(), ps.join_build_rows());
            let stages = ps.stages.iter().map(|s| (s.rows_in.get(), s.rows_out.get(), s.build_rows.get()));
            std::iter::once(pipeline).chain(stages).collect()
        };
        let mut prints = Vec::new();
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let qs = maybms_obs::QueryStats::new();
            let got = build_stream().collect_with(&pool, 1, &qs).unwrap();
            prop_assert_eq!(got.tuples(), reference.tuples(), "threads = {}", threads);
            prints.push(fingerprint(&qs.pipelines()[0]));
        }
        prop_assert_eq!(&prints[1], &prints[0], "stats, threads 2 vs 1");
        prop_assert_eq!(&prints[2], &prints[0], "stats, threads 8 vs 1");
    }

    /// Seeded Karp–Luby and DKLR runs are pure functions of their seed:
    /// fanned out one run per task on 2 and 8 threads (as grouped
    /// aggregation fans out its groups) they return, bit for bit, what a
    /// sequential loop over the same seeds returns.
    #[test]
    fn par_sampling_bit_identical((wt, dnf) in arb_dnf(), seed in 0u64..1000) {
        let kl = KarpLuby::new(&dnf, &wt).unwrap();
        if kl.constant_value().is_some() {
            return Ok(());
        }
        let opts = dklr::DklrOptions::new(0.25, 0.2);
        let run = |s: u64| {
            let aa = dklr::approximate_seeded(&kl, &opts, s).unwrap();
            (kl.estimate_seeded(2500, s).to_bits(), aa.estimate.to_bits(), aa.samples)
        };
        let seeds: Vec<u64> = (seed..seed + 8).collect();
        let reference: Vec<_> = seeds.iter().map(|&s| run(s)).collect();
        for threads in [2usize, 8] {
            let got = ThreadPool::new(threads).par_map(seeds.clone(), run);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }
}

/// The self-join of `u` on column 0 as a probe stage, at 1/2/8 threads
/// with single-row morsels; asserts every run returns the same rows.
fn self_join(u: &URelation) -> URelation {
    let runs: Vec<URelation> = THREADS
        .iter()
        .map(|&threads| {
            UStream::new(u.clone())
                .hash_join(u.clone(), &[0], &[0])
                .unwrap()
                .collect_with(&ThreadPool::new(threads), 1, &QueryStats::new())
                .unwrap()
        })
        .collect();
    for (run, threads) in runs.iter().zip(THREADS) {
        assert_eq!(run.tuples(), runs[0].tuples(), "threads = {threads}");
    }
    runs[0].clone()
}

/// Non-property check: an unsatisfiable self-join pair (x↦0 ∧ x↦1) must
/// drop at every thread count.
#[test]
fn unsatisfiable_wsd_pairs_drop_in_parallel_join() {
    let mut wt = WorldTable::new();
    let x = wt.new_var(&[0.5, 0.5]).unwrap();
    let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
    let u = URelation::new(
        schema,
        vec![
            UTuple::new(Tuple::new(vec![Value::Int(1)]), Wsd::of(x, 0)),
            UTuple::new(Tuple::new(vec![Value::Int(1)]), Wsd::of(x, 1)),
        ],
    )
    .unwrap();
    let joined = self_join(&u);
    assert_eq!(joined.len(), 2, "only the self-consistent pairs survive");
    assert_eq!(joined.tuples()[0].wsd, Wsd::of(x, 0));
    assert_eq!(joined.tuples()[1].wsd, Wsd::of(x, 1));
}

/// NULL keys never match, in parallel exactly as sequentially.
#[test]
fn null_keys_never_match_in_parallel_join() {
    let r = maybms_urel::rel(
        &[("k", DataType::Int)],
        vec![
            vec![Value::Null],
            vec![Value::Null],
            vec![1.into()],
            vec![1.into()],
        ],
    );
    assert_eq!(self_join(&r).len(), 4, "2×2 non-NULL pairs only");
}
