//! The exact d-tree on the lineage shape `conf_exact` spends its time on —
//! "some player of a random walk ends in state s", 16 three-literal
//! clauses per player — and on a hierarchical join's lineage, plus the
//! governor's hold on it and the reuse of one scratch across calls that
//! end anywhere in the tree. The governor is
//! process-global, so this file is its own test binary and its tests
//! serialise on one lock.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use maybms_conf::exact::{self, ExactStats};
use maybms_conf::{
    confidence_with_effort, lineage_confidence, ConfEffort, ConfMethod, ConfScratch, Dnf, Estimator,
};
use maybms_engine::EngineError;
use maybms_gov::{testing, AbortKind, GovError};
use maybms_obs::QueryStats;
use maybms_urel::{Assignment, UrelError, Var, WorldTable, Wsd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn clause(pairs: &[(Var, u16)]) -> Wsd {
    Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect())
        .expect("consistent clause")
}

/// `players` three-step walks over four states (one four-valued variable
/// per step and state, as `repair key player, init` creates them): the
/// lineage of "some player ends in state 2" and its closed form
/// `1 − Π(1 − pₚ)`, `pₚ` the sum of a player's 16 exclusive paths.
fn walk_lineage(players: usize, seed: u64) -> (WorldTable, Dnf, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wt = WorldTable::new();
    let mut clauses = Vec::new();
    let mut none = 1.0;
    for _ in 0..players {
        let mut step = || -> [Var; 4] {
            std::array::from_fn(|_| {
                let w: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.05..1.0));
                let total: f64 = w.iter().sum();
                wt.new_var(&w.map(|x| x / total)).unwrap()
            })
        };
        let (s1, s2, s3) = (step(), step(), step());
        let mut p_player = 0.0;
        for a in 0..4u16 {
            for b in 0..4u16 {
                let path = [(s1[0], a), (s2[a as usize], b), (s3[b as usize], 2)];
                p_player += path
                    .iter()
                    .map(|&(v, alt)| wt.distribution(v).unwrap()[alt as usize])
                    .product::<f64>();
                clauses.push(clause(&path));
            }
        }
        none *= 1.0 - p_player;
    }
    (wt, Dnf::new(clauses), 1.0 - none)
}

/// The value is the closed form, and the d-tree has the shape the
/// heuristics imply — one partition into players, then per player one
/// elimination of the first step and four of the second, 16 leaves — so a
/// change to variable choice, absorption or partitioning shows here.
#[test]
fn walk_lineage_has_the_closed_form_and_a_fixed_dtree_shape() {
    let _g = lock();
    for players in [1, 7, 80] {
        let (wt, dnf, closed) = walk_lineage(players, players as u64);
        let (p, stats) = exact::probability_with(&dnf, &wt).unwrap();
        assert!(
            (p - closed).abs() <= 1e-12,
            "{players} players: {p} vs {closed}"
        );
        let decompositions = usize::from(players > 1);
        assert_eq!(
            stats,
            ExactStats {
                decompositions,
                eliminations: 5 * players,
                leaves: 16 * players,
                max_depth: 3 + decompositions,
            },
            "{players} players"
        );
    }
}

/// The lineage of the hierarchical Boolean query `∃a,b,c R(a,b) ∧ S(b,c)`
/// over tuple-independent `R` and `S` (one fresh Boolean variable per
/// tuple, `R`'s created first): `bs` join values with 0–3 tuples on each
/// side, and a clause `r ∧ s` per matching pair. Returned with its safe-plan
/// closed form `1 − Π_b(1 − (1 − Π_{r∈R_b}(1 − p_r))·(1 − Π_{s∈S_b}(1 − p_s)))`
/// and its tuple count.
fn hierarchical_lineage(bs: usize, rng: &mut StdRng) -> (WorldTable, Dnf, f64, usize) {
    let mut wt = WorldTable::new();
    let sizes: Vec<[usize; 2]> = (0..bs)
        .map(|_| [rng.gen_range(0..4), rng.gen_range(0..4)])
        .collect();
    // vars[side][b]: the variables of R_b (side 0) and S_b (side 1).
    let vars: [Vec<Vec<Var>>; 2] = std::array::from_fn(|side| {
        sizes
            .iter()
            .map(|size| {
                (0..size[side])
                    .map(|_| {
                        let p = rng.gen_range(0.05..0.95);
                        wt.new_var(&[1.0 - p, p]).unwrap()
                    })
                    .collect()
            })
            .collect()
    });
    let present = |v: Var| wt.distribution(v).unwrap()[1];
    let mut clauses = Vec::new();
    let mut none = 1.0;
    for (rs, ss) in vars[0].iter().zip(&vars[1]) {
        for &r in rs {
            clauses.extend(ss.iter().map(|&s| clause(&[(r, 1), (s, 1)])));
        }
        let some = |side: &[Var]| 1.0 - side.iter().fold(1.0, |q, &v| q * (1.0 - present(v)));
        none *= 1.0 - some(rs) * some(ss);
    }
    (
        wt,
        Dnf::new(clauses),
        1.0 - none,
        sizes.iter().flatten().sum(),
    )
}

/// What a safe plan computes for a hierarchical query on tuple-independent
/// tables, the d-tree computes from its lineage — and in a tree whose size
/// is linear in the tuples: one partition into join values, then per
/// value an elimination of each `R_b` tuple whose `r = 1` branch absorbs
/// into independent `S_b` leaves. The pinned counts grow tenfold with the
/// tuples, so a heuristic change that loses tractability fails here.
#[test]
fn hierarchical_lineage_is_tractable_for_the_dtree() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..64 {
        let bs = rng.gen_range(1..40);
        let (wt, dnf, closed, _) = hierarchical_lineage(bs, &mut rng);
        let p = exact::probability(&dnf, &wt).unwrap();
        assert!(
            (p - closed).abs() <= 1e-12,
            "{bs} join values: {p} vs {closed}"
        );
    }
    let mut shapes = Vec::new();
    for bs in [100, 1_000, 10_000] {
        let (wt, dnf, closed, tuples) = hierarchical_lineage(bs, &mut StdRng::seed_from_u64(7));
        let (p, stats) = exact::probability_with(&dnf, &wt).unwrap();
        assert!(
            (p - closed).abs() <= 1e-12,
            "{bs} join values: {p} vs {closed}"
        );
        shapes.push((tuples, dnf.len(), stats));
    }
    let dtree = |decompositions, eliminations, leaves| ExactStats {
        decompositions,
        eliminations,
        leaves,
        max_depth: 6,
    };
    assert_eq!(
        shapes,
        [
            (295, 217, dtree(81, 80, 268)),
            (3_021, 2_326, dtree(846, 845, 2_845)),
            (29_929, 22_450, dtree(8_090, 8_089, 27_439)),
        ]
    );
}

/// A deadline interrupts exact `conf()` on a 32 000-clause lineage within
/// a second of expiring — root absorption included.
#[test]
fn exact_conf_on_a_huge_walk_lineage_honours_the_deadline() {
    let _g = lock();
    let (wt, dnf, _) = walk_lineage(2000, 5);
    assert_eq!(dnf.len(), 32_000);
    let deadline = Duration::from_millis(200);
    maybms_gov::set_statement_timeout_ms(Some(deadline.as_millis() as u64));
    let guard = maybms_gov::begin_statement();
    let t0 = Instant::now();
    let out = confidence_with_effort(&dnf, &wt, ConfMethod::Exact);
    let elapsed = t0.elapsed();
    drop(guard);
    maybms_gov::set_statement_timeout_ms(None);
    assert!(
        matches!(
            out,
            Ok(_)
                | Err(UrelError::Engine(EngineError::Gov(
                    GovError::DeadlineExceeded { .. }
                )))
        ),
        "{out:?}"
    );
    assert!(
        elapsed <= deadline + Duration::from_secs(1),
        "returned after {elapsed:?}"
    );
}

/// Absorption is a checkpoint every 1 024 subset tests: one short clause
/// `a=0 ∧ b=0` and 2 048 clauses `a=0 ∧ cᵢ=0 ∧ dᵢ=0` cost 2 048 subset
/// tests at the root (each long clause against the one strictly shorter
/// clause that starts with `a=0`, none against its equal-length peers), so
/// the call passes exactly two checkpoints more than it has d-tree nodes.
#[test]
fn absorption_checks_the_governor_every_1024_subset_tests() {
    let _g = lock();
    let mut wt = WorldTable::new();
    let mut var = || wt.new_var(&[0.5, 0.5]).unwrap();
    let (a, b) = (var(), var());
    let mut clauses = vec![clause(&[(a, 0), (b, 0)])];
    for _ in 0..2048 {
        let (c, d) = (var(), var());
        clauses.push(clause(&[(a, 0), (c, 0), (d, 0)]));
    }
    let dnf = Dnf::new(clauses);
    const ARMED: u64 = u64::MAX / 2;
    testing::abort_at_checkpoint(ARMED, AbortKind::Cancel);
    let guard = maybms_gov::begin_statement();
    let out = exact::probability_with(&dnf, &wt);
    let left = testing::remaining().expect("injection armed");
    drop(guard);
    testing::clear();
    let (_, stats) = out.unwrap();
    let nodes = (stats.decompositions + stats.eliminations + stats.leaves) as u64;
    assert_eq!(nodes, 2048 + 4, "{stats:?}");
    assert_eq!(ARMED - left, nodes + 2048 / 1024);
}

/// Random 2-DNF `xᵢ ∧ xⱼ` over 30 variables of probability 0.1: no d-tree
/// decomposes it within an `aconf` budget, so the attempt stops mid-tree.
fn dense_2dnf() -> (WorldTable, Vec<Wsd>) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut wt = WorldTable::new();
    let x: Vec<Var> = (0..30).map(|_| wt.new_var(&[0.9, 0.1]).unwrap()).collect();
    let lineage = (0..150)
        .filter_map(|_| {
            let (i, j) = (rng.gen_range(0..30usize), rng.gen_range(0..30usize));
            (i != j).then(|| clause(&[(x[i], 1), (x[j], 1)]))
        })
        .collect();
    (wt, lineage)
}

/// `members` in a seeded random order.
fn shuffled(members: &[Wsd], seed: u64) -> Vec<Wsd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = members.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// One call on a fresh thread with a fresh scratch.
fn fresh(wt: &WorldTable, members: &[Wsd], method: ConfMethod) -> (u64, ConfEffort) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let stats = QueryStats::new();
            let mut scratch = ConfScratch::new(&stats);
            let (p, effort) = lineage_confidence(members, wt, method, &mut scratch).unwrap();
            (p.to_bits(), effort)
        })
        .join()
        .unwrap()
    })
}

/// One scratch serves call after call, as a statement's groups use it.
/// Interleaved on one thread — lineages of 1 280, 4 and 16 clauses, the
/// 1 280 again in shuffled member order, an `aconf` attempt that spends
/// its node budget mid-tree, and a governor abort mid-tree — every answer
/// is a fresh scratch's on a fresh thread, probability bits and effort.
#[test]
fn a_reused_scratch_answers_as_a_fresh_one() {
    let _g = lock();
    let (wt_big, big, _) = walk_lineage(80, 11);
    let (wt_walk, walk, _) = walk_lineage(1, 12);
    let (wt_dense, dense) = dense_2dnf();
    let big = big.clauses().to_vec();
    let (four, sixteen) = (walk.clauses()[..4].to_vec(), walk.clauses().to_vec());
    let big_shuffled = shuffled(&big, 3);
    let exact = ConfMethod::Exact;
    let approx = ConfMethod::Approx {
        epsilon: 0.1,
        delta: 0.05,
        seed: 7,
    };
    let calls = [
        (&wt_big, &big, exact),
        (&wt_walk, &four, exact),
        (&wt_dense, &dense, approx),
        (&wt_walk, &sixteen, exact),
        (&wt_big, &big_shuffled, exact),
    ];
    let expected: Vec<_> = calls
        .iter()
        .map(|&(wt, m, method)| fresh(wt, m, method))
        .collect();
    let spent = expected[2].1;
    assert_eq!(spent.estimator, Estimator::Sampler, "{spent:?}");
    assert_eq!(spent.dtree_nodes, spent.budget, "{spent:?}");
    assert_eq!(expected[4], expected[0], "member order moved conf()");
    let stats = QueryStats::new();
    let mut scratch = ConfScratch::new(&stats);
    for round in 0..3u64 {
        for (i, &(wt, members, method)) in calls.iter().enumerate() {
            let (p, effort) = lineage_confidence(members, wt, method, &mut scratch).unwrap();
            assert_eq!(
                (p.to_bits(), effort),
                expected[i],
                "round {round}, call {i}"
            );
        }
        // A governor abort leaves the scratch's stacks mid-tree.
        testing::abort_at_checkpoint(100 + round * 300, AbortKind::Cancel);
        let guard = maybms_gov::begin_statement();
        let out = lineage_confidence(&big, &wt_big, exact, &mut scratch);
        drop(guard);
        testing::clear();
        assert!(
            matches!(
                out,
                Err(UrelError::Engine(EngineError::Gov(GovError::Cancelled)))
            ),
            "round {round}: {out:?}"
        );
    }
}
