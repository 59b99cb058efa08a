//! The `aconf()` estimator cascade against its parts. Over generated
//! walk, hierarchical, random 3-DNF and independent lineage:
//!
//! * an answer the d-tree certified is `exact::probability`'s, bit for
//!   bit, from at most the call's node budget;
//! * a sampled answer is `dklr::aconf_seeded_report`'s at the same seed,
//!   bit for bit, after the attempt spent exactly its budget;
//! * independent lineage takes `conf()`'s member-order product;
//!
//! and every call's answer and effort are the same at 1, 2 and 8 threads.
//! Inside the attempt a deadline hands over to the sampler's degrade path
//! and a cancel aborts.
//!
//! Governor injection is process-wide, so the tests of this binary
//! serialise on one mutex.

use std::sync::{Mutex, MutexGuard};

use maybms_conf::dklr::aconf_seeded_report;
use maybms_conf::{exact, lineage_confidence, ConfEffort, ConfMethod, ConfScratch, Dnf, Estimator};
use maybms_engine::EngineError;
use maybms_gov::{testing, AbortKind, GovError};
use maybms_obs::QueryStats;
use maybms_par::ThreadPool;
use maybms_urel::{Assignment, Result, UrelError, Var, WorldTable, Wsd};
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

fn random_dist(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// `n` binary variables with random distributions.
fn binaries(wt: &mut WorldTable, rng: &mut StdRng, n: usize) -> Vec<Var> {
    (0..n)
        .map(|_| {
            wt.new_var(&random_dist(rng, 2))
                .expect("valid distribution")
        })
        .collect()
}

/// "Some player ends in state 2" over `players` three-step walks of four
/// states (Figure 1's shape): 16 pairwise-exclusive paths per player.
fn walk(wt: &mut WorldTable, rng: &mut StdRng, players: usize) -> Vec<Wsd> {
    let mut out = Vec::new();
    for _ in 0..players {
        let mut var = || {
            wt.new_var(&random_dist(rng, 4))
                .expect("valid distribution")
        };
        let steps: [[Var; 4]; 3] = std::array::from_fn(|_| std::array::from_fn(|_| var()));
        for a in 0..4u16 {
            for b in 0..4u16 {
                out.push(clause(&[
                    (steps[0][0], a),
                    (steps[1][a as usize], b),
                    (steps[2][b as usize], 2),
                ]));
            }
        }
    }
    out
}

/// The hierarchical join `R(a) ⋈ S(a, b)` over tuple-independent tables:
/// one clause `r_a ∧ s_ab` per `S` row.
fn hierarchical(wt: &mut WorldTable, rng: &mut StdRng, keys: usize, fanout: usize) -> Vec<Wsd> {
    let mut out = Vec::new();
    for r in binaries(wt, rng, keys) {
        for s in binaries(wt, rng, fanout) {
            out.push(clause(&[(r, 1), (s, 1)]));
        }
    }
    out
}

/// `clauses` random clauses of three literals over `vars` binary variables.
fn random_3dnf(wt: &mut WorldTable, rng: &mut StdRng, vars: usize, clauses: usize) -> Vec<Wsd> {
    let vars = binaries(wt, rng, vars);
    (0..clauses)
        .map(|_| {
            let mut picked: Vec<Var> = Vec::new();
            while picked.len() < 3 {
                let v = vars[rng.gen_range(0..vars.len())];
                if !picked.contains(&v) {
                    picked.push(v);
                }
            }
            let pairs: Vec<(Var, u16)> = picked
                .into_iter()
                .map(|v| (v, rng.gen_range(0..2u16)))
                .collect();
            clause(&pairs)
        })
        .collect()
}

/// One single-literal member per fresh variable.
fn independent(wt: &mut WorldTable, rng: &mut StdRng, n: usize) -> Vec<Wsd> {
    binaries(wt, rng, n)
        .into_iter()
        .map(|v| Wsd::of(v, 1))
        .collect()
}

/// A generated lineage, and the estimator that must answer it at each
/// accuracy of [`ACCURACY`].
struct Case {
    name: String,
    wt: WorldTable,
    lineage: Vec<Wsd>,
    expect: [Estimator; 2],
}

fn cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(27);
    let mut out = Vec::new();
    let mut push = |name: String,
                    build: &mut dyn FnMut(&mut WorldTable) -> Vec<Wsd>,
                    expect: [Estimator; 2]| {
        let mut wt = WorldTable::new();
        let lineage = build(&mut wt);
        out.push(Case {
            name,
            wt,
            lineage,
            expect,
        });
    };
    // A player's walk group takes 21 nodes, but the budget grows with the
    // scale S (about ¼ per player here), not with the players: 16 players
    // (337 nodes) outgrow the budget at ε = 0.1 and fit it at ε = 0.05.
    let (d, s) = (Estimator::DTree, Estimator::Sampler);
    for (players, expect) in [(1, [d, d]), (2, [d, d]), (16, [s, d])] {
        push(
            format!("walk, {players} player(s)"),
            &mut |wt| walk(wt, &mut rng, players),
            expect,
        );
    }
    for (keys, fanout) in [(3, 4), (12, 8)] {
        let name = format!("hierarchical, {keys}×{fanout}");
        push(
            name,
            &mut |wt| hierarchical(wt, &mut rng, keys, fanout),
            [d, d],
        );
    }
    for (vars, clauses, expect) in [(12, 20, [s, d]), (40, 120, [s, s]), (60, 240, [s, s])] {
        let name = format!("random 3-DNF, {vars} vars, {clauses} clauses");
        push(
            name,
            &mut |wt| random_3dnf(wt, &mut rng, vars, clauses),
            expect,
        );
    }
    for n in [2, 20, 200] {
        let p = Estimator::Product;
        push(
            format!("independent, {n} members"),
            &mut |wt| independent(wt, &mut rng, n),
            [p, p],
        );
    }
    out
}

/// The `(ε, δ)` every case runs at.
const ACCURACY: [(f64, f64); 2] = [(0.1, 0.05), (0.05, 0.05)];

fn method(i: usize) -> ConfMethod {
    let (epsilon, delta) = ACCURACY[i % ACCURACY.len()];
    ConfMethod::Approx {
        epsilon,
        delta,
        seed: 1000 + i as u64,
    }
}

fn aconf(case: &Case, method: ConfMethod) -> Result<(f64, ConfEffort)> {
    let stats = QueryStats::new();
    let mut scratch = ConfScratch::new(&stats);
    lineage_confidence(&case.lineage, &case.wt, method, &mut scratch)
}

/// Every case at every accuracy, fanned out over a pool of `threads`:
/// the answer's bits and the call's effort.
fn run_all(cases: &[Case], threads: usize) -> Vec<(u64, ConfEffort)> {
    let calls = cases.len() * ACCURACY.len();
    let pool = ThreadPool::new(threads);
    let chunks = pool.par_map_chunks(calls, 1, |range| {
        range
            .map(|i| {
                let (p, effort) = aconf(&cases[i / ACCURACY.len()], method(i)).expect("aconf");
                (p.to_bits(), effort)
            })
            .collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

#[test]
fn every_answer_is_its_estimators_bit_for_bit_at_any_thread_count() {
    let _l = lock();
    let cases = cases();
    let reference = run_all(&cases, 1);
    for (i, &(bits, effort)) in reference.iter().enumerate() {
        let case = &cases[i / ACCURACY.len()];
        let ConfMethod::Approx {
            epsilon,
            delta,
            seed,
        } = method(i)
        else {
            unreachable!()
        };
        let at = format!("{}, ε {epsilon}", case.name);
        assert_eq!(
            effort.estimator,
            case.expect[i % ACCURACY.len()],
            "{at}: {effort:?}"
        );
        assert_eq!(effort.dnf_clauses, case.lineage.len() as u64, "{at}");
        assert_eq!((effort.epsilon, effort.delta), (epsilon, delta), "{at}");
        let dnf = Dnf::from_wsds(&case.lineage);
        match effort.estimator {
            Estimator::Product => {
                let (p, _) = aconf(case, ConfMethod::Exact).unwrap();
                assert_eq!(bits, p.to_bits(), "{at}: not conf()'s product");
                assert_eq!(
                    (effort.dtree_nodes, effort.samples, effort.budget),
                    (0, 0, 0),
                    "{at}"
                );
            }
            Estimator::DTree => {
                let p = exact::probability(&dnf, &case.wt).unwrap();
                assert_eq!(bits, p.to_bits(), "{at}: not the d-tree's answer");
                assert!(
                    0 < effort.dtree_nodes && effort.dtree_nodes <= effort.budget,
                    "{at}: {effort:?}"
                );
                assert_eq!(effort.samples, 0, "{at}");
            }
            Estimator::Sampler => {
                let a = aconf_seeded_report(&dnf, &case.wt, epsilon, delta, seed).unwrap();
                assert_eq!(bits, a.estimate.to_bits(), "{at}: not the sampler's answer");
                assert_eq!(
                    (effort.samples, effort.batches),
                    (a.samples, a.batches),
                    "{at}"
                );
                assert!(effort.samples > 0, "{at}");
                assert_eq!(
                    effort.dtree_nodes, effort.budget,
                    "{at}: the attempt spends its budget"
                );
            }
        }
    }
    for threads in [2, 8] {
        assert_eq!(run_all(&cases, threads), reference, "{threads} threads");
    }
}

/// One call of `method` over `case` as a statement with `kind` injected at
/// its `nth` governor checkpoint.
fn injected(
    case: &Case,
    method: ConfMethod,
    nth: u64,
    kind: AbortKind,
) -> Result<(f64, ConfEffort)> {
    testing::abort_at_checkpoint(nth, kind);
    let guard = maybms_gov::begin_statement();
    let out = aconf(case, method);
    drop(guard);
    testing::clear();
    out
}

fn is_gov(result: &Result<(f64, ConfEffort)>, want: fn(&GovError) -> bool) -> bool {
    matches!(result, Err(UrelError::Engine(EngineError::Gov(g))) if want(g))
}

#[test]
fn a_deadline_in_the_attempt_degrades_and_a_cancel_aborts() {
    let _l = lock();
    let cases = cases();
    let case = cases
        .iter()
        .find(|c| c.expect[0] == Estimator::Sampler)
        .expect("a sampled case");
    let method = ConfMethod::Approx {
        epsilon: 0.1,
        delta: 0.05,
        seed: 5,
    };
    let (_, full) = aconf(case, method).unwrap();
    // Every node is a checkpoint, so these all land inside the attempt.
    for nth in [1, 2, full.budget / 2, full.budget] {
        let (p, effort) = injected(case, method, nth, AbortKind::Deadline)
            .unwrap_or_else(|e| panic!("an aconf failed at a deadline (nth={nth}): {e}"));
        assert_eq!(effort.estimator, Estimator::Sampler, "nth={nth}");
        assert!(effort.dtree_nodes < effort.budget, "nth={nth}: {effort:?}");
        assert_eq!(
            (effort.cut_batch, effort.samples, p),
            (Some(0), 0, 0.0),
            "nth={nth}"
        );
        let cancelled = injected(case, method, nth, AbortKind::Cancel);
        assert!(
            is_gov(&cancelled, |g| matches!(g, GovError::Cancelled)),
            "nth={nth}: {cancelled:?}"
        );
    }
    // conf() has no sampler to hand over to: a deadline fails it.
    let exact = injected(case, ConfMethod::Exact, 1, AbortKind::Deadline);
    assert!(
        is_gov(&exact, |g| matches!(g, GovError::DeadlineExceeded { .. })),
        "{exact:?}"
    );
}
