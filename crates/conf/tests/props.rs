//! Property tests: the exact d-tree algorithm against the enumeration
//! oracle on random DNFs and against the recorded output of the
//! recursion it replaced, in any member order; Karp–Luby statistical
//! sanity.

use maybms_conf::exact;
use maybms_conf::{lineage_confidence, naive, ConfMethod, ConfScratch, Dnf, Estimator};
use maybms_obs::QueryStats;
use maybms_urel::{Assignment, Var, WorldTable, Wsd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random world table (n variables with domains 2–3) plus a random DNF
/// over it.
fn arb_dnf() -> impl Strategy<Value = (WorldTable, Dnf)> {
    let var_specs = prop::collection::vec(2usize..4, 1..7);
    (
        var_specs,
        prop::collection::vec(prop::collection::vec((0usize..7, 0u16..3), 1..4), 0..7),
    )
        .prop_map(|(domains, raw_clauses)| {
            let mut wt = WorldTable::new();
            let vars: Vec<Var> = domains
                .iter()
                .map(|&d| {
                    let p = 1.0 / d as f64;
                    let mut dist = vec![p; d];
                    // Make it non-uniform but valid.
                    dist[0] = 1.0 - p * (d - 1) as f64;
                    wt.new_var(&dist).unwrap()
                })
                .collect();
            let mut clauses = Vec::new();
            for raw in raw_clauses {
                let assignments: Vec<Assignment> = raw
                    .into_iter()
                    .map(|(vi, alt)| {
                        let v = vars[vi % vars.len()];
                        let dom = wt.domain_size(v).unwrap() as u16;
                        Assignment::new(v, alt % dom)
                    })
                    .collect();
                if let Some(w) = Wsd::from_assignments(assignments) {
                    clauses.push(w);
                }
            }
            (wt, Dnf::new(clauses))
        })
}

/// A world table of independent blocks — each 1–2 variables of 2–5
/// alternatives, one possibly of zero mass — and a DNF over it: per block
/// 1–3 random clauses plus a duplicate of one and a superset of one (which
/// absorption must drop), and in one case of six a tautology clause.
fn arb_lineage() -> impl Strategy<Value = (WorldTable, Dnf)> {
    let block = (
        prop::collection::vec((2usize..6, 0usize..6), 1..3),
        prop::collection::vec(prop::collection::vec((0usize..2, 0u16..5), 1..3), 1..4),
        (0usize..3, 0usize..3, 0usize..2, 0u16..5),
    );
    (prop::collection::vec(block, 1..4), 0u8..6).prop_map(|(blocks, tautology)| {
        let mut wt = WorldTable::new();
        let mut clauses = Vec::new();
        for (specs, raw_clauses, (dup, sup, sup_var, sup_alt)) in blocks {
            let vars: Vec<Var> = specs
                .iter()
                .map(|&(domain, dead)| {
                    let mut w: Vec<f64> = (1..=domain).map(|i| i as f64).collect();
                    if dead < domain - 1 {
                        w[dead] = 0.0;
                    }
                    let total: f64 = w.iter().sum();
                    wt.new_var(&w.iter().map(|x| x / total).collect::<Vec<_>>())
                        .unwrap()
                })
                .collect();
            let lit = |wt: &WorldTable, vi: usize, alt: u16| {
                let v = vars[vi % vars.len()];
                Assignment::new(v, alt % wt.domain_size(v).unwrap() as u16)
            };
            let block: Vec<Wsd> = raw_clauses
                .iter()
                .filter_map(|raw| {
                    Wsd::from_assignments(raw.iter().map(|&(vi, alt)| lit(&wt, vi, alt)).collect())
                })
                .collect();
            if let (Some(d), Some(s)) = (
                block.get(dup % block.len().max(1)),
                block.get(sup % block.len().max(1)),
            ) {
                let extra = lit(&wt, sup_var, sup_alt);
                clauses.push(d.clone());
                clauses.extend(s.conjoin(&Wsd::of(extra.var, extra.alt)));
            }
            clauses.extend(block);
        }
        if tautology == 0 {
            clauses.push(Wsd::tautology());
        }
        (wt, Dnf::new(clauses))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Exact == naive.
    #[test]
    fn exact_equals_naive((wt, dnf) in arb_dnf()) {
        let oracle = naive::probability(&dnf, &wt, 1 << 20).unwrap();
        let p = exact::probability(&dnf, &wt).unwrap();
        prop_assert!((p - oracle).abs() < 1e-9, "exact {} oracle {}", p, oracle);
    }

    /// The compiled d-tree == naive to 1e-12 on lineage with duplicates,
    /// absorbed supersets, tautologies, dead alternatives, 2–5-valued
    /// variables and several independent components.
    #[test]
    fn compiled_exact_equals_naive_on_structured_lineage((wt, dnf) in arb_lineage()) {
        let oracle = naive::probability(&dnf, &wt, 1 << 20).unwrap();
        let p = exact::probability(&dnf, &wt).unwrap();
        prop_assert!(
            (p - oracle).abs() <= 1e-12,
            "exact {} oracle {} on {:?}", p, oracle, dnf
        );
    }

    /// Probabilities are always within [0, 1].
    #[test]
    fn exact_in_unit_interval((wt, dnf) in arb_dnf()) {
        let p = exact::probability(&dnf, &wt).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "p = {}", p);
    }

    /// Monotonicity: adding a clause never lowers the probability.
    #[test]
    fn adding_clause_is_monotone((wt, dnf) in arb_dnf()) {
        if dnf.is_empty() { return Ok(()); }
        let mut clauses = dnf.clauses().to_vec();
        let dropped = clauses.pop().unwrap();
        let smaller = Dnf::new(clauses);
        let p_small = exact::probability(&smaller, &wt).unwrap();
        let p_full = exact::probability(&dnf, &wt).unwrap();
        prop_assert!(p_full >= p_small - 1e-12, "dropped {:?}", dropped);
    }
}

/// A seeded random lineage: 1–9 variables of 2–4 alternatives (some of
/// zero mass) and up to 13 clauses of 1–4 literals, some duplicated and
/// some followed by a one-literal superset.
fn seeded_lineage(rng: &mut StdRng) -> (WorldTable, Dnf) {
    let mut wt = WorldTable::new();
    let n_vars = rng.gen_range(1..10usize);
    let vars: Vec<Var> = (0..n_vars)
        .map(|_| {
            let alts = rng.gen_range(2..5usize);
            let mut w: Vec<f64> = (0..alts)
                .map(|_| {
                    if rng.gen_range(0..5u32) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.05..1.0)
                    }
                })
                .collect();
            w[0] += 0.05;
            let total: f64 = w.iter().sum();
            wt.new_var(&w.iter().map(|x| x / total).collect::<Vec<_>>())
                .unwrap()
        })
        .collect();
    let literal = |rng: &mut StdRng| {
        let v = vars[rng.gen_range(0..vars.len())];
        Assignment::new(v, rng.gen_range(0..wt.domain_size(v).unwrap() as u16))
    };
    let mut clauses: Vec<Wsd> = Vec::new();
    for _ in 0..rng.gen_range(0..14usize) {
        let len = rng.gen_range(1..5usize);
        let lits = (0..len).map(|_| literal(rng)).collect();
        let Some(c) = Wsd::from_assignments(lits) else {
            continue;
        };
        match rng.gen_range(0..6u32) {
            0 => clauses.push(c.clone()),
            1 => {
                let l = literal(rng);
                clauses.extend(c.conjoin(&Wsd::of(l.var, l.alt)));
            }
            _ => {}
        }
        clauses.push(c);
    }
    (wt, Dnf::new(clauses))
}

/// The exact engine's output — probability bits and d-tree shape — over
/// 2 000 seeded lineages, folded into one FNV-1a digest. It matches the
/// recursion over `Dnf`s that the compiled d-tree replaced, so it pins
/// what must not move: bit-identical probabilities and equal node counts,
/// i.e. the variable choice with its tie-break, the component and
/// multiplication order and what absorption drops.
#[test]
fn exact_reproduces_the_recorded_dtree() {
    const RECORDED: u64 = 0x933f_e368_f412_2329;
    let mut rng = StdRng::seed_from_u64(22);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..2000 {
        let (wt, dnf) = seeded_lineage(&mut rng);
        let (p, s) = exact::probability_with(&dnf, &wt).unwrap();
        for x in [
            p.to_bits(),
            s.decompositions as u64,
            s.eliminations as u64,
            s.leaves as u64,
            s.max_depth as u64,
        ] {
            digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(digest, RECORDED, "digest {digest:#018x}");
}

/// `conf()` compiles a group's members in the order they arrive, and the
/// d-tree's answer and shape are a function of the clause set: members in
/// any order — duplicates and supersets included — give the sorted
/// `Dnf`'s probability bits and node count, through one reused scratch.
/// (Tuple-independent lineage is the member-order product instead.)
#[test]
fn conf_is_bit_identical_in_any_member_order() {
    let mut rng = StdRng::seed_from_u64(40);
    let stats = QueryStats::new();
    let mut scratch = ConfScratch::new(&stats);
    let mut checked = 0;
    for _ in 0..500 {
        let (wt, dnf) = seeded_lineage(&mut rng);
        let (p, s) = exact::probability_with(&dnf, &wt).unwrap();
        let mut members = dnf.clauses().to_vec();
        for _ in 0..3 {
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..i + 1));
            }
            let (q, effort) =
                lineage_confidence(&members, &wt, ConfMethod::Exact, &mut scratch).unwrap();
            if effort.estimator == Estimator::Product {
                continue;
            }
            assert_eq!(
                (q.to_bits(), effort.dtree_nodes),
                (p.to_bits(), s.nodes() as u64),
                "{members:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "{checked} d-tree calls");
}

/// Statistical check of the DKLR (ε, δ) guarantee on a fixed DNF family —
/// not a proptest (needs many Monte Carlo runs per instance).
#[test]
fn dklr_guarantee_statistical() {
    use maybms_conf::dklr::{approximate_seeded, DklrOptions};
    use maybms_conf::karp_luby::KarpLuby;

    let mut wt = WorldTable::new();
    let mut clauses = Vec::new();
    for i in 0..8 {
        let x = wt.new_var(&[0.6, 0.4]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        clauses.push(
            Wsd::from_assignments(vec![
                Assignment::new(x, 1),
                Assignment::new(y, (i % 2) as u16),
            ])
            .unwrap(),
        );
    }
    let dnf = Dnf::new(clauses);
    let truth = exact::probability(&dnf, &wt).unwrap();
    let kl = KarpLuby::new(&dnf, &wt).unwrap();
    let opts = DklrOptions::new(0.15, 0.1);
    let runs = 40;
    let failures = (0..runs)
        .filter(|&seed| {
            let a = approximate_seeded(&kl, &opts, 2024 + seed).unwrap();
            ((a.estimate - truth) / truth).abs() > opts.epsilon
        })
        .count();
    // δ = 0.1 → expect ≤ ~4 failures in 40; allow slack to avoid flakiness.
    assert!(
        failures <= 8,
        "(ε,δ) guarantee violated: {failures}/{runs} failures"
    );
}
