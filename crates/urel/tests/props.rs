//! Property tests for the U-relational layer: the algebraic laws of
//! WSDs and the distribution `repair key` constructs. (That the
//! parsimonious translation of positive RA commutes with possible-world
//! instantiation is checked on the executor SQL runs, in
//! `crates/bench/tests/commutation.rs`.)

use maybms_engine::{DataType, Expr, Value};
use maybms_urel::repair::{repair_key, RepairKeyOptions};
use maybms_urel::world_table::WorldTable;
use maybms_urel::wsd::Wsd;
use maybms_urel::{rel, Assignment, Var};
use proptest::prelude::*;

// ---------- generators ----------------------------------------------------

fn arb_assignments() -> impl Strategy<Value = Vec<Assignment>> {
    prop::collection::vec((0u32..6, 0u16..3), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(var, alt)| Assignment::new(Var(var), alt))
            .collect()
    })
}

// ---------- WSD laws -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conjunction is commutative.
    #[test]
    fn wsd_conjoin_commutative(a in arb_assignments(), b in arb_assignments()) {
        let (Some(wa), Some(wb)) = (
            Wsd::from_assignments(a),
            Wsd::from_assignments(b),
        ) else { return Ok(()); };
        prop_assert_eq!(wa.conjoin(&wb), wb.conjoin(&wa));
    }

    /// Conjunction is associative.
    #[test]
    fn wsd_conjoin_associative(
        a in arb_assignments(),
        b in arb_assignments(),
        c in arb_assignments(),
    ) {
        let (Some(wa), Some(wb), Some(wc)) = (
            Wsd::from_assignments(a),
            Wsd::from_assignments(b),
            Wsd::from_assignments(c),
        ) else { return Ok(()); };
        let left = wa.conjoin(&wb).and_then(|x| x.conjoin(&wc));
        let right = wb.conjoin(&wc).and_then(|x| wa.conjoin(&x));
        prop_assert_eq!(left, right);
    }

    /// Conjunction is idempotent and the tautology is its unit.
    #[test]
    fn wsd_conjoin_idempotent_unit(a in arb_assignments()) {
        let Some(w) = Wsd::from_assignments(a) else { return Ok(()); };
        let self_conj = w.conjoin(&w);
        prop_assert_eq!(self_conj.as_ref(), Some(&w));
        let unit_conj = w.conjoin(&Wsd::tautology());
        prop_assert_eq!(unit_conj.as_ref(), Some(&w));
    }

    /// A world satisfies a ∧ b iff it satisfies both; unsatisfiable
    /// conjunctions are satisfied by no world.
    #[test]
    fn wsd_conjoin_semantics(
        a in arb_assignments(),
        b in arb_assignments(),
        world in prop::collection::vec(0u16..3, 6),
    ) {
        let (Some(wa), Some(wb)) = (
            Wsd::from_assignments(a),
            Wsd::from_assignments(b),
        ) else { return Ok(()); };
        let both = wa.satisfied_by(&world) && wb.satisfied_by(&world);
        match wa.conjoin(&wb) {
            Some(c) => prop_assert_eq!(c.satisfied_by(&world), both),
            None => prop_assert!(!both),
        }
    }
}

// ---------- repair key ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// repair-key alternatives are mutually exclusive within a group and
    /// the marginal masses match the normalised weights.
    #[test]
    fn repair_key_distribution(
        rows in prop::collection::vec((0i64..3, 1u32..10), 1..9),
    ) {
        let mut wt = WorldTable::new();
        let certain = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            rows.iter()
                .map(|(k, w)| vec![Value::Int(*k), Value::Float(f64::from(*w))])
                .collect(),
        );
        let u = repair_key(
            &certain,
            &[Expr::col("k")],
            &RepairKeyOptions { weight: Some(Expr::col("w")) },
            &mut wt,
        ).unwrap();

        // Every world selects exactly one tuple per key group.
        let keys: std::collections::HashSet<i64> =
            rows.iter().map(|(k, _)| *k).collect();
        for (world, _p) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            prop_assert_eq!(inst.len(), keys.len());
        }

        // Marginal of each alternative = weight / group total.
        for (i, t) in u.tuples().iter().enumerate() {
            let k = t.data.value(0).as_int().unwrap();
            let w = t.data.value(1).as_f64().unwrap();
            let total: f64 = rows
                .iter()
                .filter(|(rk, _)| *rk == k)
                .map(|(_, rw)| f64::from(*rw))
                .sum();
            let p = t.wsd.prob(&wt).unwrap();
            prop_assert!((p - w / total).abs() < 1e-9, "tuple {} p={} w/total={}", i, p, w / total);
        }
    }
}
