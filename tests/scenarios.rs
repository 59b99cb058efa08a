//! Integration tests for the §3 application scenarios: team management
//! (skill availability), performance prediction (expected weighted
//! points), and a data-cleaning workload — each checked against
//! independently computed ground truth.

use maybms::MayBms;
use maybms_engine::{DataType, Value};
use maybms_urel::rel;

/// §3 "Team management": "we compute for each skill … the probability that
/// someone with that skill will be playing in the team given the current
/// status of the players".
#[test]
fn team_management_skill_availability() {
    let mut db = MayBms::new();
    // Player availability: probability the player is fit to play.
    db.register(
        "roster",
        rel(
            &[("player", DataType::Text), ("avail", DataType::Float)],
            vec![
                vec!["Bryant".into(), Value::Float(0.9)],
                vec!["Gasol".into(), Value::Float(0.6)],
                vec!["Fisher".into(), Value::Float(0.8)],
            ],
        ),
    )
    .unwrap();
    db.register(
        "skills",
        rel(
            &[("player", DataType::Text), ("skill", DataType::Text)],
            vec![
                vec!["Bryant".into(), "shooting".into()],
                vec!["Bryant".into(), "passing".into()],
                vec!["Gasol".into(), "defense".into()],
                vec!["Gasol".into(), "passing".into()],
                vec!["Fisher".into(), "shooting".into()],
            ],
        ),
    )
    .unwrap();
    // Playing squad = random subset weighted by availability.
    let r = db
        .query(
            "select s.skill, conf() as p from
             (pick tuples from roster independently with probability avail) a,
             skills s
             where a.player = s.player
             group by s.skill
             order by s.skill",
        )
        .unwrap();
    // shooting: Bryant 0.9 or Fisher 0.8 -> 1 - 0.1*0.2 = 0.98
    // passing:  Bryant 0.9 or Gasol 0.6  -> 1 - 0.1*0.4 = 0.96
    // defense:  Gasol 0.6
    let expected = [("defense", 0.6), ("passing", 0.96), ("shooting", 0.98)];
    assert_eq!(r.len(), 3);
    for (t, (skill, p)) in r.tuples().iter().zip(expected) {
        assert_eq!(t.value(0), &Value::str(skill));
        assert!((t.value(1).as_f64().unwrap() - p).abs() < 1e-9, "{skill}");
    }
}

/// §3 "Performance prediction": "if we associate higher weights to the more
/// recent performance of the players, their predicted performance can be
/// expressed in terms of the weighted points" — an `esum` over a
/// hypothesis space of games.
#[test]
fn performance_prediction_expected_weighted_points() {
    let mut db = MayBms::new();
    db.register(
        "recent_games",
        rel(
            &[
                ("player", DataType::Text),
                ("game", DataType::Int),
                ("pts", DataType::Int),
                ("w", DataType::Float),
            ],
            vec![
                // weights sum to 1 per player: most recent game weighs most
                vec!["Bryant".into(), 1.into(), 40.into(), Value::Float(0.5)],
                vec!["Bryant".into(), 2.into(), 30.into(), Value::Float(0.3)],
                vec!["Bryant".into(), 3.into(), 20.into(), Value::Float(0.2)],
                vec!["Duncan".into(), 1.into(), 20.into(), Value::Float(0.6)],
                vec!["Duncan".into(), 2.into(), 10.into(), Value::Float(0.4)],
            ],
        ),
    )
    .unwrap();
    // Interpret the weights as a distribution over "which form the player
    // shows up in" and take the expected points.
    let r = db
        .query(
            "select R.player, esum(R.pts) as predicted from
             (repair key player in recent_games weight by w) R
             group by R.player
             order by R.player",
        )
        .unwrap();
    // Bryant: 40·0.5 + 30·0.3 + 20·0.2 = 33; Duncan: 20·0.6 + 10·0.4 = 16.
    assert_eq!(r.len(), 2);
    assert!((r.tuples()[0].value(1).as_f64().unwrap() - 33.0).abs() < 1e-9);
    assert!((r.tuples()[1].value(1).as_f64().unwrap() - 16.0).abs() < 1e-9);
}

/// §1: "Data cleaning can be fruitfully approached as a problem of taming
/// uncertainty in the data" — duplicate customer records repaired by key,
/// then queried for the most likely golden record.
#[test]
fn data_cleaning_key_repair() {
    let mut db = MayBms::new();
    db.register(
        "dirty",
        rel(
            &[
                ("cust_id", DataType::Int),
                ("city", DataType::Text),
                ("quality", DataType::Float),
            ],
            vec![
                vec![1.into(), "Oxford".into(), Value::Float(3.0)],
                vec![1.into(), "Ithaca".into(), Value::Float(1.0)],
                vec![2.into(), "Providence".into(), Value::Float(1.0)],
            ],
        ),
    )
    .unwrap();
    // Repair the key: each customer keeps exactly one record per world.
    let r = db
        .query(
            "select R.cust_id, R.city, conf() as p from
             (repair key cust_id in dirty weight by quality) R
             group by R.cust_id, R.city
             order by R.cust_id, p desc",
        )
        .unwrap();
    assert_eq!(r.len(), 3);
    // Customer 1: Oxford with 0.75, Ithaca 0.25; customer 2 certain.
    assert_eq!(r.tuples()[0].value(1), &Value::str("Oxford"));
    assert!((r.tuples()[0].value(2).as_f64().unwrap() - 0.75).abs() < 1e-9);
    assert!((r.tuples()[1].value(2).as_f64().unwrap() - 0.25).abs() < 1e-9);
    assert!((r.tuples()[2].value(2).as_f64().unwrap() - 1.0).abs() < 1e-9);

    // `select possible` lists the possible worlds' tuples without
    // probabilities (§2.2).
    let poss = db
        .query_uncertain("select * from (repair key cust_id in dirty weight by quality) R")
        .map(|_| ())
        .and_then(|_| {
            db.query(
                "select possible R.city from
                 (repair key cust_id in dirty weight by quality) R
                 order by R.city",
            )
        })
        .unwrap();
    let view = poss.tuples();
    let cities: Vec<&str> = view.iter().map(|t| t.value(0).as_str().unwrap()).collect();
    assert_eq!(cities, vec!["Ithaca", "Oxford", "Providence"]);
}

/// ecount over a picked subset = expected cardinality; checked against the
/// brute-force possible-world expectation.
#[test]
fn expected_count_matches_brute_force() {
    let mut db = MayBms::new();
    db.register(
        "sensors",
        rel(
            &[("id", DataType::Int), ("works", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.9)],
                vec![2.into(), Value::Float(0.5)],
                vec![3.into(), Value::Float(0.1)],
            ],
        ),
    )
    .unwrap();
    let r = db
        .query(
            "select ecount() as live from
             (pick tuples from sensors independently with probability works) s",
        )
        .unwrap();
    assert!((r.tuples()[0].value(0).as_f64().unwrap() - 1.5).abs() < 1e-9);
}

/// tconf() on a join exposes per-tuple marginals of the representation.
#[test]
fn tconf_on_join() {
    let mut db = MayBms::new();
    db.register(
        "r",
        rel(
            &[("k", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.5)],
                vec![2.into(), Value::Float(0.25)],
            ],
        ),
    )
    .unwrap();
    let r = db
        .query(
            "select a.k, tconf() as p from
             (pick tuples from r independently with probability p) a,
             (pick tuples from r independently with probability p) b
             where a.k = b.k",
        )
        .unwrap();
    // Joined tuple (k=1): 0.5 * 0.5 = 0.25; (k=2): 0.0625.
    assert_eq!(r.len(), 2);
    assert!((r.tuples()[0].value(1).as_f64().unwrap() - 0.25).abs() < 1e-9);
    assert!((r.tuples()[1].value(1).as_f64().unwrap() - 0.0625).abs() < 1e-9);
}

/// Uncertain query + conf() cross-checked against brute-force possible
/// worlds enumeration, end to end through SQL.
#[test]
fn conf_matches_possible_worlds_enumeration() {
    let mut db = MayBms::new();
    db.register(
        "t",
        rel(
            &[
                ("g", DataType::Text),
                ("v", DataType::Int),
                ("p", DataType::Float),
            ],
            vec![
                vec!["a".into(), 1.into(), Value::Float(0.3)],
                vec!["a".into(), 2.into(), Value::Float(0.7)],
                vec!["b".into(), 3.into(), Value::Float(0.5)],
                vec!["b".into(), 4.into(), Value::Float(0.5)],
            ],
        ),
    )
    .unwrap();
    db.run(
        "create table picked as
         select * from (pick tuples from t independently with probability p) x",
    )
    .unwrap();
    let r = db
        .query("select g, conf() as c from picked group by g order by g")
        .unwrap();
    // Brute force over the stored uncertain table.
    let u = db.table("picked").unwrap().clone();
    let wt = db.world_table();
    let mut truth = std::collections::BTreeMap::new();
    for (world, wp) in wt.enumerate_worlds(1 << 10).unwrap() {
        let inst = u.instantiate(&world);
        let mut groups = std::collections::HashSet::new();
        for t in inst.tuples() {
            groups.insert(t.value(0).as_str().unwrap().to_string());
        }
        for g in groups {
            *truth.entry(g).or_insert(0.0) += wp;
        }
    }
    for t in r.tuples() {
        let g = t.value(0).as_str().unwrap();
        let p = t.value(1).as_f64().unwrap();
        assert!((p - truth[g]).abs() < 1e-9, "{g}: {p} vs {}", truth[g]);
    }
}

/// Risk management (§3): lay off players while keeping skill availability
/// above thresholds — a what-if query per candidate.
#[test]
fn risk_management_layoff_whatif() {
    let mut db = MayBms::new();
    db.register(
        "roster",
        rel(
            &[
                ("player", DataType::Text),
                ("salary", DataType::Int),
                ("avail", DataType::Float),
            ],
            vec![
                vec!["Bryant".into(), 25.into(), Value::Float(0.9)],
                vec!["Gasol".into(), 18.into(), Value::Float(0.85)],
                vec!["Fisher".into(), 5.into(), Value::Float(0.8)],
            ],
        ),
    )
    .unwrap();
    db.register(
        "skills",
        rel(
            &[("player", DataType::Text), ("skill", DataType::Text)],
            vec![
                vec!["Bryant".into(), "shooting".into()],
                vec!["Gasol".into(), "shooting".into()],
                vec!["Gasol".into(), "passing".into()],
                vec!["Fisher".into(), "passing".into()],
            ],
        ),
    )
    .unwrap();
    // What if Gasol is laid off? Check shooting availability ≥ 0.9 and
    // passing ≥ 0.75 from the remaining roster.
    let r = db
        .query(
            "select s.skill, conf() as p from
             (pick tuples from (select player, avail from roster where player <> 'Gasol')
              independently with probability avail) a,
             skills s
             where a.player = s.player
             group by s.skill
             order by s.skill",
        )
        .unwrap();
    // passing: only Fisher -> 0.8; shooting: only Bryant -> 0.9.
    assert_eq!(r.len(), 2);
    let passing = r.tuples()[0].value(1).as_f64().unwrap();
    let shooting = r.tuples()[1].value(1).as_f64().unwrap();
    assert!((passing - 0.8).abs() < 1e-9);
    assert!((shooting - 0.9).abs() < 1e-9);
    // The decision: shooting stays ≥ 0.9 but passing drops below 0.95 — the
    // manager learns the layoff compromises passing.
    assert!(shooting >= 0.9);
    assert!(passing < 0.95);
}
