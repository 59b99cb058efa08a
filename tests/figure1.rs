//! End-to-end reproduction of the paper's Figure 1 ("Random walk on a
//! stochastic matrix") and §3 "Fitness prediction": the two SQL statements
//! are run *verbatim* and the resulting three-day fitness distribution is
//! checked against the matrix power M³ computed independently.

use maybms::MayBms;
use maybms_engine::{DataType, Value};
use maybms_urel::rel;

/// Bryant's stochastic matrix from Figure 1 (rows: F, SE, SL).
const BRYANT: [[f64; 3]; 3] = [[0.8, 0.05, 0.15], [0.1, 0.6, 0.3], [0.8, 0.0, 0.2]];

/// A second player so the test exercises per-player grouping.
const DUNCAN: [[f64; 3]; 3] = [[0.6, 0.2, 0.2], [0.3, 0.5, 0.2], [0.5, 0.1, 0.4]];

const STATES: [&str; 3] = ["F", "SE", "SL"];

fn matmul(a: &[[f64; 3]; 3], b: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let mut out = [[0.0; 3]; 3];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = (0..3).map(|k| a[i][k] * b[k][j]).sum();
        }
    }
    out
}

fn ft_rows(player: &str, m: &[[f64; 3]; 3]) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for (i, from) in STATES.iter().enumerate() {
        for (j, to) in STATES.iter().enumerate() {
            if m[i][j] > 0.0 {
                rows.push(vec![
                    player.into(),
                    (*from).into(),
                    (*to).into(),
                    Value::Float(m[i][j]),
                ]);
            }
        }
    }
    rows
}

fn setup() -> MayBms {
    let mut db = MayBms::new();
    let mut rows = ft_rows("Bryant", &BRYANT);
    rows.extend(ft_rows("Duncan", &DUNCAN));
    db.register(
        "ft",
        rel(
            &[
                ("player", DataType::Text),
                ("init", DataType::Text),
                ("final", DataType::Text),
                ("p", DataType::Float),
            ],
            rows,
        ),
    )
    .unwrap();
    // Initial states: Bryant fit, Duncan seriously injured.
    db.register(
        "states",
        rel(
            &[("player", DataType::Text), ("state", DataType::Text)],
            vec![
                vec!["Bryant".into(), "F".into()],
                vec!["Duncan".into(), "SE".into()],
            ],
        ),
    )
    .unwrap();
    db
}

/// The exact statements printed in the paper (Figure 1), unchanged.
const FT2_SQL: &str = "\
create table FT2 as
select R1.Player, R1.Init, R2.Final, conf() as p from
(repair key Player, Init in FT weight by p) R1,
(repair key Player, Init in FT weight by p) R2, States S
where R1.Player = S.Player and R1.Init = S.State
and R1.Final = R2.Init and R1.Player = R2.Player
group by R1.Player, R1.Init, R2.Final;";

#[test]
fn figure1_one_step_walk_is_r2() {
    // `repair key Player, Init in FT weight by p` produces Figure 1's R2:
    // one condition column over independent variables, alternatives within
    // a (Player, Init) group mutually exclusive.
    let mut db = setup();
    let u = db
        .query_uncertain("select * from (repair key Player, Init in FT weight by p) R")
        .unwrap();
    // 17 rows: Bryant has 8 nonzero transitions (SE→F dropped? no — SL→SE
    // is the zero one), Duncan has 9.
    assert_eq!(u.len(), 17);
    assert!(!u.is_t_certain());
    // Mass per (player, init) group sums to 1.
    let wt = db.world_table();
    for player in ["Bryant", "Duncan"] {
        for init in STATES {
            let mass: f64 = u
                .tuples()
                .iter()
                .filter(|t| {
                    t.data.value(0) == &Value::str(player) && t.data.value(1) == &Value::str(init)
                })
                .map(|t| t.wsd.prob(wt).unwrap())
                .sum();
            assert!((mass - 1.0).abs() < 1e-9, "{player} {init}: {mass}");
        }
    }
}

#[test]
fn figure1_three_step_walk_matches_matrix_power() {
    let mut db = setup();
    db.run(FT2_SQL).unwrap();

    // FT2 holds the 2-step distribution for each player's initial state.
    let ft2 = db.query("select Player, Init, Final, p from FT2").unwrap();
    let m2b = matmul(&BRYANT, &BRYANT);
    let m2d = matmul(&DUNCAN, &DUNCAN);
    for t in ft2.tuples() {
        let player = t.value(0).as_str().unwrap();
        let init = t.value(1).as_str().unwrap();
        let fin = t.value(2).as_str().unwrap();
        let p = t.value(3).as_f64().unwrap();
        let i = STATES.iter().position(|s| *s == init).unwrap();
        let j = STATES.iter().position(|s| *s == fin).unwrap();
        let expected = match player {
            "Bryant" => {
                assert_eq!(init, "F"); // States pins Bryant to F
                m2b[i][j]
            }
            "Duncan" => {
                assert_eq!(init, "SE");
                m2d[i][j]
            }
            other => panic!("unexpected player {other}"),
        };
        assert!(
            (p - expected).abs() < 1e-9,
            "{player} {init}->{fin}: {p} vs {expected}"
        );
    }

    // The paper's second statement: the 3-step walk.
    let walk = db
        .query(
            "select R1.Player, R2.Final as State, conf() as p from
             (repair key Player, Init in FT2 weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.player, R2.Final;",
        )
        .unwrap();
    let m3b = matmul(&m2b, &BRYANT);
    let m3d = matmul(&m2d, &DUNCAN);
    let mut checked = 0;
    for t in walk.tuples() {
        let player = t.value(0).as_str().unwrap();
        let state = t.value(1).as_str().unwrap();
        let p = t.value(2).as_f64().unwrap();
        let j = STATES.iter().position(|s| *s == state).unwrap();
        let expected = match player {
            "Bryant" => m3b[0][j], // started at F
            "Duncan" => m3d[1][j], // started at SE
            other => panic!("unexpected player {other}"),
        };
        assert!(
            (p - expected).abs() < 1e-9,
            "{player} 3-step to {state}: {p} vs {expected}"
        );
        checked += 1;
    }
    assert_eq!(checked, 6, "three states per player");
    // Each player's distribution sums to 1.
    for player in ["Bryant", "Duncan"] {
        let total: f64 = walk
            .tuples()
            .iter()
            .filter(|t| t.value(0) == &Value::str(player))
            .map(|t| t.value(2).as_f64().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn figure1_aconf_agrees_with_conf() {
    let mut db = setup();
    db.run(FT2_SQL).unwrap();
    let exact = db
        .query(
            "select R1.Player, R2.Final as State, conf() as p from
             (repair key Player, Init in FT2 weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.player, R2.Final
             order by R1.player, R2.Final",
        )
        .unwrap();
    let approx = db
        .query(
            "select R1.Player, R2.Final as State, aconf(0.05, 0.01) as p from
             (repair key Player, Init in FT2 weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.player, R2.Final
             order by R1.player, R2.Final",
        )
        .unwrap();
    assert_eq!(exact.len(), approx.len());
    for (e, a) in exact.tuples().iter().zip(approx.tuples()) {
        let pe = e.value(2).as_f64().unwrap();
        let pa = a.value(2).as_f64().unwrap();
        assert!(
            ((pe - pa) / pe).abs() < 0.05,
            "aconf {pa} too far from conf {pe} for {}",
            e.data
        );
    }
}

#[test]
fn longer_walks_by_iterated_squaring() {
    // §3: "For a 3-step random walk, we join the outcome of the previous
    // 2-step walk with a 1-step walk" — extend to a 4-step walk the same
    // way and verify against M⁴.
    let mut db = setup();
    db.run(FT2_SQL).unwrap();
    db.run(
        "create table FT3 as
         select R1.Player, R1.Init, R2.Final, conf() as p from
         (repair key Player, Init in FT2 weight by p) R1,
         (repair key Player, Init in FT weight by p) R2
         where R1.Final = R2.Init and R1.Player = R2.Player
         group by R1.Player, R1.Init, R2.Final;",
    )
    .unwrap();
    let walk4 = db
        .query(
            "select R1.Player, R2.Final as State, conf() as p from
             (repair key Player, Init in FT3 weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.player, R2.Final;",
        )
        .unwrap();
    let m2 = matmul(&BRYANT, &BRYANT);
    let m4 = matmul(&matmul(&m2, &BRYANT), &BRYANT);
    for t in walk4.tuples() {
        if t.value(0) != &Value::str("Bryant") {
            continue;
        }
        let j = STATES
            .iter()
            .position(|s| *s == t.value(1).as_str().unwrap())
            .unwrap();
        let p = t.value(2).as_f64().unwrap();
        assert!(
            (p - m4[0][j]).abs() < 1e-9,
            "4-step {j}: {p} vs {}",
            m4[0][j]
        );
    }
}
