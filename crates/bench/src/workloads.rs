//! Seeded workload generators for the experiment harnesses (§3).
//!
//! Every generator is deterministic in its seed so experiment tables are
//! reproducible run-to-run.

use std::sync::Arc;

use maybms_conf::Dnf;
use maybms_engine::{DataType, Expr, Field, Schema, Tuple, Value};
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fitness states of the NBA scenario.
pub const STATES: [&str; 3] = ["F", "SE", "SL"];

/// Generate the NBA what-if scenario (§3 / Figure 1): `players` random
/// per-player stochastic matrices as the `FT` relation plus an initial
/// `States` table.
pub fn nba(seed: u64, players: usize) -> (URelation, URelation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ft_schema = Arc::new(Schema::new(vec![
        Field::new("player", DataType::Text),
        Field::new("init", DataType::Text),
        Field::new("final", DataType::Text),
        Field::new("p", DataType::Float),
    ]));
    let states_schema = Arc::new(Schema::new(vec![
        Field::new("player", DataType::Text),
        Field::new("state", DataType::Text),
    ]));
    let mut ft = Vec::new();
    let mut states = Vec::new();
    for pid in 0..players {
        let name = format!("player{pid:04}");
        for from in STATES {
            // A random distribution over the three target states.
            let a: f64 = rng.gen_range(0.05..1.0);
            let b: f64 = rng.gen_range(0.05..1.0);
            let c: f64 = rng.gen_range(0.05..1.0);
            let total = a + b + c;
            for (to, w) in STATES.iter().zip([a / total, b / total, c / total]) {
                ft.push(Tuple::new(vec![
                    Value::str(&name),
                    Value::str(from),
                    Value::str(*to),
                    Value::Float(w),
                ]));
            }
        }
        let init = STATES[rng.gen_range(0..STATES.len())];
        states.push(Tuple::new(vec![Value::str(&name), Value::str(init)]));
    }
    let certain = |schema, rows: Vec<Tuple>| {
        URelation::new(schema, rows.into_iter().map(UTuple::certain).collect())
            .expect("rows of the schema's arity")
    };
    (certain(ft_schema, ft), certain(states_schema, states))
}

/// Parameters of a random DNF family (experiment E2/E7).
#[derive(Debug, Clone, Copy)]
pub struct DnfParams {
    /// Number of clauses.
    pub clauses: usize,
    /// Number of distinct variables.
    pub vars: usize,
    /// Literals per clause.
    pub clause_len: usize,
    /// Domain size of every variable.
    pub domain: u16,
}

/// Generate a random monotone DNF over fresh variables.
pub fn random_dnf(seed: u64, p: DnfParams) -> (WorldTable, Dnf) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wt = WorldTable::new();
    let vars: Vec<Var> = (0..p.vars.max(1))
        .map(|_| {
            let mut dist = vec![0.0; p.domain as usize];
            let mut total = 0.0;
            for d in dist.iter_mut() {
                *d = rng.gen_range(0.05..1.0);
                total += *d;
            }
            for d in dist.iter_mut() {
                *d /= total;
            }
            wt.new_var(&dist).expect("valid distribution")
        })
        .collect();
    let mut clauses = Vec::with_capacity(p.clauses);
    while clauses.len() < p.clauses {
        let len = p.clause_len.max(1).min(vars.len());
        let mut assignments = Vec::with_capacity(len);
        let mut used = std::collections::HashSet::new();
        while assignments.len() < len {
            let v = vars[rng.gen_range(0..vars.len())];
            if used.insert(v) {
                assignments.push(Assignment::new(v, rng.gen_range(0..p.domain)));
            }
        }
        if let Some(w) = Wsd::from_assignments(assignments) {
            clauses.push(w);
        }
    }
    (wt, Dnf::new(clauses))
}

/// The lineage of one walk group, in member order — "some player ends in
/// state 2" over `players` walks of `steps` steps on four states, one
/// four-valued variable per step and state, as `repair key player, init`
/// creates them: `4^(steps − 1)` clauses of `steps` literals per player,
/// the players independent (E1b). Three steps make a `walk3_state_conf`
/// group (16 clauses a player), two a `walk2_conf` one (4).
pub fn walk_group(seed: u64, players: usize, steps: u32) -> (WorldTable, Vec<Wsd>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wt = WorldTable::new();
    let paths = 4usize.pow(steps - 1);
    let mut clauses = Vec::with_capacity(paths * players);
    for _ in 0..players {
        let vars: Vec<Vec<Var>> = (0..steps)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        let w: Vec<f64> = (0..4).map(|_| rng.gen_range(0.05..1.0)).collect();
                        let total: f64 = w.iter().sum();
                        let dist: Vec<f64> = w.iter().map(|x| x / total).collect();
                        wt.new_var(&dist).expect("valid distribution")
                    })
                    .collect()
            })
            .collect();
        for path in 0..paths {
            // The states after each step but the last: `path`'s base-4
            // digits, most significant first; the last step ends in 2.
            let mut state = 0;
            let lits = (0..steps)
                .map(|i| {
                    let next = match steps - 1 - i {
                        0 => 2,
                        rest => (path / 4usize.pow(rest - 1)) % 4,
                    };
                    let a = Assignment::new(vars[i as usize][state], next as u16);
                    state = next;
                    a
                })
                .collect();
            clauses.push(Wsd::from_assignments(lits).expect("distinct variables"));
        }
    }
    (wt, clauses)
}

/// E5 workload: a pair of relations (certain twin + uncertain twin over a
/// fresh world table). The uncertain twin conditions every row on a fresh
/// Boolean variable, so it represents 2^rows worlds while storing the same
/// number of tuples.
pub fn overhead_pair(seed: u64, rows: usize, keys: i64) -> (URelation, WorldTable, URelation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        data.push(vec![
            Value::Int(rng.gen_range(0..keys)),
            Value::Int(rng.gen_range(0..1000)),
            Value::Float(rng.gen_range(0.05..1.0)),
        ]);
    }
    let certain = maybms_urel::rel(
        &[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("prob", DataType::Float),
        ],
        data,
    );
    let mut wt = WorldTable::new();
    let uncertain = pick_tuples(
        &certain,
        &PickTuplesOptions {
            probability: Some(Expr::col("prob")),
        },
        &mut wt,
    )
    .expect("valid probabilities");
    (certain, wt, uncertain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nba_shapes() {
        let (ft, states) = nba(7, 5);
        assert_eq!(ft.len(), 5 * 9);
        assert_eq!(states.len(), 5);
        // Rows of each player's matrix sum to 1.
        let p0: f64 = ft
            .tuples()
            .iter()
            .filter(|t| {
                t.value(0).as_str() == Some("player0000") && t.value(1).as_str() == Some("F")
            })
            .map(|t| t.value(3).as_f64().unwrap())
            .sum();
        assert!((p0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nba_deterministic_in_seed() {
        let (a, _) = nba(42, 3);
        let (b, _) = nba(42, 3);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn random_dnf_shape() {
        let (wt, d) = random_dnf(
            1,
            DnfParams {
                clauses: 10,
                vars: 6,
                clause_len: 3,
                domain: 2,
            },
        );
        assert_eq!(d.len(), 10);
        assert_eq!(wt.num_vars(), 6);
        for c in d.clauses() {
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn overhead_pair_matches() {
        let (certain, wt, uncertain) = overhead_pair(5, 100, 10);
        assert_eq!(certain.len(), 100);
        assert_eq!(uncertain.len(), 100);
        assert_eq!(wt.num_vars(), 100); // 2^100 worlds represented
    }
}
