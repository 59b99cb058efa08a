//! `conf_exact` and `conf_approx`: the paper's Figure 1 random walk, scaled
//! up, plus a tuple-independent table for the SPROUT and `tconf` paths.

use std::collections::BTreeMap;

use super::{scaled, stream, Stmt, Workload};
use crate::answer::{Cell, Expect, Row};
use crate::data::{self, lit, room_floor, room_name, Reading, READING_BYTES, STATES};
use crate::rng::Rng;

/// Generator state: the transition weights, start states and (for
/// `conf_exact`) the readings behind `genuine`.
pub struct Walk {
    approx: bool,
    weights: Vec<[[f64; STATES]; STATES]>,
    /// Row-normalised `weights`.
    matrix: Vec<[[f64; STATES]; STATES]>,
    start: Vec<usize>,
    readings: Vec<Reading>,
    rooms: usize,
    /// Players per `walk2_conf`/`walk3_conf`/`walk3_ecount` statement.
    group_window: usize,
    /// Players per `walk3_state_conf` statement: four groups whose lineage
    /// is this many players × 16 clauses long.
    state_window: usize,
    rng: Rng,
}

impl Walk {
    /// 2 000 players × 4×4 transitions; `conf_exact` adds 50 000 readings
    /// (÷ `divisor`).
    pub fn new(seed: u64, divisor: usize, approx: bool) -> Walk {
        let mut rng = Rng::new(seed, stream::DATA);
        let players = scaled(2000, divisor, 100);
        let weights = data::transition_weights(&mut rng, players);
        let start = (0..players)
            .map(|_| rng.below(STATES as u64) as usize)
            .collect();
        let rooms = scaled(200, divisor, 10);
        let readings = if approx {
            Vec::new()
        } else {
            data::readings(&mut rng, scaled(50_000, divisor, 2500), rooms)
        };
        Walk {
            approx,
            matrix: weights.iter().map(data::normalised).collect(),
            weights,
            start,
            readings,
            rooms,
            group_window: scaled(100, divisor, 5),
            state_window: scaled(80, divisor, 4),
            rng: Rng::new(seed, stream::PARAMS),
        }
    }

    /// A window of `len` consecutive players (or sensors, out of `of`).
    fn window(&mut self, of: usize, len: usize) -> (usize, usize) {
        let lo = self.rng.below((of - len + 1) as u64) as usize;
        (lo, lo + len)
    }

    /// A `steps`-step walk of the players in `lo..hi`, aggregated by `agg`
    /// per (player, final state) or, with `by_state`, per final state.
    fn walk_query(
        &self,
        steps: usize,
        (lo, hi): (usize, usize),
        agg: &str,
        by_state: bool,
    ) -> String {
        let last = format!("r{steps}.final");
        let mut from = String::from("start s");
        let mut cond = format!("s.player >= {lo} and s.player < {hi}");
        for k in 1..=steps {
            from.push_str(&format!(", step{k} r{k}"));
            let (prev_player, prev_state) = if k == 1 {
                ("s.player".into(), "s.state".into())
            } else {
                (format!("r{}.player", k - 1), format!("r{}.final", k - 1))
            };
            cond.push_str(&format!(
                " and r{k}.player = {prev_player} and r{k}.init = {prev_state}"
            ));
        }
        let keys = if by_state {
            last
        } else {
            format!("s.player, {last}")
        };
        format!("select {keys}, {agg} as p from {from} where {cond} group by {keys}")
    }

    /// Exact answer of [`Walk::walk_query`] for `conf()`/`aconf()`;
    /// `ecount()` per (player, state) is the same sum of path probabilities.
    fn walk_answer(&self, steps: usize, (lo, hi): (usize, usize), by_state: bool) -> Vec<Row> {
        let dists: Vec<[f64; STATES]> = (lo..hi)
            .map(|p| data::walk(&self.matrix[p], self.start[p], steps))
            .collect();
        if by_state {
            // Players share no variable, so "some player ends in f" is a
            // disjunction of independent events.
            (0..STATES)
                .map(|f| {
                    let none: f64 = dists.iter().map(|d| 1.0 - d[f]).product();
                    vec![Cell::Int(f as i64), Cell::Float(1.0 - none)]
                })
                .collect()
        } else {
            (lo..hi)
                .zip(&dists)
                .flat_map(|(p, d)| {
                    (0..STATES).map(move |f| {
                        vec![Cell::Int(p as i64), Cell::Int(f as i64), Cell::Float(d[f])]
                    })
                })
                .collect()
        }
    }

    fn approx_stmt(&mut self, players: usize, epsilon: f64, by_state: bool) -> Stmt {
        let delta = 0.05;
        let w = self.window(self.start.len(), players);
        let agg = format!("aconf({}, {})", lit(epsilon), lit(delta));
        Stmt::read(
            self.walk_query(3, w, &agg, by_state),
            Expect::Approx {
                rows: self.walk_answer(3, w, by_state),
                epsilon,
                delta,
            },
        )
    }

    /// `1 − ∏(1 − relᵢ)` per room over the readings in `lo..hi`.
    fn independent_conf(&self, (lo, hi): (usize, usize)) -> Vec<Row> {
        let mut none: BTreeMap<usize, f64> = BTreeMap::new();
        for r in &self.readings[lo..hi] {
            *none.entry(r.room).or_insert(1.0) *= 1.0 - r.rel;
        }
        none.into_iter()
            .map(|(room, q)| vec![Cell::Text(room_name(room)), Cell::Float(1.0 - q)])
            .collect()
    }
}

impl Workload for Walk {
    fn setup_sql(&self) -> Vec<String> {
        let mut sql = data::walk_sql(&self.weights, &self.start);
        for k in 1..=3 {
            sql.push(format!(
                "create table step{k} as select * from (repair key player, init in ft weight by p) r"
            ));
        }
        if !self.approx {
            sql.extend(data::readings_sql(&self.readings));
            sql.extend(data::rooms_sql(self.rooms));
            sql.push(
                "create table genuine as select * from \
                 (pick tuples from readings independently with probability rel) g"
                    .to_string(),
            );
        }
        sql
    }

    fn ingested_bytes(&self) -> u64 {
        let walk = data::walk_bytes(self.start.len());
        if self.approx {
            walk
        } else {
            walk + self.readings.len() as u64 * READING_BYTES + data::rooms_bytes(self.rooms)
        }
    }

    fn next(&mut self, class: &str) -> Stmt {
        let players = self.start.len();
        let sensors = self.readings.len();
        match class {
            "walk2_conf" | "walk3_conf" | "walk3_ecount" => {
                let steps = if class == "walk2_conf" { 2 } else { 3 };
                let agg = if class == "walk3_ecount" {
                    "ecount()"
                } else {
                    "conf()"
                };
                let w = self.window(players, self.group_window);
                Stmt::read(
                    self.walk_query(steps, w, agg, false),
                    Expect::Rows(self.walk_answer(steps, w, false)),
                )
            }
            "walk3_state_conf" => {
                let w = self.window(players, self.state_window);
                Stmt::read(
                    self.walk_query(3, w, "conf()", true),
                    Expect::Rows(self.walk_answer(3, w, true)),
                )
            }
            "walk3_aconf_e10" => self.approx_stmt(4, 0.1, false),
            "walk3_aconf_e05" => self.approx_stmt(4, 0.05, false),
            "walk3_state_aconf" => self.approx_stmt(2, 0.1, true),
            "indep_conf" => {
                // 400 sensors at full size: about two readings per room.
                let w = self.window(sensors, sensors / 125);
                Stmt::read(
                    format!(
                        "select room, conf() as p from genuine where sensor >= {} and sensor < {} group by room",
                        w.0, w.1
                    ),
                    Expect::Rows(self.independent_conf(w)),
                )
            }
            "tconf_scan" => {
                let w = self.window(sensors, sensors / 125);
                let rows = self.readings[w.0..w.1]
                    .iter()
                    .map(|r| vec![Cell::Int(r.sensor), Cell::Float(r.rel)])
                    .collect();
                Stmt::read(
                    format!(
                        "select sensor, tconf() as p from genuine where sensor >= {} and sensor < {}",
                        w.0, w.1
                    ),
                    Expect::Rows(rows),
                )
            }
            "possible_join" => {
                // 200 sensors at full size.
                let w = self.window(sensors, sensors / 250);
                let t = 20.0 + self.rng.below(8000) as f64 / 1000.0;
                let rows = self.readings[w.0..w.1]
                    .iter()
                    .filter(|r| r.temp > t)
                    .map(|r| vec![Cell::Int(r.sensor), Cell::Int(room_floor(r.room))])
                    .collect();
                Stmt::read(
                    format!(
                        "select possible g.sensor, m.floor from genuine g, rooms m where g.room = m.room \
                         and g.sensor >= {} and g.sensor < {} and g.temp > {}",
                        w.0,
                        w.1,
                        lit(t)
                    ),
                    Expect::Rows(rows),
                )
            }
            "repair_inline" => {
                let w = self.window(players, 50);
                let init = self.rng.below(STATES as u64) as usize;
                let rows = (0..STATES)
                    .map(|f| {
                        let none: f64 = self.matrix[w.0..w.1]
                            .iter()
                            .map(|m| 1.0 - m[init][f])
                            .product();
                        vec![Cell::Int(f as i64), Cell::Float(1.0 - none)]
                    })
                    .collect();
                Stmt::read(
                    format!(
                        "select r.final, conf() as p from (repair key player, init in \
                         (select * from ft where player >= {} and player < {}) weight by p) r \
                         where r.init = {init} group by r.final",
                        w.0, w.1
                    ),
                    Expect::Rows(rows),
                )
            }
            other => unreachable!("the walk workloads have no class {other}"),
        }
    }
}
