//! `analytic_certain`: σ/π/⋈/γ over t-certain tables.

use std::collections::BTreeMap;

use super::{scaled, stream, Stmt, Workload};
use crate::answer::{Cell, Expect, Row};
use crate::data::{self, lit, room_floor, room_name, Reading, READING_BYTES};
use crate::rng::Rng;

/// Generator state: the rows of `readings` and `alerts`.
pub struct Analytic {
    rows: Vec<Reading>,
    rooms: usize,
    /// `alerts (sensor bigint, level bigint)`.
    alerts: Vec<(i64, i64)>,
    rng: Rng,
}

impl Analytic {
    /// 100 000 readings, 200 rooms, 400 alerts (÷ `divisor`).
    pub fn new(seed: u64, divisor: usize) -> Analytic {
        let mut rng = Rng::new(seed, stream::DATA);
        let rooms = scaled(200, divisor, 10);
        let rows = data::readings(&mut rng, scaled(100_000, divisor, 1000), rooms);
        let alerts = (0..scaled(400, divisor, 20))
            .map(|_| (rng.below(rows.len() as u64) as i64, rng.below(4) as i64))
            .collect();
        Analytic {
            rows,
            rooms,
            alerts,
            rng: Rng::new(seed, stream::PARAMS),
        }
    }

    /// A threshold on a 0.001 grid in `lo .. lo + span/1000`.
    fn threshold(&mut self, lo: f64, span: u64) -> f64 {
        lo + self.rng.below(span) as f64 / 1000.0
    }
}

impl Workload for Analytic {
    fn setup_sql(&self) -> Vec<String> {
        let mut sql = data::readings_sql(&self.rows);
        sql.extend(data::rooms_sql(self.rooms));
        sql.push("create table alerts (sensor bigint, level bigint)".to_string());
        sql.extend(data::insert_batches(
            "alerts",
            self.alerts.iter().map(|(s, l)| format!("({s}, {l})")),
        ));
        sql
    }

    fn ingested_bytes(&self) -> u64 {
        self.rows.len() as u64 * READING_BYTES
            + data::rooms_bytes(self.rooms)
            + self.alerts.len() as u64 * 16
    }

    fn next(&mut self, class: &str) -> Stmt {
        let (sql, expect) = match class {
            "scan_filter" => {
                let (t, r) = (self.threshold(29.0, 800), self.threshold(0.3, 400));
                let rows = self
                    .rows
                    .iter()
                    .filter(|x| x.temp > t && x.rel > r)
                    .map(|x| vec![Cell::Int(x.sensor), Cell::Float(x.temp)])
                    .collect();
                (
                    format!(
                        "select sensor, temp from readings where temp > {} and rel > {}",
                        lit(t),
                        lit(r)
                    ),
                    Expect::Rows(rows),
                )
            }
            "sort_limit" => {
                // A narrow band (3–8 % of the rows pass): this class holds
                // the workload's median latency, which should not swing with r.
                let r = self.threshold(0.88, 40);
                let mut hits: Vec<&Reading> = self.rows.iter().filter(|x| x.rel > r).collect();
                hits.sort_by(|a, b| b.temp.total_cmp(&a.temp).then(a.sensor.cmp(&b.sensor)));
                let rows = hits
                    .iter()
                    .take(20)
                    .map(|x| vec![Cell::Int(x.sensor), Cell::Float(x.temp)])
                    .collect();
                (
                    format!(
                        "select sensor, temp from readings where rel > {} order by temp desc, sensor limit 20",
                        lit(r)
                    ),
                    Expect::Ordered(rows),
                )
            }
            "distinct_text" => {
                let t = self.threshold(29.9, 90);
                let mut seen = vec![false; self.rooms];
                for x in self.rows.iter().filter(|x| x.temp > t) {
                    seen[x.room] = true;
                }
                let rows = (0..self.rooms)
                    .filter(|&i| seen[i])
                    .map(|i| vec![Cell::Text(room_name(i))])
                    .collect();
                (
                    format!("select distinct room from readings where temp > {}", lit(t)),
                    Expect::Rows(rows),
                )
            }
            "group_text" => {
                let r = self.threshold(0.2, 600);
                let mut groups: BTreeMap<usize, (i64, f64)> = BTreeMap::new();
                for x in self.rows.iter().filter(|x| x.rel > r) {
                    let g = groups.entry(x.room).or_insert((0, f64::MIN));
                    g.0 += 1;
                    g.1 = g.1.max(x.temp);
                }
                let rows = groups
                    .into_iter()
                    .map(|(room, (n, max))| {
                        vec![Cell::Text(room_name(room)), Cell::Int(n), Cell::Float(max)]
                    })
                    .collect();
                (
                    format!(
                        "select room, count(*) as n, max(temp) as t from readings where rel > {} group by room",
                        lit(r)
                    ),
                    Expect::Rows(rows),
                )
            }
            "join_dim_group" => {
                let t = self.threshold(15.0, 10_000);
                let mut groups: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for x in self.rows.iter().filter(|x| x.temp > t) {
                    let g = groups.entry(room_floor(x.room)).or_insert((0, 0.0));
                    g.0 += 1;
                    g.1 += x.temp;
                }
                let rows: Vec<Row> = groups
                    .into_iter()
                    .map(|(floor, (n, sum))| {
                        vec![Cell::Int(floor), Cell::Int(n), Cell::Float(sum / n as f64)]
                    })
                    .collect();
                (
                    format!(
                        "select m.floor, count(*) as n, avg(r.temp) as t from readings r, rooms m \
                         where r.room = m.room and r.temp > {} group by m.floor",
                        lit(t)
                    ),
                    Expect::Rows(rows),
                )
            }
            "join_fact_selective" => {
                let level = self.rng.below(3) as i64;
                let mut groups: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for (sensor, l) in self.alerts.iter().filter(|(_, l)| *l >= level) {
                    // Sensors are dense from 0, so the key is the index.
                    let g = groups.entry(*l).or_insert((0, 0.0));
                    g.0 += 1;
                    g.1 += self.rows[*sensor as usize].temp;
                }
                let rows = groups
                    .into_iter()
                    .map(|(l, (n, sum))| vec![Cell::Int(l), Cell::Int(n), Cell::Float(sum)])
                    .collect();
                (
                    format!(
                        "select a.level, count(*) as n, sum(r.temp) as t from alerts a, readings r \
                         where a.sensor = r.sensor and a.level >= {level} group by a.level"
                    ),
                    Expect::Rows(rows),
                )
            }
            other => unreachable!("analytic_certain has no class {other}"),
        };
        Stmt::read(sql, expect)
    }
}
