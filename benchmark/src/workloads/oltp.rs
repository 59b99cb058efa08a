//! `oltp_durable`: small reads and fsynced writes on a durable table, with
//! a shadow model that answers every read and audits the final state.

use std::collections::BTreeMap;

use super::{scaled, stream, Stmt, Workload};
use crate::answer::{Cell, Expect};
use crate::data::{self, room_name, Reading, READING_BYTES, STATES};
use crate::rng::Rng;

/// Rows per `insert_batch`.
const BATCH: i64 = 10;
/// Keys per `update_range`/`delete_range`.
const WRITE_RANGE: i64 = 20;
/// Keys per `range_read`.
const READ_RANGE: i64 = 50;
/// Players per `ctas_repair` (× 16 transitions = a 208-row table).
const CTAS_PLAYERS: usize = 13;
/// Table names `ctas_repair` cycles through.
const CTAS_NAMES: usize = 4;

/// Generator state: the shadow model of `readings` and what else the
/// statements read.
pub struct Oltp {
    /// `readings` as every acknowledged write left it, by sensor.
    pub(crate) model: BTreeMap<i64, Reading>,
    /// `genuine` is materialised at set-up and never written.
    genuine: Vec<Reading>,
    weights: Vec<[[f64; STATES]; STATES]>,
    rooms: usize,
    next_sensor: i64,
    /// How many `ctas_repair` statements ran (names are `tmp_{n % 4}`).
    ctas: usize,
    rng: Rng,
}

impl Oltp {
    /// 50 000 readings (÷ `divisor`) and a 64-player `ft`.
    pub fn new(seed: u64, divisor: usize) -> Oltp {
        let mut rng = Rng::new(seed, stream::DATA);
        let rooms = scaled(200, divisor, 10);
        let genuine = data::readings(&mut rng, scaled(50_000, divisor, 2500), rooms);
        Oltp {
            model: genuine.iter().map(|r| (r.sensor, r.clone())).collect(),
            next_sensor: genuine.len() as i64,
            genuine,
            weights: data::transition_weights(&mut rng, 64),
            rooms,
            ctas: 0,
            rng: Rng::new(seed, stream::PARAMS),
        }
    }

    /// Start of a `len`-key range somewhere in the key space used so far.
    fn range_start(&mut self, len: i64) -> i64 {
        self.rng.range(0, self.next_sensor - len + 1)
    }
}

impl Workload for Oltp {
    fn setup_sql(&self) -> Vec<String> {
        let mut sql = data::readings_sql(&self.genuine);
        sql.push(
            "create table genuine as select * from \
             (pick tuples from readings independently with probability rel) g"
                .to_string(),
        );
        let start = vec![0; self.weights.len()];
        sql.extend(data::walk_sql(&self.weights, &start));
        sql
    }

    fn ingested_bytes(&self) -> u64 {
        self.genuine.len() as u64 * READING_BYTES + data::walk_bytes(self.weights.len())
    }

    fn next(&mut self, class: &str) -> Stmt {
        match class {
            "point_read" => {
                let key = self.range_start(1);
                let rows = self
                    .model
                    .get(&key)
                    .map(|r| {
                        vec![
                            Cell::Int(r.sensor),
                            Cell::Text(room_name(r.room)),
                            Cell::Float(r.temp),
                        ]
                    })
                    .into_iter()
                    .collect();
                Stmt::read(
                    format!("select sensor, room, temp from readings where sensor = {key}"),
                    Expect::Rows(rows),
                )
            }
            "range_read" => {
                let lo = self.range_start(READ_RANGE);
                let rows = self
                    .model
                    .range(lo..lo + READ_RANGE)
                    .map(|(_, r)| vec![Cell::Int(r.sensor), Cell::Float(r.temp)])
                    .collect();
                Stmt::read(
                    format!(
                        "select sensor, temp from readings where sensor >= {lo} and sensor < {}",
                        lo + READ_RANGE
                    ),
                    Expect::Rows(rows),
                )
            }
            "small_conf" => {
                // ~10 tuple-independent rows of one room: SPROUT's 1 − ∏(1 − rel).
                let span = self.genuine.len() / 25;
                let lo = self.rng.below((self.genuine.len() - span + 1) as u64) as usize;
                let room = self.rng.below(self.rooms as u64) as usize;
                let mut hits = self.genuine[lo..lo + span]
                    .iter()
                    .filter(|r| r.room == room)
                    .peekable();
                let rows = if hits.peek().is_some() {
                    let none: f64 = hits.map(|r| 1.0 - r.rel).product();
                    vec![vec![Cell::Text(room_name(room)), Cell::Float(1.0 - none)]]
                } else {
                    Vec::new()
                };
                Stmt::read(
                    format!(
                        "select room, conf() as p from genuine where room = '{}' and sensor >= {lo} \
                         and sensor < {} group by room",
                        room_name(room),
                        lo + span
                    ),
                    Expect::Rows(rows),
                )
            }
            "insert_batch" => {
                let rows: Vec<Reading> = (self.next_sensor..self.next_sensor + BATCH)
                    .map(|s| data::reading(&mut self.rng, s, self.rooms))
                    .collect();
                self.next_sensor += BATCH;
                let values: Vec<String> = rows.iter().map(data::reading_values).collect();
                self.model.extend(rows.into_iter().map(|r| (r.sensor, r)));
                Stmt {
                    prelude: None,
                    sql: format!("insert into readings values {}", values.join(", ")),
                    expect: Expect::Ack(format!("INSERT {BATCH}")),
                    user_bytes: BATCH as u64 * READING_BYTES,
                }
            }
            "update_range" => {
                let lo = self.range_start(WRITE_RANGE);
                let mut n = 0;
                for (_, r) in self.model.range_mut(lo..lo + WRITE_RANGE) {
                    r.temp += 0.5;
                    n += 1;
                }
                Stmt {
                    prelude: None,
                    sql: format!(
                        "update readings set temp = temp + 0.5 where sensor >= {lo} and sensor < {}",
                        lo + WRITE_RANGE
                    ),
                    expect: Expect::Ack(format!("UPDATE {n}")),
                    user_bytes: n * READING_BYTES,
                }
            }
            "delete_range" => {
                let lo = self.range_start(WRITE_RANGE);
                let doomed: Vec<i64> = self
                    .model
                    .range(lo..lo + WRITE_RANGE)
                    .map(|(k, _)| *k)
                    .collect();
                for k in &doomed {
                    self.model.remove(k);
                }
                Stmt {
                    prelude: None,
                    sql: format!(
                        "delete from readings where sensor >= {lo} and sensor < {}",
                        lo + WRITE_RANGE
                    ),
                    expect: Expect::Ack(format!("DELETE {}", doomed.len())),
                    user_bytes: doomed.len() as u64 * READING_BYTES,
                }
            }
            "ctas_repair" => {
                let name = format!("tmp_{}", self.ctas % CTAS_NAMES);
                let prelude = (self.ctas >= CTAS_NAMES).then(|| format!("drop table {name}"));
                self.ctas += 1;
                let lo = self
                    .rng
                    .below((self.weights.len() - CTAS_PLAYERS + 1) as u64)
                    as usize;
                Stmt {
                    prelude,
                    sql: format!(
                        "create table {name} as select * from (repair key player, init in \
                         (select * from ft where player >= {lo} and player < {}) weight by p) r",
                        lo + CTAS_PLAYERS
                    ),
                    expect: Expect::Ack("CREATE TABLE AS".to_string()),
                    user_bytes: (CTAS_PLAYERS * STATES * STATES * 32) as u64,
                }
            }
            other => unreachable!("oltp_durable has no class {other}"),
        }
    }

    fn final_checks(&self) -> Vec<(String, Expect)> {
        let temps: f64 = self.model.values().map(|r| r.temp).sum();
        let sensors: i64 = self.model.keys().sum();
        let mut checks = vec![(
            "select count(*) as n, sum(temp) as t, sum(sensor) as s from readings".to_string(),
            Expect::Rows(vec![vec![
                Cell::Int(self.model.len() as i64),
                Cell::Float(temps),
                Cell::Int(sensors),
            ]]),
        )];
        for slot in 0..self.ctas.min(CTAS_NAMES) {
            // One alternative per (player, init) holds in every world, so the
            // expected row count of a repaired table is its number of keys.
            checks.push((
                format!("select ecount() as n from tmp_{slot}"),
                Expect::Rows(vec![vec![Cell::Float((CTAS_PLAYERS * STATES) as f64)]]),
            ));
        }
        checks
    }
}
