//! Seeded table contents, kept by the generator so it can compute every
//! expected answer itself, and the SQL text that ingests them.

use crate::rng::Rng;

/// States of the random walk (the paper's Figure 1 has three fitness
/// states; four keeps the matrices square and the lineage a bit longer).
pub const STATES: usize = 4;

/// One row of `readings (sensor bigint, room text, temp double precision,
/// rel double precision)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Key: unique, dense from 0 at ingest.
    pub sensor: i64,
    /// Index of the room; the column holds [`room_name`] of it.
    pub room: usize,
    /// Temperature on a 0.001 grid in `[10, 30)`.
    pub temp: f64,
    /// Reliability on a 0.0001 grid in `[0.05, 0.95)`: the tuple
    /// probability `pick tuples` gives the row in `genuine`.
    pub rel: f64,
}

/// Bytes of user data in one `readings` row (8 per number + the text).
pub const READING_BYTES: u64 = 8 + 7 + 8 + 8;

/// The text stored for room `i`.
pub fn room_name(i: usize) -> String {
    format!("room{i:03}")
}

/// Floor of room `i` in `rooms (room text, floor bigint, kind text)`.
pub fn room_floor(i: usize) -> i64 {
    (i % 10) as i64
}

/// A fresh reading for `sensor`.
pub fn reading(rng: &mut Rng, sensor: i64, rooms: usize) -> Reading {
    Reading {
        sensor,
        room: rng.below(rooms as u64) as usize,
        temp: 10.0 + rng.below(20_000) as f64 / 1000.0,
        rel: (500 + rng.below(9000)) as f64 / 10_000.0,
    }
}

/// `n` readings with sensors `0..n`.
pub fn readings(rng: &mut Rng, n: usize, rooms: usize) -> Vec<Reading> {
    (0..n as i64).map(|s| reading(rng, s, rooms)).collect()
}

/// Per-player transition weights `ft[player][init][final]`, each in
/// `{0.1, …, 0.9}`; `repair key player, init … weight by p` row-normalises.
pub fn transition_weights(rng: &mut Rng, players: usize) -> Vec<[[f64; STATES]; STATES]> {
    (0..players)
        .map(|_| {
            let mut m = [[0.0; STATES]; STATES];
            for w in m.iter_mut().flatten() {
                *w = (1 + rng.below(9)) as f64 / 10.0;
            }
            m
        })
        .collect()
}

/// An `f64` as a SQL literal that parses back to the same bits (`{:?}`
/// always prints a decimal point, so the lexer never reads an integer).
pub fn lit(x: f64) -> String {
    format!("{x:?}")
}

/// The `VALUES` tuple of one reading.
pub fn reading_values(r: &Reading) -> String {
    format!(
        "({}, '{}', {}, {})",
        r.sensor,
        room_name(r.room),
        lit(r.temp),
        lit(r.rel)
    )
}

/// `INSERT` statements of at most 1 000 rows each.
pub fn insert_batches(table: &str, rows: impl Iterator<Item = String>) -> Vec<String> {
    let rows: Vec<String> = rows.collect();
    rows.chunks(1000)
        .map(|c| format!("insert into {table} values {}", c.join(", ")))
        .collect()
}

/// DDL + ingest of `readings`.
pub fn readings_sql(rows: &[Reading]) -> Vec<String> {
    let mut sql = vec![
        "create table readings (sensor bigint, room text, temp double precision, rel double precision)"
            .to_string(),
    ];
    sql.extend(insert_batches("readings", rows.iter().map(reading_values)));
    sql
}

/// DDL + ingest of `rooms`.
pub fn rooms_sql(rooms: usize) -> Vec<String> {
    let mut sql = vec!["create table rooms (room text, floor bigint, kind text)".to_string()];
    sql.extend(insert_batches(
        "rooms",
        (0..rooms).map(|i| format!("('{}', {}, 'kind{}')", room_name(i), room_floor(i), i % 5)),
    ));
    sql
}

/// Bytes of user data in `rooms`.
pub fn rooms_bytes(rooms: usize) -> u64 {
    rooms as u64 * (7 + 8 + 5)
}

/// DDL + ingest of `ft (player, init, final, p)` and `start (player, state)`.
pub fn walk_sql(ft: &[[[f64; STATES]; STATES]], start: &[usize]) -> Vec<String> {
    let mut sql = vec![
        "create table ft (player bigint, init bigint, final bigint, p double precision)"
            .to_string(),
    ];
    let cells = ft.iter().enumerate().flat_map(|(player, m)| {
        (0..STATES * STATES).map(move |k| {
            format!(
                "({player}, {}, {}, {})",
                k / STATES,
                k % STATES,
                lit(m[k / STATES][k % STATES])
            )
        })
    });
    sql.extend(insert_batches("ft", cells));
    sql.push("create table start (player bigint, state bigint)".to_string());
    sql.extend(insert_batches(
        "start",
        start
            .iter()
            .enumerate()
            .map(|(player, s)| format!("({player}, {s})")),
    ));
    sql
}

/// Bytes of user data in `ft` + `start`.
pub fn walk_bytes(players: usize) -> u64 {
    (players * STATES * STATES * 32 + players * 16) as u64
}

/// Row-normalised transition matrix of one player.
pub fn normalised(w: &[[f64; STATES]; STATES]) -> [[f64; STATES]; STATES] {
    let mut m = *w;
    for row in m.iter_mut() {
        let total: f64 = row.iter().sum();
        for p in row.iter_mut() {
            *p /= total;
        }
    }
    m
}

/// Distribution after `steps` steps from `start`: `e_start · Mˢᵗᵉᵖˢ`.
pub fn walk(m: &[[f64; STATES]; STATES], start: usize, steps: usize) -> [f64; STATES] {
    let mut dist = [0.0; STATES];
    dist[start] = 1.0;
    for _ in 0..steps {
        let mut next = [0.0; STATES];
        for (from, p) in dist.iter().enumerate() {
            for (to, q) in m[from].iter().enumerate() {
                next[to] += p * q;
            }
        }
        dist = next;
    }
    dist
}
