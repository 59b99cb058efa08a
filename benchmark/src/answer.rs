//! Answers as the client sees them, the expected answers the generator
//! computes with plain loops, and the checker that compares the two.

use std::cmp::Ordering;

use maybms_core::{QueryOutput, StatementResult};
use maybms_engine::Value;

/// One value of a result row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// SQL NULL.
    Null,
    /// `bigint` (and booleans as 0/1).
    Int(i64),
    /// `text`.
    Text(String),
    /// `double precision`.
    Float(f64),
}

/// One result row.
pub type Row = Vec<Cell>;

/// What one statement must produce.
#[derive(Debug, Clone)]
pub enum Expect {
    /// These rows, in any order.
    Rows(Vec<Row>),
    /// These rows, in this order (`ORDER BY … LIMIT`).
    Ordered(Vec<Row>),
    /// `aconf(ε, δ)`: the exact rows; every float must be within `ε`
    /// relative of the exact value on at least `1 − 2δ` of the rows.
    Approx {
        /// Rows carrying the exact probabilities.
        rows: Vec<Row>,
        /// Relative error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
    },
    /// The acknowledgement of a DDL/DML statement (`INSERT 10`, …).
    Ack(String),
}

/// What one statement did produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A t-certain result.
    Rows(Vec<Row>),
    /// A DDL/DML acknowledgement.
    Ack(String),
    /// The statement failed, or returned something no client could use.
    Error(String),
}

impl Outcome {
    /// Convert the program's result into client-side cells.
    pub fn of<E: std::fmt::Display>(result: Result<StatementResult, E>) -> Outcome {
        match result {
            Ok(StatementResult::Query(QueryOutput::Certain(rel))) => Outcome::Rows(
                rel.tuples()
                    .iter()
                    .map(|t| t.values().iter().map(cell_of).collect())
                    .collect(),
            ),
            Ok(StatementResult::Query(QueryOutput::Uncertain(_))) => {
                Outcome::Error("query returned an uncertain relation".into())
            }
            Ok(StatementResult::Ok { message }) => Outcome::Ack(message),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

fn cell_of(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::Int(*b as i64),
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(*f),
        Value::Str(s) => Cell::Text(s.to_string()),
    }
}

/// Absolute 1e-9 below 1, relative 1e-9 above.
const FLOAT_TOL: f64 = 1e-9;

fn rank(c: &Cell) -> u8 {
    match c {
        Cell::Null => 0,
        Cell::Int(_) => 1,
        Cell::Text(_) => 2,
        Cell::Float(_) => 3,
    }
}

/// Total order that compares every exact cell before any float, so two
/// answers whose floats differ in the last bits still sort the same way.
fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    let exact = |x: &Cell, y: &Cell| match (x, y) {
        (Cell::Int(p), Cell::Int(q)) => p.cmp(q),
        (Cell::Text(p), Cell::Text(q)) => p.cmp(q),
        (Cell::Float(_), Cell::Float(_)) => Ordering::Equal,
        _ => rank(x).cmp(&rank(y)),
    };
    let floats = |x: &Cell, y: &Cell| match (x, y) {
        (Cell::Float(p), Cell::Float(q)) => p.total_cmp(q),
        _ => Ordering::Equal,
    };
    a.len()
        .cmp(&b.len())
        .then_with(|| {
            a.iter()
                .zip(b)
                .map(|(x, y)| exact(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
        .then_with(|| {
            a.iter()
                .zip(b)
                .map(|(x, y)| floats(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
}

fn sorted(rows: &[Row]) -> Vec<&Row> {
    let mut v: Vec<&Row> = rows.iter().collect();
    v.sort_by(|a, b| cmp_rows(a, b));
    v
}

/// Do two rows agree: exact cells equal, floats as `float_ok(expected, got)`
/// says?
fn row_matches(expected: &Row, got: &Row, float_ok: impl Fn(f64, f64) -> bool) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|(e, g)| match (e, g) {
            (Cell::Float(e), Cell::Float(g)) => float_ok(*e, *g),
            _ => e == g,
        })
}

fn close(e: f64, g: f64) -> bool {
    (e - g).abs() <= FLOAT_TOL * e.abs().max(1.0)
}

/// The checker: did the statement produce what the generator expected?
pub fn check(expect: &Expect, got: &Outcome) -> bool {
    match (expect, got) {
        (Expect::Ack(e), Outcome::Ack(g)) => e == g,
        (Expect::Ordered(e), Outcome::Rows(g)) => {
            e.len() == g.len() && e.iter().zip(g).all(|(e, g)| row_matches(e, g, close))
        }
        (Expect::Rows(e), Outcome::Rows(g)) => {
            e.len() == g.len()
                && sorted(e)
                    .into_iter()
                    .zip(sorted(g))
                    .all(|(e, g)| row_matches(e, g, close))
        }
        (
            Expect::Approx {
                rows,
                epsilon,
                delta,
            },
            Outcome::Rows(g),
        ) => {
            if rows.len() != g.len() {
                return false;
            }
            let (mut keys_ok, mut within) = (true, 0usize);
            for (e, g) in sorted(rows).into_iter().zip(sorted(g)) {
                keys_ok &= row_matches(e, g, |_, _| true);
                within += row_matches(e, g, |e, g| (e - g).abs() <= epsilon * e.abs()) as usize;
            }
            keys_ok && within as f64 >= (1.0 - 2.0 * delta) * rows.len() as f64
        }
        _ => false,
    }
}

/// FNV-1a over every answer in the order the statements ran: equal digests
/// mean equal answers, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one answer in. Unordered results are sorted first, so the digest
    /// does not depend on the order a hash table happened to emit groups.
    pub fn add(&mut self, expect: &Expect, got: &Outcome) {
        match got {
            Outcome::Ack(m) => self.bytes(m.as_bytes()),
            Outcome::Error(m) => self.bytes(m.as_bytes()),
            Outcome::Rows(rows) => {
                let ordered: Vec<&Row> = match expect {
                    Expect::Ordered(_) => rows.iter().collect(),
                    _ => sorted(rows),
                };
                for cell in ordered.into_iter().flatten() {
                    self.bytes(&[rank(cell)]);
                    match cell {
                        Cell::Null => {}
                        Cell::Int(i) => self.bytes(&i.to_le_bytes()),
                        Cell::Text(s) => self.bytes(s.as_bytes()),
                        Cell::Float(f) => self.bytes(&f.to_bits().to_le_bytes()),
                    }
                }
            }
        }
        self.bytes(&[0xff]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, p: f64) -> Row {
        vec![Cell::Int(k), Cell::Float(p)]
    }

    #[test]
    fn unordered_rows_match_in_any_order_within_tolerance() {
        let e = Expect::Rows(vec![row(1, 0.25), row(2, 0.75)]);
        assert!(check(
            &e,
            &Outcome::Rows(vec![row(2, 0.75 + 1e-12), row(1, 0.25)])
        ));
        assert!(!check(
            &e,
            &Outcome::Rows(vec![row(2, 0.75 + 1e-6), row(1, 0.25)])
        ));
        assert!(!check(&e, &Outcome::Rows(vec![row(1, 0.25)])));
        assert!(!check(&e, &Outcome::Rows(vec![row(3, 0.75), row(1, 0.25)])));
        assert!(!check(&e, &Outcome::Error("boom".into())));
    }

    #[test]
    fn ordered_rows_must_keep_their_order() {
        let e = Expect::Ordered(vec![row(2, 9.0), row(1, 8.0)]);
        assert!(check(&e, &Outcome::Rows(vec![row(2, 9.0), row(1, 8.0)])));
        assert!(!check(&e, &Outcome::Rows(vec![row(1, 8.0), row(2, 9.0)])));
    }

    #[test]
    fn approx_allows_two_delta_of_the_groups_outside_epsilon() {
        let exact: Vec<Row> = (0..20).map(|k| row(k, 0.5)).collect();
        let e = Expect::Approx {
            rows: exact.clone(),
            epsilon: 0.1,
            delta: 0.05,
        };
        let mut got = exact.clone();
        got[3] = row(3, 0.54);
        got[7] = row(7, 0.7); // outside ε: 2 of 20 = 2δ may be
        got[8] = row(8, 0.3);
        assert!(check(&e, &Outcome::Rows(got.clone())));
        got[9] = row(9, 0.7); // a third one may not
        assert!(!check(&e, &Outcome::Rows(got)));
    }

    #[test]
    fn acknowledgements_compare_as_text() {
        assert!(check(
            &Expect::Ack("INSERT 10".into()),
            &Outcome::Ack("INSERT 10".into())
        ));
        assert!(!check(
            &Expect::Ack("INSERT 10".into()),
            &Outcome::Ack("INSERT 9".into())
        ));
    }

    #[test]
    fn digest_ignores_group_order_but_not_values() {
        let e = Expect::Rows(vec![]);
        let (mut a, mut b, mut c) = (Digest::default(), Digest::default(), Digest::default());
        a.add(&e, &Outcome::Rows(vec![row(1, 0.25), row(2, 0.75)]));
        b.add(&e, &Outcome::Rows(vec![row(2, 0.75), row(1, 0.25)]));
        c.add(&e, &Outcome::Rows(vec![row(2, 0.75), row(1, 0.26)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
