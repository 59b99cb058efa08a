//! Vertical decomposition for attribute-level uncertainty (§2.1):
//! "Attribute-level uncertainty is achieved through vertical
//! decompositions, and an additional (system) column is used for storing
//! tuple ids and undoing the vertical decomposition on demand."
//!
//! [`decompose`] splits a U-relation into column groups, each carrying the
//! system tuple-id column `_tid`; each piece can then be conditioned on its
//! own variables (different attributes of one logical tuple may vary
//! independently). [`recompose`] joins the pieces back on `_tid` — one
//! fused [`UStream`] chain of hash probes, conjoining their conditions.
//!
//! Decomposition is a selection of columns: every piece is the tuple-id
//! column plus copies of the input's columns for its group, under the
//! input's conditions — no row is built.

use std::sync::Arc;

use maybms_engine::column::{Column, ColumnBatch, NullMask};
use maybms_engine::ops::ProjectItem;
use maybms_engine::{DataType, Expr, Field, Schema};
use maybms_urel::{Result, URelation, UrelError};

use crate::UStream;

/// Name of the system tuple-id column.
pub const TID_COLUMN: &str = "_tid";

/// Split `input` into one piece per column group. Each piece's schema is
/// `(_tid, group columns…)`; every piece row keeps the original tuple's
/// WSD. Column indices must be in range; groups may overlap (e.g. a shared
/// key column) but must not be empty.
pub fn decompose(input: &URelation, groups: &[Vec<usize>]) -> Result<Vec<URelation>> {
    if groups.is_empty() {
        return Err(UrelError::BadDecomposition {
            message: "no column groups given".into(),
        });
    }
    let arity = input.schema().len();
    for g in groups {
        if g.is_empty() {
            return Err(UrelError::BadDecomposition {
                message: "empty column group".into(),
            });
        }
        for &c in g {
            if c >= arity {
                return Err(UrelError::BadDecomposition {
                    message: format!("column #{c} out of range (arity {arity})"),
                });
            }
        }
    }
    // Each piece is the system tid column plus the group's columns
    // (cloned — groups may overlap).
    let (batch, wsds) = input.at_rest();
    let n = input.len();
    let tid = Column::from_ints((0..n as i64).collect(), NullMask::none());
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        let mut fields = vec![Field::new(TID_COLUMN, DataType::Int)];
        let mut cols = vec![tid.clone()];
        for &c in g {
            fields.push(input.schema().field(c).clone());
            cols.push(batch.column(c).clone());
        }
        let schema = Arc::new(Schema::new(fields));
        let piece = ColumnBatch::from_columns(cols, n);
        out.push(URelation::from_batch(schema, piece, wsds.to_vec()));
    }
    Ok(out)
}

/// Undo a vertical decomposition: join all pieces on `_tid` (conjoining
/// WSDs) and drop the tuple-id column. Pieces must each have `_tid` as
/// their first column.
pub fn recompose(pieces: &[URelation]) -> Result<URelation> {
    let Some((first, rest)) = pieces.split_first() else {
        return Err(UrelError::BadDecomposition {
            message: "no pieces".into(),
        });
    };
    for p in pieces {
        let ok = p
            .schema()
            .fields()
            .first()
            .is_some_and(|f| f.name.eq_ignore_ascii_case(TID_COLUMN));
        if !ok {
            return Err(UrelError::BadDecomposition {
                message: format!("piece schema {} lacks leading {TID_COLUMN}", p.schema()),
            });
        }
    }
    // Probe every later piece on the first piece's `_tid` (column 0 of
    // the joined row throughout), then project the tuple ids away once.
    let mut joined = UStream::new(first.clone());
    let mut keep: Vec<usize> = (1..first.schema().len()).collect();
    for p in rest {
        let width = joined.schema().len();
        joined = joined.hash_join(p.clone(), &[0], &[0])?;
        keep.extend(width + 1..joined.schema().len());
    }
    let schema = joined.schema().clone();
    let items: Vec<ProjectItem> = keep
        .iter()
        .map(|&i| ProjectItem::new(Expr::ColumnIdx(i), schema.field(i).name.clone()))
        .collect();
    let fields: Vec<Field> = keep.iter().map(|&i| schema.field(i).clone()).collect();
    joined
        .project(&items)?
        .with_schema(Arc::new(Schema::new(fields)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{DataType, Value};
    use maybms_urel::rel;
    use maybms_urel::{UTuple, WorldTable, Wsd};

    fn sample() -> URelation {
        rel(
            &[
                ("player", DataType::Text),
                ("team", DataType::Text),
                ("pts", DataType::Int),
            ],
            vec![
                vec!["Bryant".into(), "LAL".into(), 81.into()],
                vec!["Duncan".into(), "SAS".into(), 25.into()],
            ],
        )
    }

    #[test]
    fn decompose_then_recompose_is_identity_on_data() {
        let u = sample();
        let pieces = decompose(&u, &[vec![0], vec![1, 2]]).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].schema().names(), vec![TID_COLUMN, "player"]);
        let back = recompose(&pieces).unwrap();
        assert_eq!(back.schema().names(), vec!["player", "team", "pts"]);
        let a: Vec<_> = u.tuples().iter().map(|t| t.data.clone()).collect();
        let mut b: Vec<_> = back.tuples().iter().map(|t| t.data.clone()).collect();
        b.sort();
        let mut a = a;
        a.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn attribute_level_uncertainty_via_independent_pieces() {
        // Make the pts attribute of tuple 0 uncertain independently of the
        // team attribute: condition different pieces on different vars.
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap(); // team variant
        let y = wt.new_var(&[0.9, 0.1]).unwrap(); // pts variant
        let u = sample();
        let mut pieces = decompose(&u, &[vec![0], vec![1], vec![2]]).unwrap();
        // Piece `k`'s tuple 0 under `var ↦ 0`, plus an alternative value
        // for it under `var ↦ 1`.
        let alternative = |k: usize, var, value: Value| {
            let mut rows = pieces[k].tuples();
            rows[0].wsd = Wsd::of(var, 0);
            let alt = Tuple::new(vec![Value::Int(0), value]);
            rows.push(UTuple::new(alt, Wsd::of(var, 1)));
            URelation::new(pieces[k].schema().clone(), rows).unwrap()
        };
        // Two alternative teams and two alternative pts for tuple 0.
        let (team, pts) = (
            alternative(1, x, "MIA".into()),
            alternative(2, y, Value::Int(50)),
        );
        (pieces[1], pieces[2]) = (team, pts);

        let back = recompose(&pieces).unwrap();
        // Tuple 0 now has 4 variants (2 teams × 2 pts), tuple 1 has 1.
        assert_eq!(back.len(), 5);
        // All four combinations for Bryant must exist and be satisfiable.
        let bryant: Vec<_> = back
            .tuples()
            .into_iter()
            .filter(|t| t.data.value(0) == &Value::str("Bryant"))
            .collect();
        assert_eq!(bryant.len(), 4);
        let mass: f64 = bryant.iter().map(|t| t.wsd.prob(&wt).unwrap()).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decompose_rejects_bad_input() {
        let u = sample();
        assert!(decompose(&u, &[]).is_err());
        assert!(decompose(&u, &[vec![]]).is_err());
        assert!(decompose(&u, &[vec![9]]).is_err());
    }

    #[test]
    fn recompose_rejects_pieces_without_tid() {
        let u = sample();
        assert!(matches!(
            recompose(&[u]),
            Err(UrelError::BadDecomposition { .. })
        ));
    }

    use maybms_engine::Tuple;
}
