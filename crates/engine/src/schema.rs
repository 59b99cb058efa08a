//! Relation schemas: named, typed, optionally qualified columns.

use std::fmt;
use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::types::DataType;

/// A single column: optional relation qualifier, name, and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The relation alias this column belongs to, when known
    /// (e.g. `r1` in `r1.player`).
    pub qualifier: Option<String>,
    /// Column name (case-preserved; resolution is case-insensitive).
    pub name: String,
    /// Static column type.
    pub dtype: DataType,
}

impl Field {
    /// Unqualified field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field {
            qualifier: None,
            name: name.into(),
            dtype,
        }
    }

    /// Qualified field.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        dtype: DataType,
    ) -> Field {
        Field {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            dtype,
        }
    }

    /// Fully-qualified display name.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether `name` (and `qualifier`, when supplied) refer to this field.
    /// Matching is ASCII-case-insensitive, as in SQL identifiers.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|fq| fq.eq_ignore_ascii_case(q)),
        }
    }
}

/// An ordered list of fields describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Schema {
        Schema {
            fields: pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
        }
    }

    /// Empty schema (zero columns).
    pub fn empty() -> Arc<Schema> {
        Arc::new(Schema { fields: Vec::new() })
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// Errors on no match ([`EngineError::ColumnNotFound`]) and on multiple
    /// matches ([`EngineError::AmbiguousColumn`]).
    pub fn index_of(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(qualifier, name) {
                if found.is_some() {
                    let shown = match qualifier {
                        Some(q) => format!("{q}.{name}"),
                        None => name.to_string(),
                    };
                    return Err(EngineError::AmbiguousColumn { name: shown });
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| EngineError::ColumnNotFound {
            name: match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            },
            available: self.fields.iter().map(Field::qualified_name).collect(),
        })
    }

    /// Schema of `self × other` (concatenated columns).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// A copy of this schema where every field is re-qualified with `alias`
    /// (used when a FROM item gets an alias: `FT r1` renames all columns to
    /// `r1.*`).
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field::qualified(alias, f.name.clone(), f.dtype))
                .collect(),
        }
    }

    /// A copy of this schema with all qualifiers removed.
    pub fn without_qualifiers(&self) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field::new(f.name.clone(), f.dtype))
                .collect(),
        }
    }

    /// Column names, in order (unqualified).
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.qualified_name(), field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Text),
            ("c", DataType::Float),
        ])
    }

    #[test]
    fn index_of_unqualified() {
        let s = abc();
        assert_eq!(s.index_of(None, "b").unwrap(), 1);
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = abc();
        assert_eq!(s.index_of(None, "B").unwrap(), 1);
        assert_eq!(s.index_of(None, "C").unwrap(), 2);
    }

    #[test]
    fn index_of_missing_column_reports_available() {
        let s = abc();
        match s.index_of(None, "zz") {
            Err(EngineError::ColumnNotFound { available, .. }) => {
                assert_eq!(available, vec!["a", "b", "c"]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn qualified_resolution() {
        let s = abc().with_qualifier("r1").join(&abc().with_qualifier("r2"));
        assert_eq!(s.index_of(Some("r2"), "a").unwrap(), 3);
        assert_eq!(s.index_of(Some("R1"), "c").unwrap(), 2);
    }

    #[test]
    fn unqualified_ref_over_duplicate_names_is_ambiguous() {
        let s = abc().with_qualifier("r1").join(&abc().with_qualifier("r2"));
        assert!(matches!(
            s.index_of(None, "a"),
            Err(EngineError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn qualifier_mismatch_not_found() {
        let s = abc().with_qualifier("r1");
        assert!(matches!(
            s.index_of(Some("r9"), "a"),
            Err(EngineError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn join_concatenates() {
        let s = abc().join(&Schema::from_pairs(&[("d", DataType::Bool)]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.field(3).name, "d");
    }

    #[test]
    fn with_qualifier_then_without_roundtrips_names() {
        let s = abc().with_qualifier("x").without_qualifiers();
        assert_eq!(s, abc());
    }

    #[test]
    fn display_shows_types() {
        let s = Schema::from_pairs(&[("p", DataType::Float)]);
        assert_eq!(s.to_string(), "(p: double precision)");
    }
}
