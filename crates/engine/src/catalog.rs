//! In-memory table catalog.
//!
//! The original MayBMS extends PostgreSQL's system catalog so it "can
//! distinguish between U-relations and standard relational tables" (§2.4).
//! This engine-level catalog stores plain relations under case-insensitive
//! names; `maybms-core` layers the U-relation/t-certain distinction on top.

use std::collections::BTreeMap;

use crate::error::{EngineError, Result};
use crate::tuple::Relation;

/// A named collection of materialised relations.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Relation>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Register a table; errors if the name is taken. Installs the
    /// at-rest (columnar) representation — the *one* pivot a stored
    /// table pays.
    pub fn create(&mut self, name: &str, relation: Relation) -> Result<()> {
        let k = Self::key(name);
        if self.tables.contains_key(&k) {
            return Err(EngineError::TableExists { name: name.to_string() });
        }
        self.tables.insert(k, relation.compact());
        Ok(())
    }

    /// Replace or register a table (compacted like [`Catalog::create`]).
    pub fn create_or_replace(&mut self, name: &str, relation: Relation) {
        self.tables.insert(Self::key(name), relation.compact());
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| EngineError::TableNotFound { name: name.to_string() })
    }

    /// Mutable lookup (for updates).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| EngineError::TableNotFound { name: name.to_string() })
    }

    /// Remove a table, returning it.
    pub fn drop_table(&mut self, name: &str) -> Result<Relation> {
        self.tables
            .remove(&Self::key(name))
            .ok_or_else(|| EngineError::TableNotFound { name: name.to_string() })
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// All table names (lower-cased), sorted.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::rel;
    use crate::types::DataType;

    fn t() -> Relation {
        rel(&[("x", DataType::Int)], vec![vec![1.into()]])
    }

    #[test]
    fn create_get_drop_roundtrip() {
        let mut c = Catalog::new();
        c.create("FT", t()).unwrap();
        assert!(c.contains("ft"));
        assert_eq!(c.get("Ft").unwrap().len(), 1);
        c.drop_table("fT").unwrap();
        assert!(!c.contains("ft"));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut c = Catalog::new();
        c.create("t", t()).unwrap();
        assert!(matches!(c.create("T", t()), Err(EngineError::TableExists { .. })));
    }

    #[test]
    fn create_or_replace_overwrites() {
        let mut c = Catalog::new();
        c.create("t", t()).unwrap();
        c.create_or_replace("t", rel(&[("x", DataType::Int)], vec![]));
        assert_eq!(c.get("t").unwrap().len(), 0);
    }

    #[test]
    fn missing_table_error() {
        let c = Catalog::new();
        assert!(matches!(c.get("nope"), Err(EngineError::TableNotFound { .. })));
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create("b", t()).unwrap();
        c.create("A", t()).unwrap();
        assert_eq!(c.names(), vec!["a", "b"]);
    }
}
