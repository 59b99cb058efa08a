//! Checkpointed catalog snapshots.
//!
//! A snapshot is the whole durable state — world table, every stored
//! U-relation, and the WAL position it covers — in one file, written
//! atomically: serialize to `snapshot.tmp`, fsync, rename over
//! `snapshot`, fsync the directory. A reader therefore sees either the
//! old snapshot or the new one, never a torn mix, and the WAL can be
//! truncated once the rename lands (records with `lsn < base_lsn` that
//! survive a crash between rename and truncate are skipped on replay).
//!
//! Unlike the WAL — whose tail is *expected* to tear in a crash — a
//! snapshot that fails validation was damaged at rest, so corruption
//! here is an error with the offset, not a silent fallback.

use std::collections::BTreeMap;

use maybms_urel::{URelation, WorldTable};

use crate::codec::{self, Reader, Writer};
use crate::error::{check_magic, Result, StoreError};
use crate::vfs::Vfs;

/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot";

/// Scratch name the snapshot is staged under before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Magic bytes heading every snapshot file (version byte last). Tables
/// are encoded by [`codec::put_urelation_any`]. A file with another
/// version is refused, not read.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MAYBSNP\x03";

/// The catalog of stored tables, keyed by lowercased name.
pub type Catalog = BTreeMap<String, URelation>;

/// A loaded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// WAL records with `lsn < base_lsn` are already folded in.
    pub base_lsn: u64,
    /// The world table at checkpoint time.
    pub wt: WorldTable,
    /// The stored tables at checkpoint time.
    pub tables: Catalog,
}

/// Serialize the full catalog state into a framed snapshot file image.
/// The payload is encoded in place behind the header, whose length and
/// checksum are filled in once it is complete.
pub fn encode(base_lsn: u64, tables: &Catalog, wt: &WorldTable) -> Vec<u8> {
    let hdr = SNAPSHOT_MAGIC.len();
    let mut w = Writer::new();
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u64(0); // [len] [crc], filled in below
    w.put_u64(base_lsn);
    codec::put_world_table(&mut w, wt);
    w.put_u32(tables.len() as u32);
    for (name, table) in tables {
        w.put_str(name);
        codec::put_urelation_any(&mut w, table);
    }
    let mut out = w.finish();
    let (head, payload) = out.split_at_mut(hdr + 8);
    head[hdr..hdr + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[hdr + 4..].copy_from_slice(&codec::crc32(payload).to_le_bytes());
    out
}

/// Decode a snapshot file image.
pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err(StoreError::corrupt(
            SNAPSHOT_FILE,
            0,
            format!(
                "file too short ({} bytes) for a snapshot header",
                bytes.len()
            ),
        ));
    }
    check_magic(
        SNAPSHOT_FILE,
        &bytes[..SNAPSHOT_MAGIC.len()],
        SNAPSHOT_MAGIC,
    )?;
    let hdr = SNAPSHOT_MAGIC.len();
    let len = u32::from_le_bytes(bytes[hdr..hdr + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[hdr + 4..hdr + 8].try_into().expect("4 bytes"));
    let body = &bytes[hdr + 8..];
    if body.len() != len {
        return Err(StoreError::corrupt(
            SNAPSHOT_FILE,
            (hdr + 8) as u64,
            format!("payload length {} does not match header {len}", body.len()),
        ));
    }
    if codec::crc32(body) != crc {
        return Err(StoreError::corrupt(
            SNAPSHOT_FILE,
            (hdr + 8) as u64,
            "snapshot checksum mismatch",
        ));
    }
    let base = (hdr + 8) as u64;
    let mut r = Reader::new(body);
    let mk_err =
        |e: codec::CodecError| StoreError::corrupt(SNAPSHOT_FILE, base + e.offset, e.reason);
    let base_lsn = r.u64().map_err(mk_err)?;
    let wt = codec::get_world_table(&mut r).map_err(mk_err)?;
    let ntables = r.u32().map_err(mk_err)? as usize;
    let mut tables = Catalog::new();
    for _ in 0..ntables {
        let name = r.str().map_err(mk_err)?;
        tables.insert(name, codec::get_urelation_any(&mut r).map_err(mk_err)?);
    }
    if !r.is_exhausted() {
        return Err(StoreError::corrupt(
            SNAPSHOT_FILE,
            base + r.offset(),
            "trailing bytes after snapshot payload",
        ));
    }
    Ok(Snapshot {
        base_lsn,
        wt,
        tables,
    })
}

/// Write a snapshot atomically: stage under [`SNAPSHOT_TMP`], fsync,
/// rename over [`SNAPSHOT_FILE`].
pub fn write(vfs: &dyn Vfs, base_lsn: u64, tables: &Catalog, wt: &WorldTable) -> Result<()> {
    let image = encode(base_lsn, tables, wt);
    let mut f = vfs.create(SNAPSHOT_TMP)?;
    f.append(&image)?;
    f.sync()?;
    drop(f);
    vfs.rename(SNAPSHOT_TMP, SNAPSHOT_FILE)
}

/// Load the snapshot, if one exists. `Ok(None)` on a fresh directory.
pub fn load(vfs: &dyn Vfs) -> Result<Option<Snapshot>> {
    if !vfs.exists(SNAPSHOT_FILE)? {
        return Ok(None);
    }
    let bytes = vfs.read(SNAPSHOT_FILE)?;
    decode(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use maybms_engine::DataType;
    use maybms_urel::rel;
    use maybms_urel::{Var, Wsd};

    fn sample_state() -> (Catalog, WorldTable) {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        wt.new_var(&[0.5, 0.5]).unwrap();
        let base = rel(
            &[("player", DataType::Text), ("pts", DataType::Int)],
            vec![
                vec!["Bryant".into(), 40.into()],
                vec!["Duncan".into(), 25.into()],
            ],
        );
        let u = base.gather_with(&[0, 1], vec![Wsd::of(x, 1), Wsd::tautology()]);
        let mut tables = Catalog::new();
        tables.insert("games".into(), u);
        (tables, wt)
    }

    /// A catalog at size: one table with a column of every layout over
    /// 4 096 rows (NULLs at rows 0, 63, 64 and the last), WSDs of 0, 1, 2
    /// and 5 assignments, and a 70 000-variable world table.
    fn state_at_size() -> (Catalog, WorldTable) {
        use std::sync::Arc;

        use maybms_engine::{Column, ColumnBatch, Field, NullMask, Schema, StrDict, Value};
        use maybms_urel::Assignment;
        const ROWS: usize = 4096;
        const VARS: u32 = 70_000;
        let mut wt = WorldTable::new();
        for v in 0..VARS {
            let dist: &[f64] = match v % 3 {
                0 => &[1.0],
                1 => &[0.25, 0.75],
                _ => &[0.5, 0.125, 0.375],
            };
            wt.new_var(dist).unwrap();
        }
        let mut nulls = NullMask::none();
        for i in [0, 63, 64, ROWS - 1] {
            nulls.set_null(i);
        }
        let mut dict = StrDict::new();
        for k in 0..10 {
            dict.intern(&Arc::from(format!("d{k}")));
        }
        let n = ROWS as i64;
        let columns = vec![
            Column::from_ints((0..n).map(|i| i * 7919 - n).collect(), nulls.clone()),
            Column::from_floats((0..n).map(|i| i as f64 / 3.0).collect(), nulls.clone()),
            Column::from_bools((0..n).map(|i| i % 3 == 0).collect(), nulls.clone()),
            Column::from_strs(
                (0..n).map(|i| Arc::from(format!("s{i}"))).collect(),
                nulls.clone(),
            ),
            Column::from_dict(
                (0..ROWS as u32).map(|i| i % 10).collect(),
                Arc::new(dict),
                nulls,
            ),
            Column::from_raw_values(
                (0..n)
                    .map(|i| match i % 4 {
                        0 => Value::Null,
                        1 => Value::Int(i),
                        2 => Value::str("v"),
                        _ => Value::Float(-0.0),
                    })
                    .collect(),
            ),
            Column::from_const(Value::Int(3), ROWS),
        ];
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Text),
            Field::new("d", DataType::Text),
            Field::new("m", DataType::Unknown),
            Field::new("c", DataType::Int),
        ]);
        let wsds = (0..ROWS as u32)
            .map(|i| {
                let width = [0, 1, 2, 5][i as usize % 4];
                let vars = (0..width).map(|k| Var((i * 13 + k * 9_001) % VARS));
                Wsd::from_assignments(vars.map(|v| Assignment::new(v, 0)).collect()).unwrap()
            })
            .collect();
        let big = URelation::from_batch(
            Arc::new(schema),
            ColumnBatch::from_columns(columns, ROWS),
            wsds,
        );
        let (mut tables, _) = sample_state();
        tables.insert("big".into(), big);
        (tables, wt)
    }

    #[test]
    fn catalog_at_size_roundtrips_representation_exact() {
        let (tables, wt) = state_at_size();
        let image = encode(9, &tables, &wt);
        let snap = decode(&image).unwrap();
        assert_eq!(snap.base_lsn, 9);
        assert_eq!(snap.tables, tables);
        for (name, table) in &tables {
            assert_eq!(snap.tables[name].at_rest(), table.at_rest(), "{name}");
        }
        assert_eq!(snap.wt.num_vars(), 70_000);
        assert!(snap.wt.distributions().eq(wt.distributions()));
        assert_eq!(encode(9, &snap.tables, &snap.wt), image);
    }

    #[test]
    fn roundtrip() {
        let (tables, wt) = sample_state();
        let vfs = MemVfs::new();
        write(&vfs, 42, &tables, &wt).unwrap();
        let snap = load(&vfs).unwrap().unwrap();
        assert_eq!(snap.base_lsn, 42);
        assert_eq!(snap.tables, tables);
        assert_eq!(snap.wt.num_vars(), 2);
        assert_eq!(snap.wt.distribution(Var(0)).unwrap(), &[0.8, 0.2]);
    }

    #[test]
    fn dict_encoded_table_roundtrips_its_encoding() {
        let (mut tables, wt) = sample_state();
        let encoded = tables["games"].dict_encode();
        tables.insert("games".into(), encoded);
        let vfs = MemVfs::new();
        write(&vfs, 3, &tables, &wt).unwrap();
        let snap = load(&vfs).unwrap().unwrap();
        assert_eq!(snap.tables, tables);
        // Representation survives: the columns come back as stored.
        assert_eq!(
            snap.tables["games"].at_rest().0,
            tables["games"].at_rest().0
        );
    }

    #[test]
    fn missing_snapshot_is_none() {
        let vfs = MemVfs::new();
        assert!(load(&vfs).unwrap().is_none());
    }

    #[test]
    fn bit_flip_is_reported_with_offset() {
        let (tables, wt) = sample_state();
        let mut image = encode(7, &tables, &wt);
        let mid = image.len() / 2;
        image[mid] ^= 0x40;
        match decode(&image) {
            Err(StoreError::Corrupt { path, .. }) => assert_eq!(path, SNAPSHOT_FILE),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn invalid_distribution_is_corrupt_at_its_offset() {
        let (tables, wt) = sample_state();
        let mut image = encode(7, &tables, &wt);
        // Payload: base LSN, variable count, x0's length, then x0's
        // probabilities. Make them sum to 1.1 and re-seal the checksum.
        let hdr = SNAPSHOT_MAGIC.len() + 8;
        let x0 = hdr + 8 + 4 + 4;
        image[x0..x0 + 8].copy_from_slice(&0.9f64.to_bits().to_le_bytes());
        let crc = codec::crc32(&image[hdr..]);
        image[hdr - 4..hdr].copy_from_slice(&crc.to_le_bytes());
        match decode(&image) {
            Err(StoreError::Corrupt { offset, reason, .. }) => {
                assert_eq!(offset, x0 as u64, "{reason}");
                assert!(reason.contains("variable x0"), "{reason}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_panic() {
        let (tables, wt) = sample_state();
        let image = encode(7, &tables, &wt);
        for cut in 0..image.len() {
            assert!(decode(&image[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn write_is_atomic_under_crash() {
        let (tables, wt) = sample_state();
        let vfs = MemVfs::new();
        write(&vfs, 1, &tables, &wt).unwrap();
        // Stage a second snapshot but crash before its rename: create
        // the tmp file with half an image, never synced.
        let image = encode(2, &tables, &wt);
        let mut f = vfs.create(SNAPSHOT_TMP).unwrap();
        f.append(&image[..image.len() / 2]).unwrap();
        drop(f);
        vfs.crash();
        let snap = load(&vfs).unwrap().unwrap();
        assert_eq!(snap.base_lsn, 1); // old snapshot intact
        assert!(!vfs.exists(SNAPSHOT_TMP).unwrap()); // tmp died with the crash
    }
}
