//! The write-ahead log: length-prefixed, CRC32-checksummed records.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "MAYBWAL\x03"]
//! repeat: [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! Each payload is one [`WalRecord`]: an LSN, the world-table extension
//! the logged operation depends on (so a single record is atomic — the
//! new random variables and the table rows referencing them commit
//! together), and the [`Op`] itself.
//!
//! Replay semantics ([`scan`]): records are applied in file order. A
//! record whose frame is incomplete or whose CRC does not match is a
//! *torn tail* — the crash interrupted the append — and replay stops
//! cleanly there, reporting the valid prefix length so the caller can
//! truncate it away. A record whose CRC matches but whose payload does
//! not decode is genuine corruption (bit rot, hand editing) and is an
//! error carrying the file offset.

use maybms_engine::ColumnBatch;
use maybms_urel::URelation;

use crate::codec::{self, Reader, Writer};
use crate::error::{check_magic, Result, StoreError};

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal";

/// Magic bytes heading every WAL file (version byte last). A file with
/// another version is refused, not read.
pub const WAL_MAGIC: &[u8; 8] = b"MAYBWAL\x03";

/// A logged catalog mutation: the *physical result* of a statement
/// (per §2.3, updates are just modifications of the representation
/// tables, so results — including `repair key` / `pick tuples` output —
/// log as plain rows). Every body that carries cells carries them as
/// columns, in the one cell codec a stored table image uses
/// ([`codec::put_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `CREATE TABLE`: an empty table with the given schema.
    CreateTable {
        /// Catalog key (lowercased).
        name: String,
        /// Column schema.
        schema: maybms_engine::Schema,
    },
    /// Store a full table image (`CREATE TABLE AS`, programmatic
    /// registration), as it is installed. The rows may carry WSDs.
    PutTable {
        /// Catalog key (lowercased).
        name: String,
        /// The stored U-relation.
        table: URelation,
    },
    /// `INSERT`: certain rows appended to an existing table, one column
    /// per table column.
    InsertRows {
        /// Catalog key (lowercased).
        table: String,
        /// The appended rows.
        rows: ColumnBatch,
    },
    /// `UPDATE`: the post-image of the changed cells only — row `j` of
    /// `cells`' column `k` lands at row `positions[j]`, column
    /// `columns[k]` — and conditions are untouched.
    UpdateRows {
        /// Catalog key (lowercased).
        table: String,
        /// Row positions in the table, strictly increasing.
        positions: Vec<u32>,
        /// The assigned columns (schema indices), in `SET` order.
        columns: Vec<u32>,
        /// One row per position, one column per assigned column.
        cells: ColumnBatch,
    },
    /// `DELETE`: the positions of the removed rows.
    DeleteRows {
        /// Catalog key (lowercased).
        table: String,
        /// Row positions in the table, strictly increasing.
        positions: Vec<u32>,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Catalog key (lowercased).
        name: String,
    },
}

/// New random variables the operation's rows may reference:
/// `(first_var_id, distributions)` — the world table is extended with
/// `distributions[i]` at id `first_var_id + i` before the op applies.
pub type WorldExt = Option<(u32, Vec<Vec<f64>>)>;

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number (monotonic; snapshots store the next LSN so
    /// records already folded into a snapshot are skipped on replay).
    pub lsn: u64,
    /// World-table extension committed atomically with the op.
    pub world_ext: WorldExt,
    /// The mutation.
    pub op: Op,
}

fn put_u32s(w: &mut Writer, xs: &[u32]) {
    w.put_u32(xs.len() as u32);
    w.put_u32s(xs);
}

fn get_u32s(r: &mut Reader<'_>, what: &str) -> codec::DecodeResult<Vec<u32>> {
    let n = r.count(what)?;
    r.u32s(n)
}

fn put_record(w: &mut Writer, lsn: u64, world_ext: &WorldExt, op: &Op) {
    w.put_u64(lsn);
    match world_ext {
        None => w.put_u8(0),
        Some((first, dists)) => {
            w.put_u8(1);
            w.put_u32(*first);
            codec::put_dists(w, dists);
        }
    }
    match op {
        Op::CreateTable { name, schema } => {
            w.put_u8(0);
            w.put_str(name);
            codec::put_schema(w, schema);
        }
        Op::PutTable { name, table } => {
            // The columnar image, dictionaries included, so the table
            // replays without a re-pivot.
            w.put_u8(5);
            w.put_str(name);
            codec::put_urelation_any(w, table);
        }
        Op::InsertRows { table, rows } => {
            w.put_u8(2);
            w.put_str(table);
            codec::put_batch(w, rows);
        }
        Op::DropTable { name } => {
            w.put_u8(4);
            w.put_str(name);
        }
        Op::UpdateRows {
            table,
            positions,
            columns,
            cells,
        } => {
            w.put_u8(6);
            w.put_str(table);
            put_u32s(w, positions);
            put_u32s(w, columns);
            codec::put_batch(w, cells);
        }
        Op::DeleteRows { table, positions } => {
            w.put_u8(7);
            w.put_str(table);
            put_u32s(w, positions);
        }
    }
}

/// Decode a record payload.
pub fn decode_record(payload: &[u8]) -> codec::DecodeResult<WalRecord> {
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let world_ext = match r.u8()? {
        0 => None,
        1 => {
            let first = r.u32()?;
            let dists = codec::get_dists(&mut r)?;
            Some((first, dists))
        }
        t => {
            return Err(codec::CodecError {
                offset: r.offset(),
                reason: format!("unknown world-ext tag {t}"),
            })
        }
    };
    let op = match r.u8()? {
        0 => Op::CreateTable {
            name: r.str()?,
            schema: codec::get_schema(&mut r)?,
        },
        2 => Op::InsertRows {
            table: r.str()?,
            rows: codec::get_batch(&mut r, None)?,
        },
        4 => Op::DropTable { name: r.str()? },
        5 => Op::PutTable {
            name: r.str()?,
            table: codec::get_urelation_any(&mut r)?,
        },
        // The deltas decode structurally; whether positions, columns and
        // cells fit each other and the table is `check_op`'s call, made
        // before a record is logged and again before it replays.
        6 => Op::UpdateRows {
            table: r.str()?,
            positions: get_u32s(&mut r, "position")?,
            columns: get_u32s(&mut r, "column")?,
            cells: codec::get_batch(&mut r, None)?,
        },
        7 => Op::DeleteRows {
            table: r.str()?,
            positions: get_u32s(&mut r, "position")?,
        },
        t => {
            return Err(codec::CodecError {
                offset: r.offset(),
                reason: format!("unknown op tag {t}"),
            })
        }
    };
    if !r.is_exhausted() {
        return Err(codec::CodecError {
            offset: r.offset(),
            reason: "trailing bytes after record".into(),
        });
    }
    Ok(WalRecord { lsn, world_ext, op })
}

/// Frame a record for appending: `[len][crc][payload]`, the payload
/// encoded in place behind the frame header.
pub fn frame_record(lsn: u64, world_ext: &WorldExt, op: &Op) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(0); // [len] [crc], filled in below
    put_record(&mut w, lsn, world_ext, op);
    let mut out = w.finish();
    let (head, payload) = out.split_at_mut(8);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&codec::crc32(payload).to_le_bytes());
    out
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// The decoded records in file order, each with the byte offset of
    /// its frame — what a replay failure reports.
    pub records: Vec<(u64, WalRecord)>,
    /// Length of the valid prefix (bytes). Anything past this is a torn
    /// tail and should be truncated before appending resumes.
    pub valid_len: u64,
    /// Whether a torn tail was found (incomplete frame or CRC mismatch
    /// on the final record).
    pub torn: bool,
}

/// Scan a WAL file's bytes. See the module docs for the stop rules.
pub fn scan(bytes: &[u8]) -> Result<WalScan> {
    // A file shorter than the magic is what a crash during the very
    // first create+write leaves behind: an empty WAL, as long as what
    // *is* there is a prefix of the magic.
    if bytes.len() < WAL_MAGIC.len() {
        if *bytes != WAL_MAGIC[..bytes.len()] {
            return Err(StoreError::corrupt(WAL_FILE, 0, "bad WAL magic"));
        }
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        });
    }
    check_magic(WAL_FILE, &bytes[..WAL_MAGIC.len()], WAL_MAGIC)?;
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let torn = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break false;
        }
        if remaining < 8 {
            break true;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - 8 {
            // Frame promises more bytes than the file holds: torn append.
            break true;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if codec::crc32(payload) != crc {
            // Checksum mismatch: the append tore inside the payload (or
            // the tail rotted). Either way nothing after it can be
            // trusted — stop cleanly at the last good record.
            break true;
        }
        // CRC-valid but undecodable is not a crash artifact.
        let rec = decode_record(payload)
            .map_err(|e| StoreError::corrupt(WAL_FILE, (pos + 8) as u64 + e.offset, e.reason))?;
        records.push((pos as u64, rec));
        pos += 8 + len;
    };
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{DataType, Schema};

    fn rec(lsn: u64) -> WalRecord {
        WalRecord {
            lsn,
            world_ext: if lsn.is_multiple_of(2) {
                Some((lsn as u32, vec![vec![0.5, 0.5], vec![1.0]]))
            } else {
                None
            },
            op: Op::CreateTable {
                name: format!("t{lsn}"),
                schema: Schema::from_pairs(&[("a", DataType::Int)]),
            },
        }
    }

    /// A record's payload: its frame without `[len] [crc]`.
    fn encode_record(lsn: u64, world_ext: &WorldExt, op: &Op) -> Vec<u8> {
        frame_record(lsn, world_ext, op)[8..].to_vec()
    }

    fn encode(rec: &WalRecord) -> Vec<u8> {
        encode_record(rec.lsn, &rec.world_ext, &rec.op)
    }

    fn wal_bytes(recs: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in recs {
            bytes.extend_from_slice(&frame_record(r.lsn, &r.world_ext, &r.op));
        }
        bytes
    }

    #[test]
    fn roundtrip_and_scan() {
        let recs: Vec<WalRecord> = (0..5).map(rec).collect();
        let bytes = wal_bytes(&recs);
        let scan = scan(&bytes).unwrap();
        let (offsets, scanned): (Vec<u64>, Vec<WalRecord>) = scan.records.into_iter().unzip();
        assert_eq!(scanned, recs);
        assert_eq!(offsets[0], WAL_MAGIC.len() as u64);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn columnar_put_table_roundtrips_and_reencodes_byte_identical() {
        use maybms_engine::Value;
        use maybms_urel::rel;
        let base = rel(
            &[("s", DataType::Text), ("n", DataType::Int)],
            vec![
                vec!["x".into(), 1.into()],
                vec![Value::Null, Value::Null],
                vec!["y".into(), 2.into()],
                vec!["x".into(), 3.into()],
            ],
        );
        let table = base.dict_encode();
        let record = WalRecord {
            lsn: 7,
            world_ext: None,
            op: Op::PutTable {
                name: "t".into(),
                table,
            },
        };
        let payload = encode(&record);
        let decoded = decode_record(&payload).unwrap();
        assert_eq!(decoded, record);
        let Op::PutTable { table: got, .. } = &decoded.op else {
            unreachable!()
        };
        let Op::PutTable { table, .. } = &record.op else {
            unreachable!()
        };
        assert_eq!(got.at_rest().0, table.at_rest().0);
        // The encoding is canonical: decode then encode is the identity
        // for current tags.
        assert_eq!(encode(&decoded), payload);
    }

    /// Payload prefix of a record with no world extension: LSN, tag 0,
    /// then the op tag and the table name.
    fn op_header(lsn: u64, tag: u8, table: &str) -> Writer {
        let mut w = Writer::new();
        w.put_u64(lsn);
        w.put_u8(0);
        w.put_u8(tag);
        w.put_str(table);
        w
    }

    #[test]
    fn put_table_always_logs_under_the_columnar_tag() {
        use maybms_urel::rel;
        let table = rel(&[("n", DataType::Int)], vec![vec![1.into()]]);
        let record = WalRecord {
            lsn: 1,
            world_ext: None,
            op: Op::PutTable {
                name: "t".into(),
                table,
            },
        };
        // Offset 8 (lsn) + 1 (world-ext tag): a table image is written
        // under tag 5, as its columns.
        let payload = encode(&record);
        assert_eq!(payload[9], 5);
        let decoded = decode_record(&payload).unwrap();
        assert_eq!(decoded, record);
    }

    /// A batch with one column per value list.
    fn batch(rows: usize, cols: Vec<Vec<maybms_engine::Value>>) -> ColumnBatch {
        let cols = cols.into_iter().map(maybms_engine::Column::from_values);
        ColumnBatch::from_columns(cols.collect(), rows)
    }

    #[test]
    fn row_records_roundtrip_byte_identical() {
        use maybms_engine::Value;
        for op in [
            Op::InsertRows {
                table: "t".into(),
                rows: batch(
                    2,
                    vec![
                        vec![Value::Int(1), Value::Null],
                        vec![Value::str("x"), Value::str("y;'z")],
                        vec![Value::Null, Value::Null],
                    ],
                ),
            },
            Op::InsertRows {
                table: "t".into(),
                rows: ColumnBatch::empty(2),
            },
            Op::UpdateRows {
                table: "t".into(),
                positions: vec![0, 3, 4],
                columns: vec![2, 0],
                cells: batch(
                    3,
                    vec![
                        vec![Value::Float(-0.0), Value::Null, Value::Float(0.1 + 0.2)],
                        vec![Value::Int(1), Value::str("x"), Value::Bool(true)],
                    ],
                ),
            },
            Op::UpdateRows {
                table: "t".into(),
                positions: vec![],
                columns: vec![1],
                cells: ColumnBatch::empty(1),
            },
            Op::DeleteRows {
                table: "t".into(),
                positions: vec![1, 2, 9],
            },
            Op::DeleteRows {
                table: "t".into(),
                positions: vec![],
            },
        ] {
            let record = WalRecord {
                lsn: 3,
                world_ext: None,
                op,
            };
            let payload = encode(&record);
            let decoded = decode_record(&payload).unwrap();
            assert_eq!(decoded, record);
            assert_eq!(encode(&decoded), payload);
        }
        // Tags 2, 6 and 7, after lsn (8 bytes) and the world-ext tag.
        let insert = Op::InsertRows {
            table: "t".into(),
            rows: batch(1, vec![vec![Value::Int(1)]]),
        };
        assert_eq!(encode_record(0, &None, &insert)[9], 2);
        let update = Op::UpdateRows {
            table: "t".into(),
            positions: vec![0],
            columns: vec![0],
            cells: batch(1, vec![vec![Value::Int(1)]]),
        };
        assert_eq!(encode_record(0, &None, &update)[9], 6);
        let delete = Op::DeleteRows {
            table: "t".into(),
            positions: vec![0],
        };
        assert_eq!(encode_record(0, &None, &delete)[9], 7);
    }

    /// A CRC-valid frame around `payload` must scan as corruption at an
    /// offset inside the frame — never a panic, never a torn tail.
    fn assert_corrupt(payload: Vec<u8>, want: &str) {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match scan(&bytes) {
            Err(StoreError::Corrupt {
                path,
                offset,
                reason,
            }) => {
                assert_eq!(path, WAL_FILE);
                assert!(
                    offset >= WAL_MAGIC.len() as u64 + 8 && offset <= bytes.len() as u64,
                    "offset {offset} outside the frame"
                );
                assert!(reason.contains(want), "{reason}");
            }
            other => panic!("expected corrupt ({want}), got {other:?}"),
        }
    }

    #[test]
    fn truncated_or_padded_delta_records_are_corrupt_with_an_offset() {
        // Declared cells that are not there, a hostile column count, and
        // bytes nobody declared.
        let mut w = op_header(0, 6, "t");
        put_u32s(&mut w, &[0]);
        put_u32s(&mut w, &[0]);
        w.put_u32(1); // rows
        w.put_u32(1); // columns
        w.put_u8(0); // an `Int` column, whose one value is missing
        assert_corrupt(w.finish(), "need 8 bytes, 0 remain");
        let mut w = op_header(0, 2, "t");
        w.put_u32(1);
        w.put_u32(u32::MAX);
        assert_corrupt(w.finish(), "column count");
        let mut w = op_header(0, 7, "t");
        put_u32s(&mut w, &[0]);
        w.put_u8(0);
        assert_corrupt(w.finish(), "trailing bytes");
        // A hostile position count fails before anything is allocated.
        let mut w = op_header(0, 7, "t");
        w.put_u32(u32::MAX);
        assert_corrupt(w.finish(), "position count");
    }

    #[test]
    fn every_truncation_point_stops_cleanly() {
        let recs: Vec<WalRecord> = (0..3).map(rec).collect();
        let bytes = wal_bytes(&recs);
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            // The scan keeps only whole records and reports a valid
            // prefix no longer than the cut.
            assert!(s.valid_len <= cut as u64);
            assert!(s.records.len() <= recs.len());
            for ((_, got), want) in s.records.iter().zip(&recs) {
                assert_eq!(got, want);
            }
            // Every mid-record cut is flagged torn.
            if s.valid_len < cut as u64 {
                assert!(s.torn, "cut at {cut} not flagged torn");
            }
        }
    }

    #[test]
    fn crc_flip_in_final_record_is_torn_not_error() {
        let recs: Vec<WalRecord> = (0..2).map(rec).collect();
        let mut bytes = wal_bytes(&recs);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.torn);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = wal_bytes(&[rec(0)]);
        bytes[0] = b'X';
        match scan(&bytes) {
            Err(StoreError::Corrupt { path, offset, .. }) => {
                assert_eq!(path, WAL_FILE);
                assert_eq!(offset, 0);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crc_valid_garbage_is_corrupt_with_offset() {
        // Hand-build a frame whose CRC matches a nonsense payload.
        let payload = vec![9u8; 16];
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match scan(&bytes) {
            Err(StoreError::Corrupt { offset, .. }) => {
                assert!(offset >= WAL_MAGIC.len() as u64 + 8);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_magic_prefix_files_scan_empty() {
        assert!(scan(b"").unwrap().records.is_empty());
        let s = scan(&WAL_MAGIC[..3]).unwrap();
        assert!(s.records.is_empty());
        assert!(s.torn);
        assert!(scan(WAL_MAGIC).unwrap().records.is_empty());
    }
}
