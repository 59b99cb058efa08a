//! Binary encoding of catalog state for the WAL and snapshots.
//!
//! A deliberately boring little-endian format with no external
//! dependencies (the container has no network; see ROADMAP's bootstrap
//! caveat): length-prefixed strings, tag bytes for enums, `f64` as raw
//! IEEE-754 bits so probabilities round-trip *bit-exactly* — the
//! determinism contract (bit-identical results at any thread count)
//! must survive a restart, so serialization may not perturb a single
//! float bit.
//!
//! Decoding is total: every read is bounds-checked and surfaces a
//! [`CodecError`] with the byte offset, which recovery converts into a
//! "corrupt at byte N" report instead of a panic.

use std::sync::Arc;

use maybms_engine::{
    Column, ColumnBatch, ColumnData, DataType, Field, NullMask, Schema, StrDict, Tuple, Value,
};
use maybms_urel::{Assignment, URelation, UTuple, Var, Wsd};

/// A bounds-checked decode failure at a byte offset (relative to the
/// start of the buffer being decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset of the first byte that could not be decoded.
    pub offset: u64,
    /// What was expected.
    pub reason: String,
}

/// Decode result.
pub type DecodeResult<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), byte-at-a-time with a
// compile-time table.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length (for framing).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        // Raw bits: exact round-trip, -0.0 and subnormals included.
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked decode cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// True iff every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn fail<T>(&self, reason: impl Into<String>) -> DecodeResult<T> {
        Err(CodecError {
            offset: self.pos as u64,
            reason: reason.into(),
        })
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self.fail(format!(
                "need {n} bytes, {} remain",
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> DecodeResult<String> {
        let n = self.u32()? as usize;
        let start = self.pos;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(CodecError {
                offset: start as u64,
                reason: "invalid UTF-8 in string".into(),
            }),
        }
    }

    /// A collection count, sanity-bounded so a corrupt length cannot
    /// drive a multi-gigabyte allocation before the bounds checks kick
    /// in element-by-element.
    pub(crate) fn count(&mut self, what: &str) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        // Each element consumes at least one byte; more than `remaining`
        // elements is provably corrupt.
        if n > self.buf.len() - self.pos {
            return self.fail(format!("{what} count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Catalog types
// ---------------------------------------------------------------------

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Unknown => 4,
    }
}

fn dtype_of(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Unknown,
        _ => return None,
    })
}

/// Encode a scalar value.
pub fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_u8(*b as u8);
        }
        Value::Int(i) => {
            w.put_u8(2);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(3);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(4);
            w.put_str(s);
        }
    }
}

/// Decode a scalar value.
pub fn get_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Float(r.f64()?),
        4 => Value::Str(Arc::from(r.str()?.as_str())),
        t => return r.fail(format!("unknown value tag {t}")),
    })
}

/// Encode a schema.
pub fn put_schema(w: &mut Writer, s: &Schema) {
    w.put_u32(s.len() as u32);
    for f in s.fields() {
        match &f.qualifier {
            None => w.put_u8(0),
            Some(q) => {
                w.put_u8(1);
                w.put_str(q);
            }
        }
        w.put_str(&f.name);
        w.put_u8(dtype_tag(f.dtype));
    }
}

/// Decode a schema.
pub fn get_schema(r: &mut Reader<'_>) -> DecodeResult<Schema> {
    let n = r.count("field")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let qualifier = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            t => return r.fail(format!("unknown qualifier tag {t}")),
        };
        let name = r.str()?;
        let tag = r.u8()?;
        let dtype = match dtype_of(tag) {
            Some(d) => d,
            None => return r.fail(format!("unknown data type tag {tag}")),
        };
        fields.push(match qualifier {
            Some(q) => Field::qualified(q, name, dtype),
            None => Field::new(name, dtype),
        });
    }
    Ok(Schema::new(fields))
}

/// Encode a WSD (sorted assignment list).
pub fn put_wsd(w: &mut Writer, wsd: &Wsd) {
    w.put_u32(wsd.len() as u32);
    for a in wsd.assignments() {
        w.put_u32(a.var.0);
        w.put_u16(a.alt);
    }
}

/// Decode a WSD; rejects conflicting assignment lists.
pub fn get_wsd(r: &mut Reader<'_>) -> DecodeResult<Wsd> {
    let n = r.count("assignment")?;
    let mut assignments = Vec::with_capacity(n);
    for _ in 0..n {
        let var = Var(r.u32()?);
        let alt = r.u16()?;
        assignments.push(Assignment::new(var, alt));
    }
    match Wsd::from_assignments(assignments) {
        Some(wsd) => Ok(wsd),
        None => r.fail("unsatisfiable WSD (conflicting assignments)"),
    }
}

/// Encode one uncertain tuple (data row + condition).
pub fn put_utuple(w: &mut Writer, t: &UTuple) {
    w.put_u32(t.data.arity() as u32);
    for v in t.data.values() {
        put_value(w, v);
    }
    put_wsd(w, &t.wsd);
}

/// Decode one uncertain tuple.
pub fn get_utuple(r: &mut Reader<'_>) -> DecodeResult<UTuple> {
    let arity = r.count("column")?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(r)?);
    }
    let wsd = get_wsd(r)?;
    Ok(UTuple::new(Tuple::new(values), wsd))
}

/// Encode a whole U-relation as schema + rows: the logical image,
/// independent of the storage representation ([`crate::fingerprint`]
/// compares these). Tables are stored with [`put_urelation_any`].
pub fn put_urelation(w: &mut Writer, u: &URelation) {
    put_schema(w, u.schema());
    w.put_u32(u.len() as u32);
    for t in u.tuples() {
        put_utuple(w, t);
    }
}

// ---------------------------------------------------------------------
// Stored table image: the one at-rest layout, shared by snapshot bodies
// and WAL `PutTable` records — the column batch (dictionaries included)
// plus the WSD sidecar
// ---------------------------------------------------------------------

/// Sparse null positions: count + ascending row indices. Written for
/// typed columns only (`Values`/`Const` carry nulls in the values).
fn put_nullmask(w: &mut Writer, col: &Column) {
    let nulls: Vec<u32> = (0..col.len())
        .filter(|&i| col.nulls().is_null(i))
        .map(|i| i as u32)
        .collect();
    w.put_u32(nulls.len() as u32);
    for i in nulls {
        w.put_u32(i);
    }
}

fn get_nullmask(r: &mut Reader<'_>, rows: usize) -> DecodeResult<NullMask> {
    let n = r.count("null index")?;
    let mut mask = NullMask::none();
    for _ in 0..n {
        let i = r.u32()? as usize;
        if i >= rows {
            return r.fail(format!("null index {i} out of range ({rows} rows)"));
        }
        mask.set_null(i);
    }
    Ok(mask)
}

/// Encode one column: a representation tag, the physical payload, and
/// (for typed layouts) the null mask. The representation — typed vector
/// vs dictionary vs `Values` vs `Const`, dictionary code order, NULL-slot
/// placeholders — round-trips *exactly*, so re-encoding a decoded column
/// is byte-identical (recovery relies on this to recompute WAL frame
/// offsets).
fn put_column(w: &mut Writer, col: &Column) {
    match col.data() {
        ColumnData::Int(v) => {
            w.put_u8(0);
            for &x in v {
                w.put_i64(x);
            }
            put_nullmask(w, col);
        }
        ColumnData::Float(v) => {
            w.put_u8(1);
            for &x in v {
                w.put_f64(x);
            }
            put_nullmask(w, col);
        }
        ColumnData::Bool(v) => {
            w.put_u8(2);
            for &x in v {
                w.put_u8(x as u8);
            }
            put_nullmask(w, col);
        }
        ColumnData::Str(v) => {
            w.put_u8(3);
            for s in v {
                w.put_str(s);
            }
            put_nullmask(w, col);
        }
        ColumnData::Dict { codes, dict } => {
            w.put_u8(4);
            w.put_u32(dict.len() as u32);
            for e in dict.entries() {
                w.put_str(e);
            }
            for &c in codes {
                w.put_u32(c);
            }
            put_nullmask(w, col);
        }
        ColumnData::Values(v) => {
            w.put_u8(5);
            for x in v {
                put_value(w, x);
            }
        }
        ColumnData::Const(v) => {
            w.put_u8(6);
            put_value(w, v);
        }
    }
}

fn get_column(r: &mut Reader<'_>, rows: usize) -> DecodeResult<Column> {
    // Preallocation cap: corrupt row counts fail element-by-element
    // before large allocations, as everywhere else in this module.
    let cap = rows.min(1 << 16);
    Ok(match r.u8()? {
        0 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..rows {
                v.push(r.i64()?);
            }
            Column::from_ints(v, get_nullmask(r, rows)?)
        }
        1 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..rows {
                v.push(r.f64()?);
            }
            Column::from_floats(v, get_nullmask(r, rows)?)
        }
        2 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..rows {
                v.push(r.u8()? != 0);
            }
            Column::from_bools(v, get_nullmask(r, rows)?)
        }
        3 => {
            let mut v: Vec<Arc<str>> = Vec::with_capacity(cap);
            for _ in 0..rows {
                v.push(Arc::from(r.str()?.as_str()));
            }
            Column::from_strs(v, get_nullmask(r, rows)?)
        }
        4 => {
            let n = r.count("dictionary entry")?;
            let mut dict = StrDict::new();
            for _ in 0..n {
                let s: Arc<str> = Arc::from(r.str()?.as_str());
                dict.intern(&s);
            }
            if dict.len() != n {
                return r.fail("duplicate dictionary entry");
            }
            let mut codes = Vec::with_capacity(cap);
            for _ in 0..rows {
                codes.push(r.u32()?);
            }
            let nulls = get_nullmask(r, rows)?;
            for (i, &c) in codes.iter().enumerate() {
                if !nulls.is_null(i) && c as usize >= n {
                    return r.fail(format!("dictionary code {c} out of range ({n} entries)"));
                }
            }
            Column::from_dict(codes, Arc::new(dict), nulls)
        }
        5 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..rows {
                v.push(get_value(r)?);
            }
            Column::from_raw_values(v)
        }
        6 => Column::from_const(get_value(r)?, rows),
        t => return r.fail(format!("unknown column tag {t}")),
    })
}

/// Encode a table in its at-rest image: schema, row and column counts,
/// each column as it is encoded, then each row's WSD.
pub fn put_urelation_any(w: &mut Writer, u: &URelation) {
    let (batch, wsds) = u.at_rest();
    put_schema(w, u.schema());
    w.put_u32(batch.rows() as u32);
    w.put_u32(batch.arity() as u32);
    for col in batch.columns() {
        put_column(w, col);
    }
    for wsd in wsds {
        put_wsd(w, wsd);
    }
}

/// Decode a [`put_urelation_any`] image, restoring the exact storage
/// representation — recovery never re-pivots.
pub fn get_urelation_any(r: &mut Reader<'_>) -> DecodeResult<URelation> {
    let schema = get_schema(r)?;
    let rows = r.u32()? as usize;
    let ncols = r.count("column")?;
    if ncols != schema.len() {
        return r.fail(format!(
            "column count {ncols} does not match schema arity {}",
            schema.len()
        ));
    }
    let mut cols = Vec::with_capacity(ncols);
    for k in 0..ncols {
        let c = get_column(r, rows)?;
        if c.len() != rows {
            return r.fail(format!(
                "column {k} length {} does not match row count {rows}",
                c.len()
            ));
        }
        cols.push(c);
    }
    let mut wsds = Vec::with_capacity(rows.min(1 << 16));
    for _ in 0..rows {
        wsds.push(get_wsd(r)?);
    }
    Ok(URelation::from_batch(
        Arc::new(schema),
        ColumnBatch::from_columns(cols, rows),
        wsds,
    ))
}

/// Encode a list of probability distributions (world-table tail).
pub fn put_dists(w: &mut Writer, dists: &[Vec<f64>]) {
    w.put_u32(dists.len() as u32);
    for d in dists {
        w.put_u32(d.len() as u32);
        for &p in d {
            w.put_f64(p);
        }
    }
}

/// Decode a list of probability distributions.
pub fn get_dists(r: &mut Reader<'_>) -> DecodeResult<Vec<Vec<f64>>> {
    let n = r.count("distribution")?;
    let mut dists = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count("alternative")?;
        let mut d = Vec::with_capacity(len);
        for _ in 0..len {
            d.push(r.f64()?);
        }
        dists.push(d);
    }
    Ok(dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::rel;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn value_roundtrip_bit_exact() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.05),
            Value::Float(-0.0),
            Value::Float(f64::MIN_POSITIVE / 2.0), // subnormal
            Value::str("héllo ↦ wörld"),
            Value::str(""),
        ];
        let mut w = Writer::new();
        for v in &values {
            put_value(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        for v in &values {
            let got = get_value(&mut r).unwrap();
            // PartialEq on Value uses total_cmp for floats, so -0.0 vs
            // 0.0 would already fail here if bits were perturbed.
            if let (Value::Float(a), Value::Float(b)) = (v, &got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(&got, v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn urelation_roundtrip() {
        let base = rel(
            &[("player", DataType::Text), ("pts", DataType::Int)],
            vec![
                vec!["Bryant".into(), 40.into()],
                vec!["Duncan".into(), Value::Null],
            ],
        );
        let wsd = Wsd::from_assignments(vec![
            Assignment::new(Var(3), 1),
            Assignment::new(Var(0), 0),
            Assignment::new(Var(7), 2),
        ])
        .unwrap();
        let u = URelation::from_certain(&base).gather_with(&[0, 1], vec![wsd, Wsd::tautology()]);
        let mut w = Writer::new();
        put_urelation_any(&mut w, &u);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let got = get_urelation_any(&mut r).unwrap();
        assert_eq!(got, u);
        assert_eq!(got.at_rest().0, u.at_rest().0);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_reports_offset_not_panic() {
        let mut w = Writer::new();
        put_value(&mut w, &Value::str("abcdef"));
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let e = get_value(&mut r).unwrap_err();
            assert!(e.offset <= cut as u64);
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        // A 4 GiB element count with a 12-byte buffer must fail fast.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_u64(0);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(get_dists(&mut r).is_err());
        let mut r = Reader::new(&bytes);
        assert!(get_schema(&mut r).is_err());
    }

    #[test]
    fn conflicting_wsd_is_corrupt() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_u32(5);
        w.put_u16(0);
        w.put_u32(5);
        w.put_u16(1);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let e = get_wsd(&mut r).unwrap_err();
        assert!(e.reason.contains("unsatisfiable"));
    }

    #[test]
    fn columnar_urelation_roundtrips_every_column_kind() {
        // One column per physical layout: Int, Float, Bool, Str→Dict,
        // mixed Values, and an all-NULL Const — with NULLs sprinkled in
        // so placeholder slots round-trip too.
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Text),
            Field::new("m", DataType::Unknown),
            Field::new("z", DataType::Unknown),
        ]);
        let rows: Vec<Vec<Value>> = vec![
            vec![
                1.into(),
                Value::Float(-0.0),
                Value::Bool(true),
                "dup".into(),
                7.into(),
                Value::Null,
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                "mix".into(),
                Value::Null,
            ],
            vec![
                2.into(),
                Value::Float(0.05),
                Value::Bool(false),
                "dup".into(),
                Value::Null,
                Value::Null,
            ],
        ];
        let base = maybms_engine::Relation::new_unchecked(
            Arc::new(schema),
            rows.into_iter().map(Tuple::new).collect(),
        );
        let u = URelation::from_certain(&base).dict_encode();
        let (batch, _) = u.at_rest();
        assert!(matches!(batch.column(3).data(), ColumnData::Dict { .. }));
        assert!(matches!(batch.column(4).data(), ColumnData::Values(_)));
        assert!(matches!(
            batch.column(5).data(),
            ColumnData::Const(Value::Null)
        ));
        let mut w = Writer::new();
        put_urelation_any(&mut w, &u);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let got = get_urelation_any(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(got, u);
        assert_eq!(got.at_rest().0, batch);
        // Representation-exact: re-encoding is byte-identical.
        let mut w2 = Writer::new();
        put_urelation_any(&mut w2, &got);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn columnar_codec_rejects_out_of_range_dictionary_code() {
        let base = rel(&[("s", DataType::Text)], vec![vec!["a".into()]]);
        let u = URelation::from_certain(&base).dict_encode();
        let mut w = Writer::new();
        put_urelation_any(&mut w, &u);
        let mut bytes = w.finish();
        // The single code is the last 4 bytes before the (empty) null
        // mask and the row's (empty-ish) WSD; corrupt it by scanning for
        // the code u32 — simplest robust approach: flip every byte and
        // require that no mutation panics, only errors or decodes.
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            let mut r = Reader::new(&bytes);
            let _ = get_urelation_any(&mut r); // must not panic
            bytes[i] ^= 0xff;
        }
        // And a targeted case: declared dict of 1 entry, code 1.
        let mut w = Writer::new();
        put_schema(&mut w, &Schema::from_pairs(&[("s", DataType::Text)]));
        w.put_u32(1); // rows
        w.put_u32(1); // ncols
        w.put_u8(4); // dict column
        w.put_u32(1); // 1 entry
        w.put_str("a");
        w.put_u32(1); // code out of range
        w.put_u32(0); // no nulls
        put_wsd(&mut w, &Wsd::tautology());
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let e = get_urelation_any(&mut r).unwrap_err();
        assert!(e.reason.contains("out of range"), "{}", e.reason);
    }

    #[test]
    fn dists_roundtrip_exact_bits() {
        let dists = vec![vec![0.8, 0.05, 0.15], vec![1.0], vec![0.5, 0.5]];
        let mut w = Writer::new();
        put_dists(&mut w, &dists);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let got = get_dists(&mut r).unwrap();
        assert_eq!(got.len(), dists.len());
        for (a, b) in got.iter().flatten().zip(dists.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
