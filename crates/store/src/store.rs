//! The durable store: ties [`crate::wal`] and [`crate::snapshot`]
//! together behind one object with three verbs — recover on open, log a
//! mutation, checkpoint on demand.
//!
//! # Protocol
//!
//! * **Log.** Each catalog mutation serializes as one [`Op`] plus the
//!   world-table extension it depends on, framed, appended to the WAL,
//!   and fsynced *before* the caller installs the change in memory. A
//!   crash therefore lands on a record boundary: either the whole
//!   statement is durable or none of it is.
//! * **Checkpoint.** The entire state goes to `snapshot.tmp` → fsync →
//!   atomic rename → the WAL is reset to empty. A crash between rename
//!   and reset leaves stale records (`lsn < base_lsn`) in the WAL;
//!   recovery skips them by LSN.
//! * **Recover.** Load the snapshot (if any), replay the WAL tail in
//!   order, stop cleanly at the first torn record and truncate it away.
//!   Recovery is idempotent: recovering twice yields the same state and
//!   the same files as recovering once.
//! * **Poisoning.** Every I/O error gets one policy: it is returned as
//!   a typed [`StoreError`], never retried. Once an append or checkpoint
//!   fails, the in-memory catalog may be ahead of the durable state; the
//!   store refuses further writes ([`StoreError::Poisoned`]) until
//!   reopened, which runs recovery again, so the two cannot silently
//!   diverge. A failed fsync is not retried because the kernel may
//!   already have dropped the dirty pages it could not write.

use std::sync::Arc;

use maybms_urel::{URelation, Var, WorldTable};

use crate::codec::{self, Writer};
use crate::error::{Result, StoreError};
use crate::snapshot::{self, Catalog};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::{self, Op, WAL_FILE, WAL_MAGIC};

/// Is `op` applicable to `tables`? Everything [`apply_op`] can reject is
/// rejected here, without touching the catalog: live execution checks
/// before the WAL append (so a bad op is never logged), replay checks
/// before applying (so a bad record never half-applies).
pub fn check_op(tables: &Catalog, op: &Op) -> std::result::Result<(), String> {
    let existing = |what: &str, name: &str| {
        tables
            .get(name)
            .ok_or_else(|| format!("{what} {name}: no such table"))
    };
    match op {
        Op::CreateTable { name, .. } | Op::PutTable { name, .. } => {
            if tables.contains_key(name) {
                return Err(format!("create table {name}: already exists"));
            }
        }
        Op::InsertRows { table, rows } => {
            let arity = existing("insert into", table)?.schema().len();
            if rows.arity() != arity {
                return Err(format!(
                    "insert into {table}: row arity {} does not match table arity {arity}",
                    rows.arity()
                ));
            }
        }
        Op::UpdateRows {
            table,
            positions,
            columns,
            cells,
        } => {
            let t = existing("update", table)?;
            check_positions(table, positions, t.len())?;
            if let Some(c) = columns.iter().find(|&&c| c as usize >= t.schema().len()) {
                return Err(format!(
                    "update {table}: column {c} out of range ({} columns)",
                    t.schema().len()
                ));
            }
            if (cells.rows(), cells.arity()) != (positions.len(), columns.len()) {
                return Err(format!(
                    "update {table}: {} × {} cells for {} positions × {} columns",
                    cells.rows(),
                    cells.arity(),
                    positions.len(),
                    columns.len()
                ));
            }
        }
        Op::DeleteRows { table, positions } => {
            check_positions(table, positions, existing("delete from", table)?.len())?;
        }
        Op::DropTable { name } => {
            existing("drop table", name)?;
        }
    }
    Ok(())
}

/// Delta positions must be strictly increasing and inside the table.
fn check_positions(table: &str, positions: &[u32], rows: usize) -> std::result::Result<(), String> {
    if let Some(w) = positions.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "{table}: row positions not strictly increasing ({} then {})",
            w[0], w[1]
        ));
    }
    match positions.last() {
        Some(&p) if p as usize >= rows => Err(format!(
            "{table}: row position {p} out of range ({rows} rows)"
        )),
        _ => Ok(()),
    }
}

/// Apply one logged operation to a catalog. Shared by live execution
/// (after the WAL append succeeds) and recovery replay, so the two can
/// never disagree about what an [`Op`] means. The op is checked first
/// ([`check_op`]) and applies whole or not at all. This is the one place
/// a stored table's strings are dictionary-encoded: `PutTable` installs
/// its table through [`URelation::dict_encode`] (an `Arc` clone for an
/// image logged as installed), and `INSERT` / `UPDATE` push / set their
/// batches' cells into the table's columns in place (new strings join
/// the dictionaries). Errors are descriptive strings; callers wrap them
/// with context (file offset on replay).
pub fn apply_op(tables: &mut Catalog, op: Op) -> std::result::Result<(), String> {
    check_op(tables, &op)?;
    fn target<'a>(tables: &'a mut Catalog, name: &str) -> &'a mut URelation {
        tables.get_mut(name).expect("check_op found the table")
    }
    match op {
        Op::CreateTable { name, schema } => {
            tables.insert(name, URelation::empty(Arc::new(schema)));
        }
        Op::PutTable { name, table } => {
            tables.insert(name, table.dict_encode());
        }
        Op::InsertRows { table, rows } => target(tables, &table).append(&rows),
        Op::UpdateRows {
            table,
            positions,
            columns,
            cells,
        } => target(tables, &table).set_cells(&positions, &columns, &cells),
        Op::DeleteRows { table, positions } => target(tables, &table).delete_rows(&positions),
        Op::DropTable { name } => {
            tables.remove(&name);
        }
    }
    Ok(())
}

/// Extend a world table per a record's world extension. Idempotent:
/// variables below the current count are assumed already present
/// (recovery re-applying a snapshot-covered extension), and a gap below
/// `first` is padded with certain (`[1.0]`) variables — those ids were
/// burnt by query side effects that never became durable, and nothing
/// durable references them, but later ids must line up exactly.
fn apply_world_ext(
    wt: &mut WorldTable,
    first: u32,
    dists: &[Vec<f64>],
) -> std::result::Result<(), String> {
    while wt.num_vars() < first as usize {
        wt.new_var(&[1.0])
            .map_err(|e| format!("world-table padding: {e}"))?;
    }
    for (i, d) in dists.iter().enumerate() {
        let id = first as usize + i;
        if id < wt.num_vars() {
            continue; // already durable (snapshot covered it)
        }
        wt.new_var(d)
            .map_err(|e| format!("world variable x{id}: {e}"))?;
    }
    Ok(())
}

/// State reconstructed by [`Store::open`].
#[derive(Debug)]
pub struct Recovered {
    /// The stored tables.
    pub tables: Catalog,
    /// The world table (exactly the durable variables).
    pub wt: WorldTable,
    /// How many WAL records were replayed on top of the snapshot.
    pub replayed: usize,
    /// Whether a torn WAL tail was truncated away.
    pub truncated_tail: bool,
}

/// Durability status, for banners and monitoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStatus {
    /// Where the data lives (directory path, or `<memory>`).
    pub location: String,
    /// WAL bytes appended since the last checkpoint (replay debt).
    pub wal_bytes: u64,
    /// Next log sequence number.
    pub next_lsn: u64,
    /// Whether a snapshot file exists.
    pub has_snapshot: bool,
    /// Whether the store is refusing writes after an I/O failure.
    pub poisoned: bool,
}

/// A durable catalog store. See the module docs for the protocol.
pub struct Store {
    vfs: Arc<dyn Vfs>,
    /// Append handle on the WAL (recreated on checkpoint).
    wal_file: Box<dyn VfsFile>,
    next_lsn: u64,
    /// World-table variables already durable (snapshot + logged exts).
    durable_vars: usize,
    wal_bytes: u64,
    has_snapshot: bool,
    poisoned: Option<String>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("location", &self.vfs.location())
            .field("next_lsn", &self.next_lsn)
            .field("durable_vars", &self.durable_vars)
            .field("wal_bytes", &self.wal_bytes)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Store {
    /// Open a data directory through `vfs`, running crash recovery:
    /// load the latest snapshot, replay the WAL tail, truncate any torn
    /// record. Returns the store plus the recovered catalog state.
    pub fn open(vfs: Arc<dyn Vfs>) -> Result<(Store, Recovered)> {
        let mut span = maybms_obs::trace::span("recovery");
        // A stale staging file is volatile garbage from a crashed
        // checkpoint; clear it so it can never shadow anything.
        if vfs.exists(snapshot::SNAPSHOT_TMP)? {
            let _ = vfs.remove(snapshot::SNAPSHOT_TMP);
        }
        let (base_lsn, mut wt, mut tables, has_snapshot) = match snapshot::load(vfs.as_ref())? {
            Some(s) => (s.base_lsn, s.wt, s.tables, true),
            None => (0, WorldTable::new(), Catalog::new(), false),
        };
        let mut next_lsn = base_lsn;
        let mut replayed = 0usize;
        let mut truncated_tail = false;
        // The WAL's length past its magic is known from here on: a reset
        // leaves the header alone, anything else the valid prefix.
        let (wal_file, wal_bytes) = if vfs.exists(WAL_FILE)? {
            let bytes = vfs.read(WAL_FILE)?;
            let scan = wal::scan(&bytes)?;
            let mut stale = 0usize;
            for (offset, rec) in scan.records {
                if rec.lsn < base_lsn {
                    // Folded into the snapshot already (crash between
                    // checkpoint rename and WAL reset).
                    stale += 1;
                } else {
                    if rec.lsn != next_lsn {
                        return Err(StoreError::corrupt(
                            WAL_FILE,
                            offset,
                            format!("LSN gap: record {} where {next_lsn} expected", rec.lsn),
                        ));
                    }
                    if let Some((first, dists)) = &rec.world_ext {
                        apply_world_ext(&mut wt, *first, dists)
                            .map_err(|e| StoreError::corrupt(WAL_FILE, offset, e))?;
                    }
                    apply_op(&mut tables, rec.op)
                        .map_err(|e| StoreError::corrupt(WAL_FILE, offset, e))?;
                    next_lsn = rec.lsn + 1;
                    replayed += 1;
                }
            }
            if stale > 0 && replayed == 0 {
                // Every record predates the snapshot: finish the
                // interrupted checkpoint by resetting the WAL.
                (Self::reset_wal(vfs.as_ref())?, 0)
            } else {
                if scan.valid_len < bytes.len() as u64 {
                    // Chop the torn tail so appends resume on a clean
                    // record boundary.
                    vfs.truncate(WAL_FILE, scan.valid_len.max(WAL_MAGIC.len() as u64))?;
                    truncated_tail = true;
                }
                match scan.valid_len.checked_sub(WAL_MAGIC.len() as u64) {
                    Some(len) => (vfs.open_append(WAL_FILE)?, len),
                    // The header itself tore; rewrite it.
                    None => (Self::reset_wal(vfs.as_ref())?, 0),
                }
            }
        } else {
            (Self::reset_wal(vfs.as_ref())?, 0)
        };
        let m = maybms_obs::metrics();
        m.recovery_replayed.set(replayed as u64);
        m.recovery_truncated_tail.set(truncated_tail as u64);
        span.attr("replayed", replayed);
        span.attr("truncated_tail", truncated_tail as u64);
        span.attr("has_snapshot", has_snapshot as u64);
        let durable_vars = wt.num_vars();
        let store = Store {
            vfs,
            wal_file,
            next_lsn,
            durable_vars,
            wal_bytes,
            has_snapshot,
            poisoned: None,
        };
        Ok((
            store,
            Recovered {
                tables,
                wt,
                replayed,
                truncated_tail,
            },
        ))
    }

    /// Create a fresh WAL (header only, fsynced) and return its handle.
    fn reset_wal(vfs: &dyn Vfs) -> Result<Box<dyn VfsFile>> {
        let mut f = vfs.create(WAL_FILE)?;
        f.append(WAL_MAGIC)?;
        f.sync()?;
        Ok(f)
    }

    /// The VFS this store writes through — `\reopen` re-runs recovery
    /// over it to resurrect a poisoned store in-process.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.vfs.clone()
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(cause) => Err(StoreError::Poisoned {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    fn poison<T>(&mut self, r: Result<T>) -> Result<T> {
        if let Err(e) = &r {
            self.poisoned = Some(e.to_string());
        }
        r
    }

    /// World-table variables already durable: in the snapshot or logged
    /// with a WAL record. A session must keep them.
    pub fn durable_vars(&self) -> usize {
        self.durable_vars
    }

    /// Append one mutation to the WAL and fsync it. `wt` is the *live*
    /// world table: any variables beyond the durable count are logged
    /// with the record, so rows referencing them commit atomically.
    /// Call this *before* installing the mutation in memory.
    pub fn log(&mut self, op: &Op, wt: &WorldTable) -> Result<()> {
        self.check_poisoned()?;
        let world_ext = if wt.num_vars() > self.durable_vars {
            let dists = (self.durable_vars..wt.num_vars())
                .map(|i| {
                    wt.distribution(Var(i as u32))
                        .map(<[f64]>::to_vec)
                        .map_err(|e| StoreError::corrupt(WAL_FILE, 0, format!("world table: {e}")))
                })
                .collect::<Result<Vec<_>>>()?;
            Some((self.durable_vars as u32, dists))
        } else {
            None
        };
        let frame = wal::frame_record(self.next_lsn, &world_ext, op);
        let mut span = maybms_obs::trace::span("wal_append");
        span.attr("bytes", frame.len());
        let t0 = std::time::Instant::now();
        let r = {
            let _fsync = maybms_obs::trace::span("wal_fsync");
            self.wal_file
                .append(&frame)
                .and_then(|()| self.wal_file.sync())
        };
        self.poison(r)?;
        let m = maybms_obs::metrics();
        m.wal_appends.inc();
        m.wal_fsync_seconds.observe(t0.elapsed());
        span.attr("lsn", self.next_lsn);
        self.next_lsn += 1;
        self.durable_vars = wt.num_vars();
        self.wal_bytes += frame.len() as u64;
        Ok(())
    }

    /// Write an atomic snapshot of the full state and reset the WAL.
    pub fn checkpoint(&mut self, tables: &Catalog, wt: &WorldTable) -> Result<()> {
        self.check_poisoned()?;
        let mut span = maybms_obs::trace::span("checkpoint");
        span.attr("tables", tables.len());
        let t0 = std::time::Instant::now();
        let r = snapshot::write(self.vfs.as_ref(), self.next_lsn, tables, wt);
        self.poison(r)?;
        let r = Self::reset_wal(self.vfs.as_ref());
        self.wal_file = self.poison(r)?;
        self.durable_vars = wt.num_vars();
        self.wal_bytes = 0;
        self.has_snapshot = true;
        let m = maybms_obs::metrics();
        m.checkpoints.inc();
        m.checkpoint_seconds.observe(t0.elapsed());
        Ok(())
    }

    /// Current durability status.
    pub fn status(&self) -> StoreStatus {
        StoreStatus {
            location: self.vfs.location(),
            wal_bytes: self.wal_bytes,
            next_lsn: self.next_lsn,
            has_snapshot: self.has_snapshot,
            poisoned: self.poisoned.is_some(),
        }
    }
}

/// A canonical byte fingerprint of the *observable* catalog state: every
/// stored table (schema, rows, WSDs) plus the distribution of every
/// world-table variable some stored WSD references. Two databases with
/// equal fingerprints answer every query identically — including exact
/// confidence computation — so the crash-matrix tests compare these.
pub fn fingerprint(tables: &Catalog, wt: &WorldTable) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(tables.len() as u32);
    let mut referenced: Vec<u32> = Vec::new();
    for (name, table) in tables {
        w.put_str(name);
        codec::put_urelation(&mut w, table);
        for wsd in table.at_rest().1 {
            referenced.extend(wsd.vars().map(|v| v.0));
        }
    }
    referenced.sort_unstable();
    referenced.dedup();
    w.put_u32(referenced.len() as u32);
    for v in referenced {
        w.put_u32(v);
        match wt.distribution(Var(v)) {
            Ok(d) => {
                w.put_u32(d.len() as u32);
                for &p in d {
                    w.put_f64(p);
                }
            }
            // A dangling variable is itself part of the observable
            // state; encode it distinctly rather than failing.
            Err(_) => w.put_u32(u32::MAX),
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use crate::wal::WorldExt;
    use maybms_engine::{BatchBuilder, ColumnBatch, DataType, Schema, Tuple, Value};
    use maybms_urel::{URelation, UTuple, Wsd};

    /// `rows`, each of `arity` values, as a column batch.
    fn batch(arity: usize, rows: &[&[Value]]) -> ColumnBatch {
        let mut b = BatchBuilder::new(arity);
        for r in rows {
            b.push_row(r.iter());
        }
        b.finish()
    }

    fn open_mem(vfs: &MemVfs) -> (Store, Recovered) {
        Store::open(Arc::new(vfs.clone())).unwrap()
    }

    #[test]
    fn fresh_open_is_empty_wal_only() {
        let vfs = MemVfs::new();
        let (store, rec) = open_mem(&vfs);
        assert!(rec.tables.is_empty());
        assert_eq!(rec.wt.num_vars(), 0);
        assert_eq!(store.status().wal_bytes, 0);
        assert!(!store.status().has_snapshot);
    }

    #[test]
    fn log_replay_roundtrip() {
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, mut rec) = open_mem(&vfs);
        let ops = vec![
            Op::CreateTable {
                name: "t".into(),
                schema: Schema::from_pairs(&[("a", DataType::Int)]),
            },
            Op::InsertRows {
                table: "t".into(),
                rows: batch(1, &[&[Value::Int(1)], &[Value::Int(2)]]),
            },
            Op::InsertRows {
                table: "t".into(),
                rows: batch(1, &[&[Value::Int(3)]]),
            },
            Op::UpdateRows {
                table: "t".into(),
                positions: vec![0, 2],
                columns: vec![0],
                cells: batch(1, &[&[Value::Int(10)], &[Value::Null]]),
            },
            Op::DeleteRows {
                table: "t".into(),
                positions: vec![1],
            },
        ];
        for op in &ops {
            store.log(op, &wt).unwrap();
            apply_op(&mut rec.tables, op.clone()).unwrap();
        }
        let got: Vec<Value> = rec.tables["t"]
            .tuples()
            .iter()
            .map(|t| t.data.value(0).clone())
            .collect();
        assert_eq!(got, vec![Value::Int(10), Value::Null]);
        drop(store);
        let (_, rec2) = open_mem(&vfs);
        assert_eq!(rec2.replayed, 5);
        assert_eq!(rec2.tables, rec.tables);
        assert_eq!(
            fingerprint(&rec2.tables, &rec2.wt),
            fingerprint(&rec.tables, &wt)
        );
    }

    #[test]
    fn unsynced_record_dies_with_crash() {
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, _) = open_mem(&vfs);
        store
            .log(
                &Op::CreateTable {
                    name: "t".into(),
                    schema: Schema::from_pairs(&[("a", DataType::Int)]),
                },
                &wt,
            )
            .unwrap();
        // Tear the tail: append garbage straight to the file, unsynced.
        let mut f = vfs.open_append(WAL_FILE).unwrap();
        f.append(&[1, 2, 3]).unwrap();
        drop(f);
        drop(store);
        vfs.crash();
        let (_, rec) = open_mem(&vfs);
        assert_eq!(rec.replayed, 1);
        assert!(rec.tables.contains_key("t"));
    }

    #[test]
    fn world_ext_commits_with_rows() {
        let vfs = MemVfs::new();
        let mut wt = WorldTable::new();
        let (mut store, _) = open_mem(&vfs);
        // Query side effect burnt var 0 without storing anything.
        wt.new_var(&[0.3, 0.7]).unwrap();
        // Now a CTAS stores rows referencing var 1.
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let schema = Arc::new(Schema::from_pairs(&[("a", DataType::Int)]));
        let row = UTuple::new(Tuple::new(vec![Value::Int(1)]), Wsd::of(x, 1));
        let table = URelation::new(schema, vec![row]).unwrap();
        let op = Op::PutTable {
            name: "picks".into(),
            table,
        };
        store.log(&op, &wt).unwrap();
        drop(store);
        let (_, rec) = open_mem(&vfs);
        // Both variables durable (the ext covers everything non-durable).
        assert_eq!(rec.wt.num_vars(), 2);
        assert_eq!(rec.wt.distribution(Var(1)).unwrap(), &[0.5, 0.5]);
        assert_eq!(rec.tables["picks"].tuples()[0].wsd, Wsd::of(x, 1));
    }

    #[test]
    fn checkpoint_then_snapshot_only_restart() {
        let vfs = MemVfs::new();
        let mut wt = WorldTable::new();
        wt.new_var(&[0.25, 0.75]).unwrap();
        let (mut store, mut rec) = open_mem(&vfs);
        let op = Op::CreateTable {
            name: "t".into(),
            schema: Schema::from_pairs(&[("a", DataType::Int)]),
        };
        store.log(&op, &wt).unwrap();
        apply_op(&mut rec.tables, op).unwrap();
        store.checkpoint(&rec.tables, &wt).unwrap();
        assert_eq!(store.status().wal_bytes, 0);
        drop(store);
        let (store2, rec2) = open_mem(&vfs);
        assert_eq!(rec2.replayed, 0); // snapshot-only: nothing to replay
        assert!(store2.status().has_snapshot);
        assert_eq!(rec2.tables, rec.tables);
        assert_eq!(rec2.wt.num_vars(), 1);
        assert_eq!(rec2.wt.distribution(Var(0)).unwrap(), &[0.25, 0.75]);
    }

    #[test]
    fn stale_records_after_interrupted_checkpoint_are_skipped() {
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, mut rec) = open_mem(&vfs);
        let op = Op::CreateTable {
            name: "t".into(),
            schema: Schema::from_pairs(&[("a", DataType::Int)]),
        };
        store.log(&op, &wt).unwrap();
        apply_op(&mut rec.tables, op).unwrap();
        // Simulate a checkpoint that crashed between the snapshot
        // rename and the WAL reset: write the snapshot by hand, leave
        // the WAL untouched.
        snapshot::write(&vfs, store.next_lsn, &rec.tables, &wt).unwrap();
        drop(store);
        vfs.crash();
        let (_, rec2) = open_mem(&vfs);
        assert_eq!(rec2.replayed, 0); // stale record skipped by LSN
        assert_eq!(rec2.tables, rec.tables);
        // And the interrupted checkpoint was finished: WAL reset.
        assert_eq!(vfs.read(WAL_FILE).unwrap(), WAL_MAGIC);
    }

    #[test]
    fn double_recovery_is_identical_including_files() {
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, _) = open_mem(&vfs);
        for i in 0..3 {
            store
                .log(
                    &Op::CreateTable {
                        name: format!("t{i}"),
                        schema: Schema::from_pairs(&[("a", DataType::Int)]),
                    },
                    &wt,
                )
                .unwrap();
        }
        // Tear the last record's bytes.
        let bytes = vfs.read(WAL_FILE).unwrap();
        let last = wal::scan(&bytes).unwrap().records[2].0;
        vfs.truncate(WAL_FILE, bytes.len() as u64 - 3).unwrap();
        drop(store);
        vfs.crash();
        let (store1, rec1) = open_mem(&vfs);
        assert!(rec1.truncated_tail);
        let wal_after_1 = vfs.read(WAL_FILE).unwrap();
        // The torn record is gone from the file and from the replay debt.
        assert_eq!(wal_after_1.len() as u64, last);
        assert_eq!(store1.status().wal_bytes, last - WAL_MAGIC.len() as u64);
        let (_, rec2) = open_mem(&vfs);
        assert!(!rec2.truncated_tail); // second recovery finds a clean log
        assert_eq!(vfs.read(WAL_FILE).unwrap(), wal_after_1);
        assert_eq!(rec1.tables, rec2.tables);
        assert_eq!(rec1.replayed, rec2.replayed);
    }

    #[test]
    fn poisoned_store_refuses_further_writes() {
        use crate::vfs::{FaultMode, FaultVfs};
        let mem = MemVfs::new();
        let fault = FaultVfs::new(mem.clone(), 6, FaultMode::FailStop);
        let wt = WorldTable::new();
        let (mut store, _) = Store::open(Arc::new(fault)).unwrap(); // ops 1-3
        let op = Op::CreateTable {
            name: "t".into(),
            schema: Schema::from_pairs(&[("a", DataType::Int)]),
        };
        store.log(&op, &wt).unwrap(); // ops 4-5
        let err = store.log(&op, &wt).unwrap_err(); // op 6 injected
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        let err = store.log(&op, &wt).unwrap_err();
        assert!(matches!(err, StoreError::Poisoned { .. }), "{err}");
        let err = store.checkpoint(&Catalog::new(), &wt).unwrap_err();
        assert!(matches!(err, StoreError::Poisoned { .. }), "{err}");
    }

    #[test]
    fn wal_and_checkpoint_metrics_accumulate() {
        let m = maybms_obs::metrics();
        let appends = m.wal_appends.get();
        let fsyncs = m.wal_fsync_seconds.count();
        let checkpoints = m.checkpoints.get();
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, rec) = open_mem(&vfs);
        store
            .log(
                &Op::CreateTable {
                    name: "t".into(),
                    schema: Schema::from_pairs(&[("a", DataType::Int)]),
                },
                &wt,
            )
            .unwrap();
        store.checkpoint(&rec.tables, &wt).unwrap();
        assert!(m.wal_appends.get() > appends);
        assert!(m.wal_fsync_seconds.count() > fsyncs);
        assert!(m.checkpoints.get() > checkpoints);
    }

    #[test]
    fn invalid_delta_is_refused_whole_and_corrupt_on_replay() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let setup = [
            Op::CreateTable {
                name: "t".into(),
                schema,
            },
            Op::InsertRows {
                table: "t".into(),
                rows: batch(1, &[&[Value::Int(1)], &[Value::Int(2)]]),
            },
        ];
        let update = |positions: Vec<u32>, columns: Vec<u32>, cells: &[&[Value]]| Op::UpdateRows {
            table: "t".into(),
            positions,
            columns,
            cells: batch(1, cells),
        };
        let bad = [
            (
                Op::DeleteRows {
                    table: "t".into(),
                    positions: vec![0, 2],
                },
                "out of range",
            ),
            (
                Op::DeleteRows {
                    table: "t".into(),
                    positions: vec![1, 0],
                },
                "strictly increasing",
            ),
            (
                Op::DeleteRows {
                    table: "t".into(),
                    positions: vec![1, 1],
                },
                "strictly increasing",
            ),
            (
                update(vec![2], vec![0], &[&[Value::Int(0)]]),
                "out of range",
            ),
            (
                update(vec![0], vec![1], &[&[Value::Int(0)]]),
                "column 1 out of range",
            ),
            (
                update(vec![0, 1], vec![0], &[&[Value::Int(0)]]),
                "1 × 1 cells for 2 positions × 1 columns",
            ),
            (
                Op::UpdateRows {
                    table: "t".into(),
                    positions: vec![0],
                    columns: vec![0],
                    cells: batch(2, &[&[Value::Int(0), Value::Int(1)]]),
                },
                "1 × 2 cells for 1 positions × 1 columns",
            ),
            (
                Op::InsertRows {
                    table: "t".into(),
                    rows: batch(0, &[&[]]),
                },
                "row arity 0 does not match table arity 1",
            ),
        ];
        for (op, want) in bad {
            let vfs = MemVfs::new();
            let wt = WorldTable::new();
            let (mut store, mut rec) = open_mem(&vfs);
            for op in &setup {
                store.log(op, &wt).unwrap();
                apply_op(&mut rec.tables, op.clone()).unwrap();
            }
            // Live: refused before anything changes.
            let before = fingerprint(&rec.tables, &wt);
            let err = check_op(&rec.tables, &op).unwrap_err();
            assert!(err.contains(want), "{err}");
            assert!(apply_op(&mut rec.tables, op.clone()).is_err());
            assert_eq!(fingerprint(&rec.tables, &wt), before);
            // Replay: a well-formed record that does not fit its table is
            // corruption at that record's offset, not a panic.
            let offset = WAL_MAGIC.len() as u64 + store.status().wal_bytes;
            store.log(&op, &wt).unwrap();
            drop(store);
            match Store::open(Arc::new(vfs.clone())) {
                Err(StoreError::Corrupt {
                    path,
                    offset: at,
                    reason,
                }) => {
                    assert_eq!(path, WAL_FILE);
                    assert_eq!(at, offset, "reported at the offending record's frame");
                    assert!(reason.contains(want), "{reason}");
                }
                other => panic!("expected corrupt ({want}), got {other:?}"),
            }
        }
    }

    /// Rewrite the version byte (the magic's last) of `file` in place.
    fn set_version(vfs: &MemVfs, file: &str, version: u8) {
        let mut bytes = vfs.read(file).unwrap();
        bytes[7] = version;
        let mut f = vfs.create(file).unwrap();
        f.append(&bytes).unwrap();
        f.sync().unwrap();
    }

    /// `Store::open` refuses `file` at offset 0, naming the version it
    /// found and the one it reads, and leaves every file as it was.
    fn assert_refused(vfs: &MemVfs, file: &str, found: u8, reads: u8) {
        let files = || [WAL_FILE, snapshot::SNAPSHOT_FILE].map(|f| vfs.read(f).ok());
        let before = files();
        match Store::open(Arc::new(vfs.clone())) {
            Err(StoreError::Corrupt {
                path,
                offset,
                reason,
            }) => {
                assert_eq!((path.as_str(), offset), (file, 0), "{reason}");
                for v in [found, reads] {
                    assert!(reason.contains(&format!("version {v}")), "{reason}");
                }
            }
            other => panic!("expected corrupt {file}, got {other:?}"),
        }
        assert_eq!(files(), before, "a refused directory must not be touched");
    }

    /// A directory holding a table, its rows and a WAL tail.
    fn populated(checkpoint: bool) -> MemVfs {
        let vfs = MemVfs::new();
        let wt = WorldTable::new();
        let (mut store, mut rec) = open_mem(&vfs);
        let ops = [
            Op::CreateTable {
                name: "t".into(),
                schema: Schema::from_pairs(&[("a", DataType::Int)]),
            },
            Op::InsertRows {
                table: "t".into(),
                rows: batch(1, &[&[Value::Int(1)]]),
            },
        ];
        for (k, op) in ops.into_iter().enumerate() {
            store.log(&op, &wt).unwrap();
            apply_op(&mut rec.tables, op).unwrap();
            if checkpoint && k == 0 {
                store.checkpoint(&rec.tables, &wt).unwrap();
            }
        }
        vfs
    }

    #[test]
    fn wal_of_an_older_version_is_refused_untouched() {
        // Version 2 logged `INSERT` and `UPDATE` as row images.
        let vfs = populated(false);
        set_version(&vfs, WAL_FILE, 2);
        assert_refused(&vfs, WAL_FILE, 2, WAL_MAGIC[7]);
    }

    #[test]
    fn snapshot_of_an_older_version_is_refused_untouched() {
        let vfs = populated(true);
        set_version(&vfs, snapshot::SNAPSHOT_FILE, 2);
        assert_refused(
            &vfs,
            snapshot::SNAPSHOT_FILE,
            2,
            snapshot::SNAPSHOT_MAGIC[7],
        );
    }

    /// The exact bytes this build writes: one framed WAL record per op tag
    /// and one snapshot image. Every other test round-trips, so only this
    /// one sees a silent format change. Changing these bytes means
    /// changing the format: bump `WAL_MAGIC` / `SNAPSHOT_MAGIC` with them.
    /// Spaces split fields: `[len] [crc] [lsn] [world ext] [tag] [name]`,
    /// then the op's body.
    #[test]
    fn durable_bytes_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.25, 0.75]).unwrap();
        let picks = URelation::new(
            Arc::new(Schema::from_pairs(&[("s", DataType::Text)])),
            vec![UTuple::new(
                Tuple::new(vec![Value::str("ab")]),
                Wsd::of(x, 1),
            )],
        )
        .unwrap()
        .dict_encode();
        let t_schema = Schema::from_pairs(&[("a", DataType::Int)]);
        // The table image (tag 5 body, snapshot table): schema, rows,
        // columns, one dictionary column (entries, codes, nulls), WSDs.
        let image = "01000000 00 0100000073 03 01000000 01000000 \
                     04 01000000 020000006162 00000000 00000000 01000000 00000000 0100";
        let dists = "01000000 02000000 000000000000d03f 000000000000e83f";
        let records: [(WorldExt, Op, String); 6] = [
            (
                None,
                Op::CreateTable {
                    name: "t".into(),
                    schema: t_schema,
                },
                "1a000000 3df3fb27 0000000000000000 00 00 0100000074 01000000 00 0100000061 01"
                    .into(),
            ),
            (
                None,
                Op::InsertRows {
                    table: "t".into(),
                    rows: batch(1, &[&[Value::Int(1)]]),
                },
                // Rows, columns, an `Int` column (values, nulls).
                "24000000 a29a9df1 0100000000000000 00 02 0100000074 \
                 01000000 01000000 00 0100000000000000 00000000"
                    .into(),
            ),
            (
                None,
                Op::DropTable { name: "t".into() },
                "0f000000 f56ccc8e 0200000000000000 00 04 0100000074".into(),
            ),
            (
                Some((0, vec![vec![0.25, 0.75]])),
                Op::PutTable {
                    name: "p".into(),
                    table: picks.clone(),
                },
                format!(
                    "5b000000 41b9b3c5 0300000000000000 01 00000000 {dists} 05 0100000070 {image}"
                ),
            ),
            (
                None,
                Op::UpdateRows {
                    table: "t".into(),
                    positions: vec![0],
                    columns: vec![0],
                    cells: batch(1, &[&[Value::Null]]),
                },
                // Positions, columns, then the cells: rows, columns, one
                // all-NULL `Const` column.
                "29000000 86036d64 0400000000000000 00 06 0100000074 \
                 01000000 00000000 01000000 00000000 01000000 01000000 06 00"
                    .into(),
            ),
            (
                None,
                Op::DeleteRows {
                    table: "t".into(),
                    positions: vec![0],
                },
                "17000000 018e3130 0500000000000000 00 07 0100000074 01000000 00000000".into(),
            ),
        ];
        let unspaced = |s: &str| s.split_whitespace().collect::<String>();
        for (lsn, (ext, op, want)) in records.into_iter().enumerate() {
            let frame = wal::frame_record(lsn as u64, &ext, &op);
            assert_eq!(hex(&frame), unspaced(&want), "{op:?}");
        }
        // Magic "MAYBSNP\x03", [len] [crc], base LSN, the world table, one
        // named table.
        let snap = format!(
            "4d415942534e5003 59000000 485b88d4 0600000000000000 {dists} 01000000 0100000070 {image}"
        );
        let tables = Catalog::from([("p".to_string(), picks)]);
        assert_eq!(hex(&snapshot::encode(6, &tables, &wt)), unspaced(&snap));
    }

    #[test]
    fn apply_op_reports_missing_tables() {
        let mut tables = Catalog::new();
        assert!(apply_op(&mut tables, Op::DropTable { name: "x".into() }).is_err());
        assert!(apply_op(
            &mut tables,
            Op::InsertRows {
                table: "x".into(),
                rows: ColumnBatch::empty(1)
            }
        )
        .is_err());
    }
}
