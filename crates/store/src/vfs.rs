//! The virtual file system the store writes through.
//!
//! All durable I/O — WAL appends, fsyncs, snapshot writes, the atomic
//! rename — goes through the [`Vfs`] trait, so the same WAL/checkpoint/
//! recovery code runs against three backends:
//!
//! * [`StdVfs`] — real files rooted in a data directory (`std::fs`);
//! * [`MemVfs`] — an in-memory filesystem with *crash semantics*: every
//!   file tracks a durable image (what survives a crash) separately from
//!   its current content, and only `fsync` promotes current → durable.
//!   [`MemVfs::crash`] reverts to the durable view, which is what the
//!   crash-matrix tests simulate a power cut with;
//! * [`FaultVfs`] — wraps a `MemVfs` and fails (or tears) the Nth
//!   mutating operation, after which every operation fails: the process
//!   is "dead" from that point, and the harness crashes + recovers. In
//!   [`FaultMode::Outage`] it instead fails a run of operations and then
//!   heals, so a live process can reopen its poisoned store.
//!
//! Paths are flat file names relative to the data directory (the store
//! uses only `wal`, `snapshot`, and `snapshot.tmp`).
//!
//! Durability model: `append` is volatile until `sync`; `rename` is
//! atomic and immediately durable (the journalling-filesystem guarantee
//! `StdVfs` approximates by fsyncing the parent directory). Recovery
//! never depends on the content of an unsynced write.

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::{Result, StoreError};

/// Build an I/O error for `path`/`op` from a message.
fn io_err(path: &str, op: &'static str, message: impl ToString) -> StoreError {
    StoreError::Io {
        path: path.to_string(),
        op,
        message: message.to_string(),
    }
}

/// An open file handle (append-only; the store never seeks).
pub trait VfsFile: Send {
    /// Append bytes at the end of the file. Volatile until [`VfsFile::sync`].
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Make everything appended so far durable (fsync).
    fn sync(&mut self) -> Result<()>;
}

/// A minimal filesystem abstraction; see the module docs for semantics.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read a whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>>;
    /// Whether a file exists.
    fn exists(&self, path: &str) -> Result<bool>;
    /// Create (or truncate) a file and return an append handle.
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>>;
    /// Open an existing file for appending.
    fn open_append(&self, path: &str) -> Result<Box<dyn VfsFile>>;
    /// Truncate a file to `len` bytes (used to chop a torn WAL tail);
    /// durable once the next `sync` on an append handle completes — the
    /// implementations here make it durable immediately, which is the
    /// conservative direction for recovery (the tail is already gone).
    fn truncate(&self, path: &str, len: u64) -> Result<()>;
    /// Atomically replace `to` with `from` (both content and existence).
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Remove a file (used for stale `snapshot.tmp` leftovers).
    fn remove(&self, path: &str) -> Result<()>;
    /// Human-readable location for banners and error messages.
    fn location(&self) -> String;
}

// ---------------------------------------------------------------------
// StdVfs — real files under a data directory.
// ---------------------------------------------------------------------

/// Real-filesystem backend rooted at a data directory.
#[derive(Debug)]
pub struct StdVfs {
    root: PathBuf,
}

impl StdVfs {
    /// Open (creating if needed) a data directory.
    pub fn open(root: impl AsRef<Path>) -> Result<StdVfs> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err(&root.display().to_string(), "create-dir", e))?;
        Ok(StdVfs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Fsync the data directory itself so renames/creates are durable.
    fn sync_dir(&self) -> Result<()> {
        let dir = std::fs::File::open(&self.root)
            .map_err(|e| io_err(&self.root.display().to_string(), "open-dir", e))?;
        dir.sync_all()
            .map_err(|e| io_err(&self.root.display().to_string(), "fsync-dir", e))
    }
}

/// Append handle over a real file.
struct StdFile {
    file: std::fs::File,
    path: String,
}

impl VfsFile for StdFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        // Handles from `create` carry a plain cursor, and `truncate`
        // through another handle may shrink the file underneath one;
        // writing at a stale cursor past EOF would punch a zero-filled
        // hole. Append means append: seek to the real end first (a no-op
        // for O_APPEND handles from `open_append`).
        use std::io::Seek as _;
        self.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&self.path, "append-seek", e))?;
        self.file
            .write_all(data)
            .map_err(|e| io_err(&self.path, "append", e))
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err(&self.path, "fsync", e))
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        std::fs::read(self.path(path)).map_err(|e| io_err(path, "read", e))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.path(path).exists())
    }

    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let file = std::fs::File::create(self.path(path)).map_err(|e| io_err(path, "create", e))?;
        self.sync_dir()?;
        Ok(Box::new(StdFile {
            file,
            path: path.to_string(),
        }))
    }

    fn open_append(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(path))
            .map_err(|e| io_err(path, "open-append", e))?;
        Ok(Box::new(StdFile {
            file,
            path: path.to_string(),
        }))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(path))
            .map_err(|e| io_err(path, "open-truncate", e))?;
        file.set_len(len).map_err(|e| io_err(path, "truncate", e))?;
        file.sync_all().map_err(|e| io_err(path, "fsync", e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| io_err(from, "rename", e))?;
        self.sync_dir()
    }

    fn remove(&self, path: &str) -> Result<()> {
        std::fs::remove_file(self.path(path)).map_err(|e| io_err(path, "remove", e))
    }

    fn location(&self) -> String {
        self.root.display().to_string()
    }
}

// ---------------------------------------------------------------------
// MemVfs — in-memory filesystem with crash semantics.
// ---------------------------------------------------------------------

/// One in-memory file: current content plus the durable image.
#[derive(Debug, Clone, Default)]
struct MemFile {
    /// Current content (what readers of the live process see).
    cur: Vec<u8>,
    /// Content guaranteed to survive a crash; `None` = the file itself
    /// does not durably exist yet.
    durable: Option<Vec<u8>>,
}

/// In-memory filesystem with explicit crash semantics (see module docs).
/// Cheap to clone: clones share the same underlying files.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<HashMap<String, MemFile>>>,
}

impl MemVfs {
    /// A fresh, empty in-memory filesystem.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, MemFile>> {
        // A poisoned lock means a panic mid-mutation in *this test
        // process*; the durable image is still the right thing to expose.
        match self.files.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Simulate a power cut: every file reverts to its durable image;
    /// files never synced disappear entirely.
    pub fn crash(&self) {
        let mut files = self.lock();
        files.retain(|_, f| f.durable.is_some());
        for f in files.values_mut() {
            f.cur = f.durable.clone().unwrap_or_default();
        }
    }

    /// Current size of a file, for tests.
    pub fn size(&self, path: &str) -> Option<usize> {
        self.lock().get(path).map(|f| f.cur.len())
    }
}

/// Append handle over an in-memory file.
struct MemHandle {
    vfs: MemVfs,
    path: String,
}

impl VfsFile for MemHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut files = self.vfs.lock();
        let f = files
            .get_mut(&self.path)
            .ok_or_else(|| io_err(&self.path, "append", "file removed"))?;
        f.cur.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut files = self.vfs.lock();
        let f = files
            .get_mut(&self.path)
            .ok_or_else(|| io_err(&self.path, "fsync", "file removed"))?;
        f.durable = Some(f.cur.clone());
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.lock()
            .get(path)
            .map(|f| f.cur.clone())
            .ok_or_else(|| io_err(path, "read", "no such file"))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.lock().contains_key(path))
    }

    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let mut files = self.lock();
        let f = files.entry(path.to_string()).or_default();
        f.cur.clear();
        Ok(Box::new(MemHandle {
            vfs: self.clone(),
            path: path.to_string(),
        }))
    }

    fn open_append(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        if !self.lock().contains_key(path) {
            return Err(io_err(path, "open-append", "no such file"));
        }
        Ok(Box::new(MemHandle {
            vfs: self.clone(),
            path: path.to_string(),
        }))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let mut files = self.lock();
        let f = files
            .get_mut(path)
            .ok_or_else(|| io_err(path, "truncate", "no such file"))?;
        f.cur.truncate(len as usize);
        // Conservative: a truncate used by recovery is made durable at
        // once (the chopped tail can never come back after a re-crash).
        if let Some(d) = &mut f.durable {
            d.truncate(len as usize);
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.lock();
        let mut f = files
            .remove(from)
            .ok_or_else(|| io_err(from, "rename", "no such file"))?;
        // Atomic + durable (see module docs): the renamed file's durable
        // image is its current content.
        f.durable = Some(f.cur.clone());
        files.insert(to.to_string(), f);
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.lock()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io_err(path, "remove", "no such file"))
    }

    fn location(&self) -> String {
        "<memory>".into()
    }
}

// ---------------------------------------------------------------------
// FaultVfs — fail or tear the Nth mutating operation.
// ---------------------------------------------------------------------

/// What the injected fault does at the chosen operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation has no effect and errors (a failed fsync, a full
    /// disk, a pulled cable).
    FailStop,
    /// An `append` writes only the first half of its bytes before
    /// erroring (a torn write); other operations behave like
    /// [`FaultMode::FailStop`].
    Torn,
    /// Starting at the fault point, the next `ops` mutating operations
    /// fail like [`FaultMode::FailStop`], then the VFS heals: an outage
    /// the process outlives. Exercises reopening a poisoned store.
    Outage {
        /// How many consecutive mutating operations fail.
        ops: u32,
    },
}

#[derive(Debug)]
struct FaultState {
    /// Mutating ops seen so far.
    counter: u64,
    /// Fail when `counter` reaches this (1-based).
    fail_at: u64,
    mode: FaultMode,
}

/// Fault-injection wrapper around [`MemVfs`]: mutating operations
/// (`create`, `append`, `sync`, `truncate`, `rename`, `remove`) are
/// counted and the `fail_at`-th fails per [`FaultMode`]. Unless the mode
/// is an [`FaultMode::Outage`], every operation after that fails too —
/// the process is considered dead.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: MemVfs,
    state: Arc<Mutex<FaultState>>,
    triggered: Arc<AtomicBool>,
}

impl FaultVfs {
    /// Wrap `inner`, failing the `fail_at`-th mutating operation.
    pub fn new(inner: MemVfs, fail_at: u64, mode: FaultMode) -> FaultVfs {
        FaultVfs {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                counter: 0,
                fail_at,
                mode,
            })),
            triggered: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether the fault point was reached. When a whole run finishes
    /// with this still `false`, the crash matrix has covered every
    /// injection point and can stop.
    pub fn triggered(&self) -> bool {
        self.triggered.load(Ordering::SeqCst)
    }

    /// Whether the process is dead (a [`FaultMode::FailStop`]/[`Torn`]
    /// fault fired). An outage never kills the process.
    ///
    /// [`Torn`]: FaultMode::Torn
    fn dead(&self) -> bool {
        if !self.triggered() {
            return false;
        }
        let s = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        !matches!(s.mode, FaultMode::Outage { .. })
    }

    /// Count one mutating op and report the fault to apply, if any. For
    /// fail-stop/torn modes, the `fail_at`-th op gets the mode and every
    /// later op errors (the process is dead). For an outage, ops
    /// `fail_at .. fail_at + ops` get the mode; everything else
    /// succeeds. Returns the mode on the exact failing op so `append` can
    /// tear.
    fn step(&self, path: &str, op: &'static str) -> Result<Option<FaultMode>> {
        let mut s = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        s.counter += 1;
        match s.mode {
            FaultMode::Outage { ops } => {
                if s.counter >= s.fail_at && s.counter < s.fail_at + ops as u64 {
                    self.triggered.store(true, Ordering::SeqCst);
                    Ok(Some(s.mode))
                } else {
                    Ok(None)
                }
            }
            FaultMode::FailStop | FaultMode::Torn => {
                if s.counter == s.fail_at {
                    self.triggered.store(true, Ordering::SeqCst);
                    Ok(Some(s.mode))
                } else if s.counter > s.fail_at {
                    Err(io_err(path, op, "injected fault: process crashed"))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Append handle that routes through the fault counter.
struct FaultHandle {
    inner: Box<dyn VfsFile>,
    fault: FaultVfs,
    path: String,
}

impl VfsFile for FaultHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        match self.fault.step(&self.path, "append")? {
            None => self.inner.append(data),
            Some(FaultMode::Torn) => {
                // Write half the bytes, then die: the classic torn write.
                let half = data.len() / 2;
                let _ = self.inner.append(&data[..half]);
                Err(io_err(&self.path, "append", "injected fault: torn write"))
            }
            Some(_) => Err(io_err(&self.path, "append", "injected fault: write failed")),
        }
    }

    fn sync(&mut self) -> Result<()> {
        match self.fault.step(&self.path, "fsync")? {
            None => self.inner.sync(),
            // A failed fsync promotes nothing: unsynced bytes stay
            // volatile and die with the crash.
            Some(_) => Err(io_err(&self.path, "fsync", "injected fault: fsync failed")),
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        if self.dead() {
            return Err(io_err(path, "read", "injected fault: process crashed"));
        }
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> Result<bool> {
        if self.dead() {
            return Err(io_err(path, "exists", "injected fault: process crashed"));
        }
        self.inner.exists(path)
    }

    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        match self.step(path, "create")? {
            None => Ok(Box::new(FaultHandle {
                inner: self.inner.create(path)?,
                fault: self.clone(),
                path: path.to_string(),
            })),
            Some(_) => Err(io_err(path, "create", "injected fault: create failed")),
        }
    }

    fn open_append(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        if self.dead() {
            return Err(io_err(
                path,
                "open-append",
                "injected fault: process crashed",
            ));
        }
        Ok(Box::new(FaultHandle {
            inner: self.inner.open_append(path)?,
            fault: self.clone(),
            path: path.to_string(),
        }))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        match self.step(path, "truncate")? {
            None => self.inner.truncate(path, len),
            Some(_) => Err(io_err(path, "truncate", "injected fault: truncate failed")),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        match self.step(from, "rename")? {
            None => self.inner.rename(from, to),
            Some(_) => Err(io_err(from, "rename", "injected fault: rename failed")),
        }
    }

    fn remove(&self, path: &str) -> Result<()> {
        match self.step(path, "remove")? {
            None => self.inner.remove(path),
            Some(_) => Err(io_err(path, "remove", "injected fault: remove failed")),
        }
    }

    fn location(&self) -> String {
        "<memory, fault-injected>".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_drops_unsynced_appends() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("wal").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        assert_eq!(vfs.read("wal").unwrap(), b"durable volatile");
        vfs.crash();
        assert_eq!(vfs.read("wal").unwrap(), b"durable");
    }

    #[test]
    fn mem_crash_removes_never_synced_files() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("tmp").unwrap();
        f.append(b"x").unwrap();
        vfs.crash();
        assert!(!vfs.exists("tmp").unwrap());
    }

    #[test]
    fn mem_rename_is_atomic_and_durable() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("a").unwrap();
        f.append(b"payload").unwrap();
        f.sync().unwrap();
        vfs.rename("a", "b").unwrap();
        vfs.crash();
        assert!(!vfs.exists("a").unwrap());
        assert_eq!(vfs.read("b").unwrap(), b"payload");
    }

    #[test]
    fn fault_fails_nth_op_then_everything() {
        let mem = MemVfs::new();
        let fault = FaultVfs::new(mem.clone(), 3, FaultMode::FailStop);
        let mut f = fault.create("wal").unwrap(); // op 1
        f.append(b"one").unwrap(); // op 2
        assert!(f.sync().is_err()); // op 3: injected
        assert!(fault.triggered());
        assert!(f.append(b"two").is_err()); // dead
        mem.crash();
        assert!(!mem.exists("wal").unwrap()); // nothing ever synced
    }

    #[test]
    fn torn_append_writes_prefix() {
        let mem = MemVfs::new();
        let fault = FaultVfs::new(mem.clone(), 2, FaultMode::Torn);
        let mut f = fault.create("wal").unwrap(); // op 1
        assert!(f.append(b"abcdef").is_err()); // op 2: torn
        assert_eq!(mem.read("wal").unwrap(), b"abc");
    }

    #[test]
    fn outage_fails_a_run_of_ops_then_heals() {
        let mem = MemVfs::new();
        let fault = FaultVfs::new(mem.clone(), 2, FaultMode::Outage { ops: 2 });
        let mut f = fault.create("wal").unwrap(); // op 1
        assert!(f.append(b"lost").is_err()); // op 2: outage
        assert!(f.sync().is_err()); // op 3: outage
        assert!(fault.triggered());
        assert!(fault.read("wal").unwrap().is_empty()); // not dead
        f.append(b"kept").unwrap(); // op 4: healed
        f.sync().unwrap();
        assert_eq!(mem.read("wal").unwrap(), b"kept");
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("maybms_vfs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = StdVfs::open(&dir).unwrap();
        let mut f = vfs.create("wal").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read("wal").unwrap(), b"hello");
        let mut f = vfs.open_append("wal").unwrap();
        f.append(b" world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read("wal").unwrap(), b"hello world");
        vfs.truncate("wal", 5).unwrap();
        assert_eq!(vfs.read("wal").unwrap(), b"hello");
        vfs.rename("wal", "wal2").unwrap();
        assert!(!vfs.exists("wal").unwrap());
        vfs.remove("wal2").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
