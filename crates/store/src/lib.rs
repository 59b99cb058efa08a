//! Durability for the MayBMS catalog: write-ahead logging, atomic
//! checkpoints, and crash recovery.
//!
//! The store persists the *catalog* — stored U-relations plus the world
//! table — not query results. Mutating statements log a physical
//! [`Op`] (the rows appended, the cells changed, the positions removed —
//! not SQL text: `repair key` / `pick tuples` introduce world-table
//! variables nondeterministically relative to a replay context, so
//! logical replay would misalign variable ids) to a checksummed WAL
//! before the change is installed in memory.
//! [`Store::checkpoint`] folds everything into one atomically-renamed
//! snapshot and empties the log; [`Store::open`] recovers by loading
//! the snapshot and replaying the WAL tail, truncating at the first
//! torn record.
//!
//! All file traffic goes through the [`Vfs`] trait: [`StdVfs`] for real
//! directories, [`MemVfs`] for tests (with a [`MemVfs::crash`] that
//! drops unsynced writes), and [`FaultVfs`] for fault injection — fail
//! or tear the Nth mutating operation, which the crash-matrix tests use
//! to prove every statement is atomic and recovery is idempotent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod error;
pub mod snapshot;
mod store;
mod vfs;
pub mod wal;

pub use error::{Result, StoreError};
pub use snapshot::Catalog;
pub use store::{apply_op, check_op, fingerprint, Recovered, Store, StoreStatus};
pub use vfs::{FaultMode, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile};
pub use wal::{Op, WalRecord, WorldExt};
