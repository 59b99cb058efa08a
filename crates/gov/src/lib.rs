//! # maybms-gov — statement lifecycle control (the query governor)
//!
//! A single misbehaving statement must not take the engine with it: this
//! crate provides per-statement **cancellation**, **deadlines**, and
//! **memory budgets**, checked cooperatively at the engine's natural
//! yield points (every morsel boundary in `maybms-pipe`, every Monte
//! Carlo sample batch and d-tree node in `maybms-conf`) and surfaced as
//! typed [`GovError`]s that unwind cleanly through the ordinary error
//! channels.
//!
//! ## Design
//!
//! Statements on a database execute serially (`&mut self`), so the
//! governor keeps its state in **process-wide atomics** — the same
//! pattern as the `maybms-obs` metrics registry — instead of threading a
//! context handle through every operator signature. A
//! [`StatementGuard`] (created by [`begin_statement`] in `core::db`)
//! installs the session's armed limits on entry and clears them on drop,
//! panic included.
//!
//! The cost contract when no limit is armed is **one relaxed atomic
//! load per checkpoint** ([`check`] fast-path) — enforced by the CI
//! `--assert-overhead` gates, which run with the governor compiled in
//! and limits disabled. Memory accounting is a relaxed-atomic byte
//! tally charged/credited at *allocation events* (chunk seals, hash
//! table builds, group opens), never per row; it tracks operator
//! working memory (batch builders, join build tables, group tables),
//! not retained query results.
//!
//! ## Abort safety
//!
//! A governor abort leaves the catalog bit-identical to the
//! pre-statement state: mutations go through the WAL commit protocol
//! (log, then apply), and `core::db` checks the governor immediately
//! before logging — an abort always happens *before* the commit point,
//! never between log and apply. The cancellation-point matrix test
//! (`tests/cancel_matrix.rs`) injects aborts at every checkpoint and
//! asserts the store fingerprint is unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no limit" in the nanosecond/byte atomics.
const OFF: u64 = u64::MAX;

/// Typed governor abort, raised at a cooperative checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovError {
    /// The statement was cancelled (the `\cancel` watchdog fired).
    Cancelled,
    /// The statement ran past its deadline (`\timeout N`,
    /// `MAYBMS_STATEMENT_TIMEOUT_MS`).
    DeadlineExceeded {
        /// The armed limit, for the message.
        limit_ms: u64,
    },
    /// The tracked working-memory tally exceeded the budget
    /// (`\memlimit N`, `MAYBMS_MEM_BUDGET_MB`).
    MemBudgetExceeded {
        /// Tally at the failing checkpoint, in bytes.
        used_bytes: u64,
        /// The armed budget, in bytes.
        budget_bytes: u64,
    },
}

impl fmt::Display for GovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovError::Cancelled => write!(f, "statement cancelled"),
            GovError::DeadlineExceeded { limit_ms } => {
                write!(f, "statement deadline exceeded ({limit_ms} ms)")
            }
            GovError::MemBudgetExceeded {
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "statement memory budget exceeded ({used_bytes} bytes charged, \
                 budget {budget_bytes} bytes)"
            ),
        }
    }
}

impl std::error::Error for GovError {}

/// Which abort the test-hook injection should raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// Inject [`GovError::Cancelled`].
    Cancel,
    /// Inject [`GovError::DeadlineExceeded`].
    Deadline,
    /// Inject [`GovError::MemBudgetExceeded`].
    MemBudget,
}

// ---------------------------------------------------------------------
// Process-wide governor state
// ---------------------------------------------------------------------

/// Fast-path gate: true iff a statement is live AND at least one limit
/// (or the test injection hook) is armed. The *only* load on the
/// disabled path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Cancellation flag of the live statement.
static CANCEL: AtomicBool = AtomicBool::new(false);

/// Absolute deadline in [`maybms_obs::monotonic_nanos`] time (OFF = none).
static DEADLINE_NANOS: AtomicU64 = AtomicU64::new(OFF);
/// The armed limit in ms, for the error message and EXPLAIN slack line.
static DEADLINE_LIMIT_MS: AtomicU64 = AtomicU64::new(0);

/// Armed budget in bytes for the live statement (OFF = none).
static MEM_BUDGET: AtomicU64 = AtomicU64::new(OFF);
/// Live working-memory tally in bytes (always on; see module docs).
static MEM_USED: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `MEM_USED` since the last [`begin_statement`].
static MEM_PEAK: AtomicU64 = AtomicU64::new(0);
/// `MEM_USED` at [`begin_statement`], so the peak can be reported
/// relative to the statement's own start.
static MEM_BASE: AtomicU64 = AtomicU64::new(0);

/// Statement generation: bumped on every install and drop so a stale
/// `\cancel` watchdog (or token) cannot cancel a *later* statement.
static STMT_EPOCH: AtomicU64 = AtomicU64::new(0);

// Session-level settings (apply to every subsequent statement).
static TIMEOUT_MS: AtomicU64 = AtomicU64::new(OFF);
static BUDGET_BYTES: AtomicU64 = AtomicU64::new(OFF);
/// One-shot `\cancel` delay for the *next* statement (OFF = not armed).
static ARMED_CANCEL_MS: AtomicU64 = AtomicU64::new(OFF);

// Test hook: fail the Nth checkpoint with `INJECT_KIND`.
static INJECT_AFTER: AtomicU64 = AtomicU64::new(OFF);
static INJECT_KIND: AtomicU64 = AtomicU64::new(0);
static INJECT_FIRED: AtomicBool = AtomicBool::new(false);

static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Load `MAYBMS_STATEMENT_TIMEOUT_MS` / `MAYBMS_MEM_BUDGET_MB` into the
/// session settings, once per process (`0` or unparsable = off).
/// Explicit setters below override.
fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        let parse = |name: &str| -> Option<u64> {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0)
        };
        if let Some(ms) = parse("MAYBMS_STATEMENT_TIMEOUT_MS") {
            TIMEOUT_MS.store(ms, Ordering::Relaxed);
        }
        if let Some(mb) = parse("MAYBMS_MEM_BUDGET_MB") {
            BUDGET_BYTES.store(mb.saturating_mul(1 << 20), Ordering::Relaxed);
        }
    });
}

// ---------------------------------------------------------------------
// Session settings (shell knobs / env)
// ---------------------------------------------------------------------

/// Set or clear the per-statement deadline applied to every subsequent
/// statement (the shell's `\timeout N|off`).
pub fn set_statement_timeout_ms(ms: Option<u64>) {
    init_from_env();
    TIMEOUT_MS.store(ms.filter(|&n| n > 0).unwrap_or(OFF), Ordering::Relaxed);
}

/// The session statement deadline, if armed.
pub fn statement_timeout_ms() -> Option<u64> {
    init_from_env();
    match TIMEOUT_MS.load(Ordering::Relaxed) {
        OFF => None,
        ms => Some(ms),
    }
}

/// Set or clear the session memory budget in mebibytes (the shell's
/// `\memlimit N|off`).
pub fn set_mem_budget_mb(mb: Option<u64>) {
    init_from_env();
    BUDGET_BYTES.store(
        mb.filter(|&n| n > 0)
            .map(|n| n.saturating_mul(1 << 20))
            .unwrap_or(OFF),
        Ordering::Relaxed,
    );
}

/// The session memory budget in bytes, if armed.
pub fn mem_budget_bytes() -> Option<u64> {
    init_from_env();
    match BUDGET_BYTES.load(Ordering::Relaxed) {
        OFF => None,
        b => Some(b),
    }
}

/// Arm a one-shot cancellation of the **next** statement, fired by a
/// watchdog thread `delay_ms` after the statement begins (the shell's
/// `\cancel [N]`).
pub fn arm_cancel(delay_ms: u64) {
    ARMED_CANCEL_MS.store(delay_ms, Ordering::Relaxed);
}

/// The armed one-shot cancel delay, if any (for the banner/`\help`).
pub fn armed_cancel_ms() -> Option<u64> {
    match ARMED_CANCEL_MS.load(Ordering::Relaxed) {
        OFF => None,
        ms => Some(ms),
    }
}

// ---------------------------------------------------------------------
// Statement lifecycle
// ---------------------------------------------------------------------

/// The `\cancel` watchdog's handle: cancels the statement it was issued
/// for (and only that statement — a fired token for a finished statement
/// is a no-op).
struct CancelToken {
    epoch: u64,
}

impl CancelToken {
    /// Cancel the statement this token belongs to, if it is still live.
    fn cancel(&self) {
        if STMT_EPOCH.load(Ordering::Acquire) == self.epoch {
            CANCEL.store(true, Ordering::Relaxed);
            // Make the checkpoints look: a mid-statement cancel must be
            // seen even when no other limit was armed at install time.
            ACTIVE.store(true, Ordering::Release);
        }
    }
}

/// RAII scope of one statement's governor state. Created by
/// [`begin_statement`]; drop (normal return, error, or panic unwind)
/// clears every per-statement limit.
#[derive(Debug)]
pub struct StatementGuard(());

/// Install the session's armed limits for one statement. Resets the
/// statement-peak tally, consumes a pending `\cancel` arming (spawning
/// its watchdog thread), and returns the RAII guard.
pub fn begin_statement() -> StatementGuard {
    init_from_env();
    let epoch = STMT_EPOCH.fetch_add(1, Ordering::AcqRel) + 1;
    CANCEL.store(false, Ordering::Relaxed);
    INJECT_FIRED.store(false, Ordering::Relaxed);
    let base = MEM_USED.load(Ordering::Relaxed);
    MEM_BASE.store(base, Ordering::Relaxed);
    MEM_PEAK.store(base, Ordering::Relaxed);

    let timeout = TIMEOUT_MS.load(Ordering::Relaxed);
    let budget = BUDGET_BYTES.load(Ordering::Relaxed);
    let armed_cancel = ARMED_CANCEL_MS.swap(OFF, Ordering::Relaxed);

    if timeout != OFF {
        DEADLINE_LIMIT_MS.store(timeout, Ordering::Relaxed);
        DEADLINE_NANOS.store(
            maybms_obs::monotonic_nanos().saturating_add(timeout.saturating_mul(1_000_000)),
            Ordering::Relaxed,
        );
    } else {
        DEADLINE_NANOS.store(OFF, Ordering::Relaxed);
    }
    MEM_BUDGET.store(budget, Ordering::Relaxed);
    if armed_cancel != OFF {
        let token = CancelToken { epoch };
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(armed_cancel));
            token.cancel();
        });
    }
    let armed = timeout != OFF
        || budget != OFF
        || armed_cancel != OFF
        || INJECT_AFTER.load(Ordering::Relaxed) != OFF;
    ACTIVE.store(armed, Ordering::Release);
    StatementGuard(())
}

impl Drop for StatementGuard {
    fn drop(&mut self) {
        // Disarm everything statement-scoped. Epoch bump first so a
        // racing watchdog observes the statement as finished.
        STMT_EPOCH.fetch_add(1, Ordering::AcqRel);
        ACTIVE.store(false, Ordering::Release);
        CANCEL.store(false, Ordering::Relaxed);
        DEADLINE_NANOS.store(OFF, Ordering::Relaxed);
        MEM_BUDGET.store(OFF, Ordering::Relaxed);
        INJECT_FIRED.store(false, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Cooperative checkpoints
// ---------------------------------------------------------------------

/// The cooperative checkpoint, called at every morsel boundary, sample
/// batch, and d-tree node. With no limit armed this is one relaxed
/// atomic load (the CI overhead gates hold the governor to that).
#[inline]
pub fn check() -> Result<(), GovError> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    check_armed()
}

/// Amortised cooperative checkpoint for per-output-row loops.
///
/// Boundary checks (morsel, sample batch, d-tree node) are not enough
/// for loops whose output is unbounded in their *input* sizes — a cross
/// product expands two in-RAM relations into something that may never
/// fit, all inside one boundary. Embed a `Ticker` in such a loop and
/// call [`Ticker::tick`] once per output row: every
/// [`Ticker::EVERY`]th call runs a real [`check`], the rest are a
/// branch-predictable counter bump.
#[derive(Default)]
pub struct Ticker(u32);

impl Ticker {
    /// Output rows between real [`check`]s.
    pub const EVERY: u32 = 1024;

    /// A fresh ticker (first real check after [`Ticker::EVERY`] ticks).
    pub fn new() -> Ticker {
        Ticker(0)
    }

    /// Count one output row; run [`check`] on every `EVERY`th call.
    #[inline]
    pub fn tick(&mut self) -> Result<(), GovError> {
        self.0 += 1;
        if self.0 >= Ticker::EVERY {
            self.0 = 0;
            check()?;
        }
        Ok(())
    }

    /// Count `n` output rows at once — as many real [`check`]s as `n`
    /// calls of [`Ticker::tick`] would run.
    #[inline]
    pub fn tick_n(&mut self, n: usize) -> Result<(), GovError> {
        let mut left = n;
        while left > 0 {
            let step = left.min((Ticker::EVERY - self.0) as usize);
            left -= step;
            self.0 += step as u32;
            if self.0 >= Ticker::EVERY {
                self.0 = 0;
                check()?;
            }
        }
        Ok(())
    }
}

#[cold]
fn check_armed() -> Result<(), GovError> {
    if let Some(kind) = inject_tick() {
        return Err(match kind {
            AbortKind::Cancel => GovError::Cancelled,
            AbortKind::Deadline => GovError::DeadlineExceeded {
                limit_ms: DEADLINE_LIMIT_MS.load(Ordering::Relaxed),
            },
            AbortKind::MemBudget => GovError::MemBudgetExceeded {
                used_bytes: MEM_USED.load(Ordering::Relaxed),
                budget_bytes: MEM_BUDGET.load(Ordering::Relaxed),
            },
        });
    }
    if CANCEL.load(Ordering::Relaxed) {
        return Err(GovError::Cancelled);
    }
    let dl = DEADLINE_NANOS.load(Ordering::Relaxed);
    if dl != OFF && maybms_obs::monotonic_nanos() >= dl {
        return Err(GovError::DeadlineExceeded {
            limit_ms: DEADLINE_LIMIT_MS.load(Ordering::Relaxed),
        });
    }
    let budget = MEM_BUDGET.load(Ordering::Relaxed);
    if budget != OFF {
        let used = MEM_USED
            .load(Ordering::Relaxed)
            .saturating_sub(MEM_BASE.load(Ordering::Relaxed));
        if used > budget {
            return Err(GovError::MemBudgetExceeded {
                used_bytes: used,
                budget_bytes: budget,
            });
        }
    }
    Ok(())
}

/// Advance the injection countdown by one checkpoint; returns the kind
/// to raise once the Nth checkpoint has been reached (sticky until the
/// statement ends, like a real cancellation).
fn inject_tick() -> Option<AbortKind> {
    let armed = INJECT_AFTER.load(Ordering::Relaxed);
    if armed == OFF {
        return None;
    }
    let kind = match INJECT_KIND.load(Ordering::Relaxed) {
        0 => AbortKind::Cancel,
        1 => AbortKind::Deadline,
        _ => AbortKind::MemBudget,
    };
    if INJECT_FIRED.load(Ordering::Relaxed) {
        return Some(kind);
    }
    let fired = INJECT_AFTER
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            if v == OFF || v == 0 {
                None
            } else {
                Some(v - 1)
            }
        })
        .map(|prev| prev == 1)
        .unwrap_or(false);
    if fired {
        INJECT_FIRED.store(true, Ordering::Relaxed);
        return Some(kind);
    }
    None
}

// ---------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------

/// Charge `bytes` of operator working memory to the tally.
#[inline]
fn charge(bytes: usize) {
    let used = MEM_USED.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    MEM_PEAK.fetch_max(used, Ordering::Relaxed);
}

/// Peak tracked working memory charged since the current statement
/// began, relative to its start (bytes).
pub fn statement_peak_bytes() -> u64 {
    MEM_PEAK
        .load(Ordering::Relaxed)
        .saturating_sub(MEM_BASE.load(Ordering::Relaxed))
}

/// Nanoseconds left until the live statement's deadline (negative when
/// already past it); `None` when no deadline is armed.
pub fn deadline_slack_nanos() -> Option<i64> {
    match DEADLINE_NANOS.load(Ordering::Relaxed) {
        OFF => None,
        dl => Some(dl as i64 - maybms_obs::monotonic_nanos() as i64),
    }
}

/// An RAII tally of working memory: [`MemCharge::add`] charges, drop
/// credits everything charged. Embed one per tracked structure
/// (`TupleBatch`, `ColumnBuilder`, `BuildTable`, `GroupTable`).
#[derive(Debug, Default)]
pub struct MemCharge {
    bytes: u64,
}

impl MemCharge {
    /// An empty tally.
    pub fn new() -> MemCharge {
        MemCharge::default()
    }

    /// Charge `bytes` more against the budget.
    #[inline]
    pub fn add(&mut self, bytes: usize) {
        charge(bytes);
        self.bytes += bytes as u64;
    }

    /// Bytes this tally currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        if self.bytes > 0 {
            MEM_USED.fetch_sub(self.bytes, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------

/// Fault-injection hooks for the cancellation-point matrix: arm an abort
/// at the Nth cooperative checkpoint of the next statement.
pub mod testing {
    use super::*;

    /// Arm the injection: the `nth` checkpoint (1-based) of the next
    /// statement raises `kind`, and every later checkpoint of that
    /// statement keeps raising it (sticky, like a real cancel).
    pub fn abort_at_checkpoint(nth: u64, kind: AbortKind) {
        INJECT_KIND.store(
            match kind {
                AbortKind::Cancel => 0,
                AbortKind::Deadline => 1,
                AbortKind::MemBudget => 2,
            },
            Ordering::Relaxed,
        );
        INJECT_FIRED.store(false, Ordering::Relaxed);
        INJECT_AFTER.store(nth.max(1), Ordering::Relaxed);
    }

    /// Disarm the injection hook.
    pub fn clear() {
        INJECT_AFTER.store(OFF, Ordering::Relaxed);
        INJECT_FIRED.store(false, Ordering::Relaxed);
    }

    /// Checkpoints left before the armed injection fires (`None` when
    /// disarmed). A full statement run that leaves this above zero
    /// means the sweep has passed the statement's last checkpoint.
    pub fn remaining() -> Option<u64> {
        match INJECT_AFTER.load(Ordering::Relaxed) {
            OFF => None,
            n => Some(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Governor state is process-global; tests in this module serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_checkpoints_are_free_and_ok() {
        let _l = LOCK.lock().unwrap();
        set_statement_timeout_ms(None);
        set_mem_budget_mb(None);
        let g = begin_statement();
        assert!(check().is_ok());
        assert_eq!(deadline_slack_nanos(), None);
        drop(g);
        assert!(check().is_ok());
    }

    #[test]
    fn deadline_fires_and_clears_on_drop() {
        let _l = LOCK.lock().unwrap();
        set_statement_timeout_ms(Some(1));
        let g = begin_statement();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(
            check(),
            Err(GovError::DeadlineExceeded { limit_ms: 1 })
        ));
        assert!(deadline_slack_nanos().unwrap() < 0);
        drop(g);
        assert!(check().is_ok());
        set_statement_timeout_ms(None);
    }

    #[test]
    fn cancel_token_is_epoch_scoped() {
        let _l = LOCK.lock().unwrap();
        set_statement_timeout_ms(None);
        set_mem_budget_mb(None);
        let g = begin_statement();
        let token = CancelToken {
            epoch: STMT_EPOCH.load(Ordering::Acquire),
        };
        token.cancel();
        assert_eq!(check(), Err(GovError::Cancelled));
        drop(g);
        // A stale token must not touch the next statement.
        let g2 = begin_statement();
        token.cancel();
        assert!(check().is_ok());
        drop(g2);
    }

    #[test]
    fn mem_budget_counts_statement_relative_charges() {
        let _l = LOCK.lock().unwrap();
        set_mem_budget_mb(Some(1));
        let g = begin_statement();
        assert!(check().is_ok());
        let mut c = MemCharge::new();
        c.add(2 << 20);
        let err = check().unwrap_err();
        assert!(matches!(err, GovError::MemBudgetExceeded { .. }));
        assert!(statement_peak_bytes() >= 2 << 20);
        drop(c);
        assert!(check().is_ok(), "credit on drop clears the overage");
        drop(g);
        set_mem_budget_mb(None);
    }

    #[test]
    fn injection_fires_at_the_nth_checkpoint_and_is_sticky() {
        let _l = LOCK.lock().unwrap();
        testing::abort_at_checkpoint(3, AbortKind::Cancel);
        let g = begin_statement();
        assert!(check().is_ok());
        assert!(check().is_ok());
        assert_eq!(check(), Err(GovError::Cancelled));
        assert_eq!(
            check(),
            Err(GovError::Cancelled),
            "sticky until statement end"
        );
        drop(g);
        testing::clear();
        let g = begin_statement();
        assert!(check().is_ok());
        drop(g);
    }

    #[test]
    fn armed_cancel_watchdog_cancels_only_its_statement() {
        let _l = LOCK.lock().unwrap();
        arm_cancel(1);
        assert_eq!(armed_cancel_ms(), Some(1));
        let g = begin_statement();
        assert_eq!(armed_cancel_ms(), None, "arming is one-shot");
        let t0 = std::time::Instant::now();
        loop {
            if let Err(e) = check() {
                assert_eq!(e, GovError::Cancelled);
                break;
            }
            assert!(t0.elapsed().as_secs() < 5, "watchdog never fired");
            std::thread::yield_now();
        }
        drop(g);
        let g2 = begin_statement();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(
            check().is_ok(),
            "watchdog does not leak into the next statement"
        );
        drop(g2);
    }
}
