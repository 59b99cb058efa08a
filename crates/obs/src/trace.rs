//! Structured tracing: RAII span guards, parent links, a bounded ring
//! sink, indented tree dumps, and Chrome `trace_event` JSONL export.
//!
//! ## Span model
//!
//! A [`Span`] is an RAII guard created by [`span`]:
//! it allocates a process-unique u64 id, links to the span currently
//! active on this thread (the *parent*), remembers the statement-level
//! *root* it belongs to, and on drop writes one [`SpanRecord`] — label,
//! id, parent, root, start, duration, typed attributes — into the ring
//! sink. Spans nest lexically: while a guard is alive it is the current
//! parent for spans created on the same thread.
//!
//! Work fanned out to pool workers keeps its parentage through
//! [`current_context`] / [`enter_context`]: `maybms-par` captures the
//! spawning thread's context at `spawn` and installs it around the task
//! body, so a conf() span computed on worker 3 still parents to the
//! pipeline span that spawned it. Span *shape* (labels and parent
//! paths) is therefore deterministic at any thread count; only
//! durations and completion order vary.
//!
//! ## The ring sink
//!
//! Finished records land in a bounded ring (capacity
//! [`RING_CAPACITY`]), oldest evicted first. The crate forbids unsafe
//! code, so the ring is a `Mutex<VecDeque>` rather than a true
//! lock-free MPSC ring: spans are created tens-per-statement (never
//! per row or per morsel), so one short uncontended lock per finished
//! span is far inside the ≤5% instrumentation budget the CI overhead
//! gate enforces. The *disabled* fast path — the only path production
//! code sees by default — is a single relaxed atomic load.
//!
//! ## Export
//!
//! When `MAYBMS_TRACE_FILE` names a path, every finished span is also
//! appended there as one Chrome `trace_event` "complete" (`ph:"X"`)
//! JSON object per line. Wrap the lines in `[...]` (or load as-is in
//! Perfetto, which accepts newline-delimited events) to open the file
//! in `chrome://tracing`. Each statement root becomes its own `tid`
//! track.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::monotonic_nanos;

/// Maximum finished-span records retained by the ring sink.
pub const RING_CAPACITY: usize = 16_384;

/// A typed span attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Signed integer attribute.
    Int(i64),
    /// Unsigned integer attribute (counts, sizes).
    Uint(u64),
    /// Floating-point attribute (errors, probabilities).
    Float(f64),
    /// Static string attribute (kinds, method names).
    Str(&'static str),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::Uint(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::Float(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span, as stored in the ring sink.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id (ids start at 1; 0 is "no span").
    pub id: u64,
    /// Parent span id, or 0 for a statement-level root.
    pub parent: u64,
    /// Root span id of the tree this span belongs to (== `id` for
    /// roots).
    pub root: u64,
    /// Static label (`"statement"`, `"pipeline"`, `"conf"`, …).
    pub label: &'static str,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
    /// Typed attributes attached while the span was live.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// End of the span, in nanoseconds since the process trace epoch.
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.dur_nanos)
    }
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RING: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());

thread_local! {
    /// (root, parent) of the span currently active on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Is tracing on? One relaxed load — the entire cost of every
/// instrumentation point while tracing is off.
#[inline]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn the span subsystem on or off (`\trace on|off`).
pub fn set_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Initialise tracing from the environment: `MAYBMS_TRACE=1|on|true`
/// enables the ring sink; setting `MAYBMS_TRACE_FILE` (a JSONL export
/// path) implies it. Embedders (the shell, benchmarks) call this once
/// at startup; the library itself never reads the environment on the
/// hot path.
pub fn init_from_env() {
    let truthy = |v: String| {
        let v = v.trim().to_ascii_lowercase();
        v == "1" || v == "on" || v == "true" || v == "yes"
    };
    if std::env::var("MAYBMS_TRACE").map(truthy).unwrap_or(false)
        || std::env::var("MAYBMS_TRACE_FILE").is_ok_and(|v| !v.trim().is_empty())
    {
        set_enabled(true);
    }
}

/// The (root, parent) pair a span created right now would link to.
/// Capture this on the spawning thread and [`enter_context`] it on the
/// worker so fanned-out work keeps its parentage.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceContext {
    root: u64,
    parent: u64,
}

/// Capture this thread's current trace context.
#[inline]
pub fn current_context() -> TraceContext {
    let (root, parent) = CURRENT.with(|c| c.get());
    TraceContext { root, parent }
}

/// Install `ctx` as this thread's trace context until the returned
/// guard drops (which restores whatever was active before).
pub fn enter_context(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace((ctx.root, ctx.parent)));
    ContextGuard { prev }
}

/// Restores the pre-[`enter_context`] trace context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An RAII span guard. While alive it is the current parent for spans
/// created on the same thread; on drop it writes its [`SpanRecord`] to
/// the ring sink (and the JSONL export file, when configured). Created
/// disabled (id 0, no effect) when tracing is off. Must be dropped on
/// the thread that created it.
#[derive(Debug)]
pub struct Span {
    id: u64,
    root: u64,
    parent: u64,
    prev: (u64, u64),
    label: &'static str,
    start_nanos: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Open a span labelled `label` under the current thread context.
pub fn span(label: &'static str) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            root: 0,
            parent: 0,
            prev: (0, 0),
            label,
            start_nanos: 0,
            attrs: Vec::new(),
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.get());
    let (cur_root, cur_parent) = prev;
    let root = if cur_root == 0 { id } else { cur_root };
    CURRENT.with(|c| c.set((root, id)));
    Span {
        id,
        root,
        parent: cur_parent,
        prev,
        label,
        start_nanos: monotonic_nanos(),
        attrs: Vec::new(),
    }
}

impl Span {
    /// Whether this guard is live (tracing was on at creation).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.id != 0
    }

    /// This span's id (0 when tracing was off at creation).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a typed attribute (no-op on an inactive span).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.is_active() {
            self.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.is_active() {
            return;
        }
        CURRENT.with(|c| c.set(self.prev));
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            root: self.root,
            label: self.label,
            start_nanos: self.start_nanos,
            dur_nanos: monotonic_nanos().saturating_sub(self.start_nanos),
            attrs: std::mem::take(&mut self.attrs),
        };
        export_jsonl(&rec);
        let mut ring = RING.lock().expect("trace ring poisoned");
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(rec);
    }
}

/// Drop every record from the ring sink (tests, `\trace` re-arms).
pub fn clear() {
    RING.lock().expect("trace ring poisoned").clear();
}

/// All retained records belonging to the span tree rooted at `root`,
/// in completion order.
pub fn spans_for_root(root: u64) -> Vec<SpanRecord> {
    RING.lock()
        .expect("trace ring poisoned")
        .iter()
        .filter(|r| r.root == root)
        .cloned()
        .collect()
}

/// Root ids of the last `n` completed span trees, oldest first.
pub fn recent_roots(n: usize) -> Vec<u64> {
    let ring = RING.lock().expect("trace ring poisoned");
    let roots: Vec<u64> = ring
        .iter()
        .filter(|r| r.parent == 0)
        .map(|r| r.id)
        .collect();
    let skip = roots.len().saturating_sub(n);
    roots[skip..].to_vec()
}

/// Render the last `n` completed span trees as indented text — the
/// `\trace dump [N]` shell command.
pub fn render_recent(n: usize) -> String {
    let mut out = String::new();
    for root in recent_roots(n) {
        let spans = spans_for_root(root);
        render_tree(&mut out, &spans, root);
    }
    if out.is_empty() {
        out.push_str("no completed span trees in the ring (is tracing on?)\n");
    }
    out
}

fn render_tree(out: &mut String, spans: &[SpanRecord], root: u64) {
    let Some(root_rec) = spans.iter().find(|r| r.id == root) else {
        return;
    };
    // Children grouped by parent, ordered by start time (id breaks
    // ties deterministically).
    let mut children: Vec<&SpanRecord> = spans.iter().filter(|r| r.id != root).collect();
    children.sort_by_key(|r| (r.start_nanos, r.id));
    render_span(out, root_rec, &children, 0);
    // Spans whose parent was evicted from the ring: list flat so
    // nothing silently disappears.
    let present: std::collections::HashSet<u64> = spans.iter().map(|r| r.id).collect();
    for r in &children {
        if r.parent != 0 && !present.contains(&r.parent) {
            out.push_str("  (detached) ");
            push_span_line(out, r);
        }
    }
}

fn render_span(out: &mut String, rec: &SpanRecord, all: &[&SpanRecord], depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    push_span_line(out, rec);
    for child in all.iter().filter(|r| r.parent == rec.id) {
        render_span(out, child, all, depth + 1);
    }
}

fn push_span_line(out: &mut String, rec: &SpanRecord) {
    out.push_str(rec.label);
    out.push_str(&format!(" ({})", fmt_nanos(rec.dur_nanos)));
    if !rec.attrs.is_empty() {
        out.push_str(" {");
        for (i, (k, v)) in rec.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{k}={v}"));
        }
        out.push('}');
    }
    if rec.parent == 0 {
        out.push_str(&format!(" [root {}]", rec.id));
    }
    out.push('\n');
}

/// Human duration: `873 ns`, `12.3 µs`, `4.56 ms`, `1.23 s`.
pub fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        0..=999 => format!("{nanos} ns"),
        1_000..=999_999 => format!("{:.1} µs", nanos as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", nanos as f64 / 1e6),
        _ => format!("{:.2} s", nanos as f64 / 1e9),
    }
}

// ---------------------------------------------------------------------
// Chrome trace_event JSONL export
// ---------------------------------------------------------------------

static TRACE_FILE: OnceLock<Option<Mutex<File>>> = OnceLock::new();

fn trace_file() -> Option<&'static Mutex<File>> {
    TRACE_FILE
        .get_or_init(|| {
            let path = std::env::var("MAYBMS_TRACE_FILE").ok()?;
            let path = path.trim();
            if path.is_empty() {
                return None;
            }
            match File::options().create(true).append(true).open(path) {
                Ok(f) => Some(Mutex::new(f)),
                Err(e) => {
                    eprintln!("maybms: cannot open MAYBMS_TRACE_FILE {path:?}: {e}");
                    None
                }
            }
        })
        .as_ref()
}

/// `s` with JSON string-content escaping applied (no surrounding
/// quotes) — shared by the trace exporter and the slow-query log.
pub fn json_escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

fn push_json_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_json_attr(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::Int(v) => out.push_str(&v.to_string()),
        AttrValue::Uint(v) => out.push_str(&v.to_string()),
        AttrValue::Float(v) if v.is_finite() => out.push_str(&v.to_string()),
        AttrValue::Float(_) => out.push_str("null"),
        AttrValue::Str(v) => {
            out.push('"');
            push_json_escaped(out, v);
            out.push('"');
        }
    }
}

/// One `trace_event` "complete" object for `rec` (no trailing newline).
/// `ts`/`dur` are microseconds; the root id doubles as the `tid` so
/// each statement renders as its own track.
pub fn trace_event_json(rec: &SpanRecord) -> String {
    let mut o = String::with_capacity(160);
    o.push_str("{\"name\":\"");
    push_json_escaped(&mut o, rec.label);
    o.push_str("\",\"cat\":\"maybms\",\"ph\":\"X\"");
    o.push_str(&format!(
        ",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
        rec.start_nanos as f64 / 1e3,
        rec.dur_nanos as f64 / 1e3,
        rec.root
    ));
    o.push_str(&format!(
        ",\"args\":{{\"id\":{},\"parent\":{}",
        rec.id, rec.parent
    ));
    for (k, v) in &rec.attrs {
        o.push_str(",\"");
        push_json_escaped(&mut o, k);
        o.push_str("\":");
        push_json_attr(&mut o, v);
    }
    o.push_str("}}");
    o
}

fn export_jsonl(rec: &SpanRecord) {
    let Some(file) = trace_file() else { return };
    let mut line = trace_event_json(rec);
    line.push('\n');
    let mut f = file.lock().expect("trace export file poisoned");
    let _ = f.write_all(line.as_bytes());
    if rec.parent == 0 {
        let _ = f.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; serialise the tests that toggle it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        clear();
        let before = NEXT_ID.load(Ordering::Relaxed);
        {
            let mut s = span("statement");
            s.attr("k", 1u64);
            assert!(!s.is_active());
            assert_eq!(s.id(), 0);
        }
        assert_eq!(NEXT_ID.load(Ordering::Relaxed), before);
        assert!(recent_roots(10).is_empty());
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        let root_id;
        {
            let root = span("statement");
            root_id = root.id();
            {
                let parse = span("parse");
                assert_eq!(parse.id(), root_id + 1);
            }
            {
                let mut exec = span("execute");
                exec.attr("rows", 3u64);
                let _pipe = span("pipeline");
            }
        }
        set_enabled(false);
        let spans = spans_for_root(root_id);
        assert_eq!(spans.len(), 4);
        let by_label = |l: &str| spans.iter().find(|r| r.label == l).unwrap();
        let root = by_label("statement");
        assert_eq!(root.parent, 0);
        assert_eq!(root.root, root_id);
        assert_eq!(by_label("parse").parent, root_id);
        let exec = by_label("execute");
        assert_eq!(exec.parent, root_id);
        assert_eq!(exec.attrs, vec![("rows", AttrValue::Uint(3))]);
        assert_eq!(by_label("pipeline").parent, exec.id);
        // Children nest within the parent's duration.
        for r in &spans {
            if r.id != root_id {
                assert!(r.start_nanos >= root.start_nanos);
                assert!(r.end_nanos() <= root.end_nanos());
            }
        }
        let dump = render_recent(1);
        assert!(dump.contains("statement"), "{dump}");
        assert!(dump.contains("  parse"), "{dump}");
        assert!(dump.contains("    pipeline"), "{dump}");
        assert!(dump.contains("rows=3"), "{dump}");
    }

    #[test]
    fn context_propagates_to_other_threads() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        let root_id;
        {
            let root = span("statement");
            root_id = root.id();
            let ctx = current_context();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = enter_context(ctx);
                    let _child = span("conf");
                });
            });
        }
        set_enabled(false);
        let spans = spans_for_root(root_id);
        assert_eq!(spans.len(), 2);
        let conf = spans.iter().find(|r| r.label == "conf").unwrap();
        assert_eq!(conf.parent, root_id);
        assert_eq!(conf.root, root_id);
    }

    #[test]
    fn trace_event_json_is_wellformed() {
        let rec = SpanRecord {
            id: 7,
            parent: 3,
            root: 3,
            label: "pipeline",
            start_nanos: 1_500,
            dur_nanos: 2_000,
            attrs: vec![
                ("morsels", AttrValue::Uint(4)),
                ("kind", AttrValue::Str("select")),
            ],
        };
        let j = trace_event_json(&rec);
        assert_eq!(
            j,
            "{\"name\":\"pipeline\",\"cat\":\"maybms\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000,\"pid\":1,\"tid\":3,\"args\":{\"id\":7,\"parent\":3,\"morsels\":4,\"kind\":\"select\"}}"
        );
    }

    #[test]
    fn ring_is_bounded() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        for _ in 0..(RING_CAPACITY + 10) {
            let _s = span("statement");
        }
        set_enabled(false);
        assert_eq!(RING.lock().unwrap().len(), RING_CAPACITY);
        clear();
    }
}
