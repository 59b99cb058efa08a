//! The MayBMS database facade: a catalog of U-relations plus the shared
//! world table, with a SQL entry point.
//!
//! "As a consequence of our choice of a purely relational representation
//! system, [updates, concurrency control and recovery] cause surprisingly
//! little difficulty. U-relations are represented relationally and updates
//! are just modifications of these tables" (§2.3). Accordingly INSERT /
//! UPDATE / DELETE here are plain representation-level edits — and, when a
//! data directory is attached ([`MayBms::open`]), each edit is logged
//! physically to the write-ahead log *before* it is installed in memory,
//! so a crash at any instant loses at most the statement in flight.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use maybms_engine::vector::{self, FirstError, KernelCounts};
use maybms_engine::{
    BatchBuilder, Column, ColumnBatch, ColumnData, Field, Relation, Schema, Value,
};
use maybms_obs::StatementKind;
use maybms_pipe::UStream;
use maybms_sql::{parse_statement, parse_statements, InsertSource, Statement};
use maybms_store::{Op, Store, StoreError, StoreStatus, Vfs};
use maybms_urel::{URelation, WorldTable};

use crate::error::{plan_err, unsupported, CoreError, Result};
use crate::exec::{eval_query, run, ExecCtx, QueryOutput};
use crate::plan::plan_query;
use crate::translate::{data_type_of, scalar};

/// Result of running one statement.
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// A query result.
    Query(QueryOutput),
    /// DDL/DML acknowledgement.
    Ok {
        /// Human-readable acknowledgement (`CREATE TABLE`, `INSERT 3`, …).
        message: String,
    },
}

impl StatementResult {
    /// The query output, if this was a query.
    pub fn query(self) -> Option<QueryOutput> {
        match self {
            StatementResult::Query(q) => Some(q),
            StatementResult::Ok { .. } => None,
        }
    }
}

/// What crash recovery found when a database was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stored tables after recovery.
    pub tables: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Whether a torn WAL tail (crash mid-append) was truncated away.
    pub truncated_tail: bool,
}

/// A MayBMS database: in-memory by default, durable when opened on a
/// data directory.
#[derive(Debug, Default)]
pub struct MayBms {
    tables: BTreeMap<String, URelation>,
    wt: WorldTable,
    store: Option<Store>,
    recovery: Option<RecoveryReport>,
    /// Stats collected for the most recently executed statement (the
    /// shell's timing line and the slow-query log read these).
    last_stats: Option<Arc<maybms_obs::QueryStats>>,
}

impl MayBms {
    /// A fresh, empty, purely in-memory database (no durability).
    pub fn new() -> MayBms {
        MayBms::default()
    }

    /// Open (or create) a durable database in `dir`, running crash
    /// recovery: load the latest snapshot, replay the WAL tail, truncate
    /// a torn final record if the last session died mid-append.
    pub fn open(dir: impl AsRef<Path>) -> Result<MayBms> {
        Self::open_with_vfs(Arc::new(maybms_store::StdVfs::open(dir)?))
    }

    /// [`MayBms::open`] over an arbitrary [`Vfs`] — the fault-injection
    /// and crash-matrix tests drive the whole database through this.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>) -> Result<MayBms> {
        let (store, recovered) = Store::open(vfs)?;
        Ok(MayBms {
            recovery: Some(RecoveryReport {
                tables: recovered.tables.len(),
                replayed: recovered.replayed,
                truncated_tail: recovered.truncated_tail,
            }),
            tables: recovered.tables,
            wt: recovered.wt,
            store: Some(store),
            last_stats: None,
        })
    }

    /// What recovery found, if this database was opened from a data
    /// directory.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Recover a poisoned (or healthy) durable database in-process: re-run
    /// crash recovery over the same VFS — load the latest snapshot, replay
    /// the WAL tail — and swap the recovered catalog in. The shell's
    /// `\reopen` meta command; errors if the database is in-memory.
    pub fn reopen(&mut self) -> Result<RecoveryReport> {
        let vfs = match &self.store {
            Some(store) => store.vfs(),
            None => return Err(plan_err("no data directory attached; nothing to reopen")),
        };
        let fresh = Self::open_with_vfs(vfs)?;
        let report = fresh
            .recovery
            .expect("open_with_vfs records a recovery report");
        *self = fresh;
        Ok(report)
    }

    /// Durability status (data location, WAL bytes since the last
    /// checkpoint), if a data directory is attached.
    pub fn durability_status(&self) -> Option<StoreStatus> {
        self.store.as_ref().map(Store::status)
    }

    /// Fold the whole catalog into an atomic snapshot and empty the WAL.
    /// Errors if the database is in-memory.
    pub fn checkpoint(&mut self) -> Result<()> {
        match &mut self.store {
            Some(store) => Ok(store.checkpoint(&self.tables, &self.wt)?),
            None => Err(plan_err(
                "no data directory attached; open the database \
                                  with --data-dir to enable checkpoints",
            )),
        }
    }

    /// Log `op` to the WAL (fsynced, when durable) and then install it in
    /// the in-memory catalog. Ordering matters: the record hits disk
    /// first, so the catalog never holds a change the log could lose.
    /// The op is checked against the catalog before it is logged, so a
    /// record that could not apply is never written. `INSERT` and
    /// `UPDATE` carry their cells as one column batch — built, logged and
    /// applied as columns — and, like `DELETE`'s positions, apply to the
    /// columnar table in place, at the cost of the rows they touch.
    fn commit(&mut self, op: Op) -> Result<()> {
        // Abort-before-log: every catalog mutation passes through here,
        // and nothing is durable or installed until `store.log` below
        // succeeds — so honouring a pending cancel/deadline/budget abort
        // at this point leaves the catalog (and its fingerprint)
        // bit-identical to the pre-statement state.
        maybms_gov::check().map_err(|g| CoreError::Engine(maybms_engine::EngineError::Gov(g)))?;
        maybms_store::check_op(&self.tables, &op).map_err(|reason| StoreError::Corrupt {
            path: maybms_store::wal::WAL_FILE.into(),
            // Where the refused record would have started.
            offset: self.durability_status().map_or(0, |s| {
                maybms_store::wal::WAL_MAGIC.len() as u64 + s.wal_bytes
            }),
            reason,
        })?;
        if let Some(store) = &mut self.store {
            store.log(&op, &self.wt)?;
        }
        maybms_store::apply_op(&mut self.tables, op)
            .map_err(|e| plan_err(format!("internal: logged op failed to apply: {e}")))
    }

    /// Access the world table (variable registry).
    pub fn world_table(&self) -> &WorldTable {
        &self.wt
    }

    /// Sample one possible world (seeded) and instantiate every stored
    /// table in it — a Monte Carlo view of the whole database. Certain
    /// tables come back unchanged; uncertain tables keep exactly the
    /// tuples whose conditions the sampled world satisfies (§2.1).
    pub fn sample_instance(&self, seed: u64) -> Vec<(String, Relation)> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let world = self.wt.sample_world(&mut rng);
        self.tables
            .iter()
            .map(|(name, u)| (name.clone(), u.instantiate(&world)))
            .collect()
    }

    /// The per-query stats collected for the most recently executed
    /// statement (pipelines with per-stage row counts, confidence
    /// effort, rows returned).
    pub fn last_stats(&self) -> Option<&Arc<maybms_obs::QueryStats>> {
        self.last_stats.as_ref()
    }

    /// Register a certain relation as a table (programmatic loading).
    pub fn register(&mut self, name: &str, relation: Relation) -> Result<()> {
        self.register_u(name, URelation::from_certain(&relation))
    }

    /// Register a U-relation directly.
    pub fn register_u(&mut self, name: &str, u: URelation) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(CoreError::Engine(maybms_engine::EngineError::TableExists {
                name: name.to_string(),
            }));
        }
        // The record is the installed image, dictionaries included.
        let schema = Arc::new(u.schema().without_qualifiers());
        self.commit(Op::PutTable {
            name: key,
            table: u.with_schema(schema).dict_encode(),
        })
    }

    /// Look up a stored table.
    pub fn table(&self, name: &str) -> Result<&URelation> {
        Ok(self.stored(name)?.1)
    }

    /// Names of all stored tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Parse and run one statement. The statement-root trace span opens
    /// here so parsing shows up as a child next to execution.
    pub fn run(&mut self, sql: &str) -> Result<StatementResult> {
        let root = maybms_obs::trace::span("statement");
        let stmt = {
            let _parse = maybms_obs::trace::span("parse");
            parse_statement(sql)?
        };
        self.execute_traced(&stmt, root)
    }

    /// Parse and run a `;`-separated script, returning every result.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        let stmts = parse_statements(sql)?;
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Run a query and require a t-certain result.
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        match self.run(sql)? {
            StatementResult::Query(QueryOutput::Certain(r)) => Ok(r),
            StatementResult::Query(QueryOutput::Uncertain(_)) => Err(plan_err(
                "query produced an uncertain relation; use query_uncertain() or add \
                 a confidence construct (conf/tconf/possible)",
            )),
            StatementResult::Ok { message } => {
                Err(plan_err(format!("statement was not a query ({message})")))
            }
        }
    }

    /// Run a query, lifting the result to a U-relation.
    pub fn query_uncertain(&mut self, sql: &str) -> Result<URelation> {
        match self.run(sql)? {
            StatementResult::Query(out) => Ok(out.into_urelation()),
            StatementResult::Ok { message } => {
                Err(plan_err(format!("statement was not a query ({message})")))
            }
        }
    }

    /// Execute a parsed statement.
    ///
    /// Every statement runs with a fresh [`maybms_obs::QueryStats`]
    /// collector attached (allocation-light; never changes results),
    /// retrievable afterwards via [`MayBms::last_stats`]. The statement
    /// is timed into the process-wide query metrics and, when the
    /// slow-query log is enabled (`MAYBMS_SLOW_MS` or
    /// [`maybms_obs::set_slow_log_threshold`]), slow statements are
    /// reported on stderr with their stats summary. A statement that
    /// fails, `EXPLAIN ANALYZE` and a query with a t-certain result leave
    /// the world table as they found it.
    pub fn execute(&mut self, stmt: &Statement) -> Result<StatementResult> {
        let root = maybms_obs::trace::span("statement");
        self.execute_traced(stmt, root)
    }

    /// [`MayBms::execute`] under an already-open statement-root span
    /// ([`MayBms::run`] opens it before parsing).
    fn execute_traced(
        &mut self,
        stmt: &Statement,
        mut root: maybms_obs::trace::Span,
    ) -> Result<StatementResult> {
        // Arm the statement's governor limits (session timeout / memory
        // budget / pending `\cancel`); the guard disarms them on every
        // exit path, including panics.
        let gov = maybms_gov::begin_statement();
        let vars = self.wt.num_vars();
        let stats = Arc::new(maybms_obs::QueryStats::new());
        if root.is_active() {
            stats.set_root_span(root.id());
        }
        let m = maybms_obs::metrics();
        let t0 = std::time::Instant::now();
        let result = {
            let _exec = maybms_obs::trace::span("execute");
            // Panic isolation: a statement that panics (in the planner,
            // an operator, or a kernel) is reported as an internal error
            // with the engine still usable — mutations reach the catalog
            // only through `commit`, which logs before installing, so a
            // mid-statement panic leaves it consistent.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute_inner(stmt, &stats)
            }))
            .unwrap_or_else(|payload| {
                m.gov_panics.inc();
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(CoreError::Internal { message })
            })
        };
        let elapsed = t0.elapsed();
        // A statement that stores nothing leaves no variables behind: a
        // failed one (an error, a governor abort, a caught panic),
        // `EXPLAIN ANALYZE` and a query with a t-certain result (which
        // references no variable) forget those it registered, except the
        // ones `commit` logged, which are durable. Later ids still start
        // above every stored one and keep their order among themselves.
        // An uncertain result keeps its variables: its rows' WSDs name
        // them.
        let stores_nothing = match &result {
            Err(_) | Ok(StatementResult::Query(QueryOutput::Certain(_))) => true,
            Ok(_) => matches!(stmt, Statement::Explain { analyze: true, .. }),
        };
        if stores_nothing {
            let durable = self.store.as_ref().map_or(0, Store::durable_vars);
            self.wt.truncate(vars.max(durable));
        }
        // Governor aborts: count by kind, once per statement (checks keep
        // failing after the first abort, so counting at check sites would
        // multiply). The label doubles as the root span's abort attribute.
        let gov_abort_label = match &result {
            Err(e) => match e.gov_abort() {
                Some(maybms_gov::GovError::Cancelled) => {
                    m.gov_cancelled.inc();
                    Some("cancelled")
                }
                Some(maybms_gov::GovError::DeadlineExceeded { .. }) => {
                    m.gov_deadline.inc();
                    Some("deadline")
                }
                Some(maybms_gov::GovError::MemBudgetExceeded { .. }) => {
                    m.gov_mem_rejected.inc();
                    Some("mem_budget")
                }
                None => {
                    if matches!(e, CoreError::Internal { .. }) {
                        Some("panic")
                    } else {
                        None
                    }
                }
            },
            Ok(_) => None,
        };
        if let Ok(StatementResult::Query(out)) = &result {
            stats.rows_returned.add(out.len() as u64);
        }
        // The statement's latency kind: conf-bearing queries are
        // classified after execution (whether conf() ran is a property
        // of the plan, not the statement's syntax alone). Governor-aborted
        // and panicked statements are `aborted`, so abort storms don't
        // skew the per-kind percentiles with artificially short samples.
        let kind = match stmt {
            _ if gov_abort_label.is_some() => StatementKind::Aborted,
            Statement::Select(_) | Statement::Explain { .. } if stats.conf_calls.get() > 0 => {
                StatementKind::Conf
            }
            Statement::Select(_) | Statement::Explain { .. } => StatementKind::Select,
            _ => StatementKind::Dml,
        };
        m.queries.inc();
        m.query_seconds(kind).observe(elapsed);
        root.attr("kind", kind.label());
        root.attr("rows", stats.rows_returned.get());
        if let Some(label) = gov_abort_label {
            root.attr("gov_abort", label);
        }
        if let Some(slack) = gov.deadline_slack_nanos() {
            root.attr("deadline_slack_ms", slack as f64 / 1e6);
        }
        if maybms_gov::statement_peak_bytes() > 0 {
            root.attr("peak_charged_bytes", maybms_gov::statement_peak_bytes());
        }
        if let Some(threshold) = maybms_obs::slow_log_threshold_ms() {
            if elapsed.as_millis() as u64 >= threshold {
                m.slow_queries.inc();
                eprintln!(
                    "[slow query] {:.3} ms ({}): {stmt}",
                    elapsed.as_secs_f64() * 1e3,
                    stats.summary(),
                );
                maybms_obs::slow_log_write(&format!(
                    "{{\"ms\":{:.3},\"kind\":\"{}\",\"statement\":\"{}\",\"summary\":\"{}\",\"root_span\":{},\"ok\":{}}}",
                    elapsed.as_secs_f64() * 1e3,
                    kind.label(),
                    maybms_obs::trace::json_escaped(&stmt.to_string()),
                    maybms_obs::trace::json_escaped(&stats.summary()),
                    stats.root_span().unwrap_or(0),
                    result.is_ok(),
                ));
            }
        }
        self.last_stats = Some(stats);
        result
    }

    fn execute_inner(
        &mut self,
        stmt: &Statement,
        stats: &maybms_obs::QueryStats,
    ) -> Result<StatementResult> {
        match stmt {
            Statement::Select(q) => {
                let mut ctx = ExecCtx::new(&self.tables, &mut self.wt, stats);
                let out = eval_query(q, &mut ctx)?;
                Ok(StatementResult::Query(out))
            }
            Statement::Explain {
                query,
                analyze: false,
            } => {
                let plan = plan_query(query, &self.tables)?.explain()?;
                let message = format!(
                    "EXPLAIN {query}\npipeline decomposition (morsel-driven executor, planned):\n{plan}"
                );
                Ok(StatementResult::Ok { message })
            }
            Statement::Explain {
                query,
                analyze: true,
            } => {
                let mut ctx = ExecCtx::new(&self.tables, &mut self.wt, stats);
                let t0 = std::time::Instant::now();
                let out = eval_query(query, &mut ctx)?;
                let elapsed = t0.elapsed();
                Ok(StatementResult::Ok {
                    message: render_analyze(query, stats, &out, elapsed),
                })
            }
            Statement::CreateTable { name, columns } => {
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| Ok(Field::new(c.name.clone(), data_type_of(&c.type_name)?)))
                    .collect::<Result<_>>()?;
                let u = URelation::empty(Arc::new(Schema::new(fields)));
                self.register_u(name, u)?;
                Ok(StatementResult::Ok {
                    message: "CREATE TABLE".into(),
                })
            }
            Statement::CreateTableAs { name, query } => {
                let mut ctx = ExecCtx::new(&self.tables, &mut self.wt, stats);
                let out = run(&plan_query(query, &self.tables)?, &mut ctx)?;
                self.register_u(name, out)?;
                Ok(StatementResult::Ok {
                    message: "CREATE TABLE AS".into(),
                })
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                let n = self.insert(table, columns.as_deref(), source, stats)?;
                Ok(StatementResult::Ok {
                    message: format!("INSERT {n}"),
                })
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                let n = self.update(table, assignments, filter.as_ref(), stats)?;
                Ok(StatementResult::Ok {
                    message: format!("UPDATE {n}"),
                })
            }
            Statement::Delete { table, filter } => {
                let n = self.delete(table, filter.as_ref(), stats)?;
                Ok(StatementResult::Ok {
                    message: format!("DELETE {n}"),
                })
            }
            Statement::Drop { table, if_exists } => {
                let key = table.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    self.commit(Op::DropTable { name: key })?;
                } else if !if_exists {
                    return Err(CoreError::Engine(
                        maybms_engine::EngineError::TableNotFound {
                            name: table.clone(),
                        },
                    ));
                }
                Ok(StatementResult::Ok {
                    message: "DROP TABLE".into(),
                })
            }
        }
    }

    /// `INSERT`: the source's rows as one column batch in the table's
    /// column order, type-checked whole and logged as one record.
    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        stats: &maybms_obs::QueryStats,
    ) -> Result<usize> {
        let selected: URelation;
        let (key, schema, src, rows, mut first) = match source {
            InsertSource::Values(values) => {
                // Every row is evaluated before the target is looked up, so
                // an evaluation error comes first: a literal is its value,
                // any other item a column over one row of no columns.
                let one = ColumnBatch::from_columns(Vec::new(), 1);
                let mut counts = KernelCounts::default();
                let mut item = |e: &maybms_sql::Expr| -> Result<Value> {
                    let e = match scalar(e)? {
                        maybms_engine::Expr::Literal(v) => return Ok(v),
                        e => e,
                    };
                    match vector::eval_batch(&e, &one, &mut counts) {
                        (_, Some((_, err))) => Err(err.into()),
                        (col, None) => Ok(col.value_at(0)),
                    }
                };
                let values: Result<Vec<Vec<Value>>> = values
                    .iter()
                    .map(|row| row.iter().map(&mut item).collect())
                    .collect();
                stats.record_kernels(counts.batches, counts.scalar_fallbacks);
                let values = values?;
                let (key, schema, src, width) = self.insert_target(table, columns)?;
                // The rows before the first of another arity form the batch;
                // that row's arity error stands unless a type error in an
                // earlier row comes first.
                let ok = values.iter().position(|r| r.len() != width);
                let ok = ok.unwrap_or(values.len());
                let mut b = BatchBuilder::new(width);
                values[..ok].iter().for_each(|r| b.push_row(r));
                let error = values.get(ok).map(|r| arity_error(r.len(), width, columns));
                let first = FirstError { limit: ok, error };
                (key, schema, src, Cow::Owned(b.finish()), first)
            }
            InsertSource::Query(q) => {
                let plan = plan_query(q, &self.tables)?;
                let (key, schema, src, width) = self.insert_target(table, columns)?;
                // The select list's arity is the plan's: checked before a
                // row is read, so it never depends on the data.
                if plan.schema.len() != width {
                    return Err(arity_error(plan.schema.len(), width, columns));
                }
                let mut ctx = ExecCtx::new(&self.tables, &mut self.wt, stats);
                selected = run(&plan, &mut ctx)?;
                if !selected.is_t_certain() {
                    return Err(unsupported(
                        "INSERT … SELECT from an uncertain query; materialise it with \
                         CREATE TABLE AS instead (conditions must be preserved)",
                    ));
                }
                let first = FirstError::new(selected.len());
                (key, schema, src, Cow::Borrowed(selected.at_rest().0), first)
            }
        };
        // The table's columns: a listed one from the source, checked row by
        // row (lowest row, then leftmost column, errs first), an unlisted
        // one all NULL. Nothing is logged or installed before every check.
        let n = rows.rows();
        let cols: Vec<Column> = schema
            .fields()
            .iter()
            .zip(src)
            .map(|(field, src)| match src {
                Some(k) => {
                    check_types(field, rows.column(k), first.limit, &mut first);
                    spelled_out(rows.column(k))
                }
                None => Column::from_const(Value::Null, n),
            })
            .collect();
        first.result()?;
        if n > 0 {
            self.commit(Op::InsertRows {
                table: key,
                rows: ColumnBatch::from_columns(cols, n),
            })?;
        }
        Ok(n)
    }

    /// What an `INSERT` into `table` writes.
    fn insert_target(&self, table: &str, columns: Option<&[String]>) -> Result<InsertTarget> {
        let (key, target) = self.stored(table)?;
        let schema = target.schema().clone();
        let mut src: Vec<Option<usize>> = (0..schema.len()).map(Some).collect();
        if let Some(cols) = columns {
            src.fill(None);
            for (k, c) in cols.iter().enumerate() {
                src[schema.index_of(None, c)?] = Some(k);
            }
        }
        let width = columns.map_or(schema.len(), <[String]>::len);
        Ok((key, schema, src, width))
    }

    /// The stored table `name`, or the engine's not-found error.
    fn stored(&self, name: &str) -> Result<(String, &URelation)> {
        let key = name.to_ascii_lowercase();
        match self.tables.get(&key) {
            Some(t) => Ok((key, t)),
            None => Err(CoreError::Engine(
                maybms_engine::EngineError::TableNotFound {
                    name: name.to_string(),
                },
            )),
        }
    }

    fn update(
        &mut self,
        table: &str,
        assignments: &[(String, maybms_sql::Expr)],
        filter: Option<&maybms_sql::Expr>,
        stats: &maybms_obs::QueryStats,
    ) -> Result<usize> {
        let (key, target) = self.stored(table)?;
        let schema = target.schema();
        let sets: Vec<(u32, maybms_engine::Expr)> = assignments
            .iter()
            .map(|(c, e)| {
                Ok::<_, CoreError>((schema.index_of(None, c)? as u32, scalar(e)?.bind(schema)?))
            })
            .collect::<Result<_>>()?;
        let positions = target_positions(target, filter, stats)?;
        // Evaluate the SET items over the hit rows, gathered once, off to the
        // side: the cells are logged physically (replaying expressions would
        // be fragile), and the first error — lowest row, then leftmost item —
        // leaves the table and the log untouched.
        let n = positions.len();
        maybms_gov::Ticker::new()
            .tick_n(n)
            .map_err(|g| CoreError::Engine(maybms_engine::EngineError::Gov(g)))?;
        let hits = target.at_rest().0.gather(&positions);
        let mut first = FirstError::new(n);
        let mut counts = KernelCounts::default();
        let cells: Vec<Column> = sets
            .iter()
            .map(|(c, e)| {
                let (col, err) = vector::eval_batch(e, &hits, &mut counts);
                let stop = first.upto(&err, first.limit);
                check_types(schema.field(*c as usize), &col, stop, &mut first);
                first.at_eval(err);
                spelled_out(&col)
            })
            .collect();
        stats.record_kernels(counts.batches, counts.scalar_fallbacks);
        first.result()?;
        if n > 0 {
            let columns = sets.iter().map(|(c, _)| *c).collect();
            self.commit(Op::UpdateRows {
                table: key,
                positions,
                columns,
                cells: ColumnBatch::from_columns(cells, n),
            })?;
        }
        Ok(n)
    }

    fn delete(
        &mut self,
        table: &str,
        filter: Option<&maybms_sql::Expr>,
        stats: &maybms_obs::QueryStats,
    ) -> Result<usize> {
        let (key, target) = self.stored(table)?;
        // A predicate error must leave the table (and the log) untouched.
        let positions = target_positions(target, filter, stats)?;
        let n = positions.len();
        if n > 0 {
            self.commit(Op::DeleteRows {
                table: key,
                positions,
            })?;
        }
        Ok(n)
    }
}

/// The positions of `target`'s rows that `filter` keeps (all of them
/// without one), ascending: one σ stage per conjunct, as a SELECT scan
/// leaf gets, run as a filter-only pipeline over the stored table — zone
/// maps, zero-pivot, vectorised, morsel-parallel and governor-checked
/// like any scan, and identical at any thread count.
fn target_positions(
    target: &URelation,
    filter: Option<&maybms_sql::Expr>,
    stats: &maybms_obs::QueryStats,
) -> Result<Vec<u32>> {
    let mut conjuncts = Vec::new();
    if let Some(f) = filter {
        crate::plan::split_conjuncts(f, &mut conjuncts);
    }
    let mut stream = UStream::new(target.clone());
    for c in &conjuncts {
        stream = stream.filter(&scalar(c)?)?;
    }
    let sel = stream.select_positions(
        &maybms_par::pool(),
        maybms_pipe::PAR_MIN_CHUNK,
        (stats, "DML target scan"),
    )?;
    sel.into_iter()
        .map(|i| u32::try_from(i).map_err(|_| plan_err("table exceeds 2^32 rows")))
        .collect()
}

/// An `INSERT`'s target: the catalog key, the schema, for each column
/// the source column that fills it (`None`: NULL; a column listed twice
/// takes its last listing), and the source arity.
type InsertTarget = (String, Arc<Schema>, Vec<Option<usize>>, usize);

/// A source row of `got` values where the table or its column list
/// wants `width`.
fn arity_error(got: usize, width: usize, columns: Option<&[String]>) -> CoreError {
    let wants = columns.map_or("table arity", |_| "column list");
    let message = format!("INSERT row arity {got} vs {wants} {width}");
    CoreError::Engine(maybms_engine::EngineError::SchemaMismatch { message })
}

/// `col` as a logged column: a dictionary column (read from a stored
/// table) is spelled out as its strings, so a record never carries a
/// whole dictionary.
fn spelled_out(col: &Column) -> Column {
    match col.data() {
        ColumnData::Dict { .. } => {
            Column::from_values((0..col.len()).map(|i| col.value_at(i)).collect())
        }
        _ => col.clone(),
    }
}

/// Record in `first` the first of `col`'s rows below `stop` whose value
/// is from another type family than `field`'s declared type (text /
/// numeric / boolean). NULL fits every column, a column of unknown type
/// (`CREATE TABLE AS` over an untyped expression) takes anything, and
/// integers and floats share the numeric family — they are stored as
/// given.
fn check_types(field: &Field, col: &Column, stop: usize, first: &mut FirstError<CoreError>) {
    use maybms_engine::DataType::{Float, Int, Unknown};
    let fits = |got| match (field.dtype, got) {
        (Unknown, _) | (_, Unknown) | (Int | Float, Int | Float) => true,
        (want, got) => want == got,
    };
    // A typed column's values share one type: its first non-NULL row
    // speaks for all of them.
    let per_row = matches!(col.data(), ColumnData::Values(_));
    let present = (0..stop).filter(|&j| !col.is_null(j));
    let bad = present
        .take(if per_row { stop } else { 1 })
        .find(|&j| !fits(col.value_at(j).data_type()));
    if let Some(j) = bad {
        let (want, v) = (field.dtype, col.value_at(j));
        let message = format!(
            "column {} is {want} but the value {v} is {}",
            field.name,
            v.data_type()
        );
        first.at(j, || {
            maybms_engine::EngineError::TypeMismatch { message }.into()
        });
    }
}

/// Render what a run of `EXPLAIN ANALYZE` recorded into `stats`, in run
/// order: per-pipeline wall time and morsel counts, per-stage `[in, out]`
/// row counts (plus hash-join build sizes and group counts), each
/// breaker's rows in and out, and the confidence-estimator effort.
fn render_analyze(
    query: &maybms_sql::Query,
    stats: &maybms_obs::QueryStats,
    out: &QueryOutput,
    elapsed: std::time::Duration,
) -> String {
    let mut s = format!("EXPLAIN ANALYZE {query}\n");
    s.push_str("pipeline decomposition (morsel-driven executor, measured):\n");
    let mut i = 0;
    for step in stats.steps() {
        let (label, p) = match step {
            maybms_obs::Step::Breaker(what, rows_in, rows_out) => {
                s.push_str(&format!("breaker: {what} [in {rows_in}, out {rows_out}]\n"));
                continue;
            }
            maybms_obs::Step::Pipeline(label, p) => (label, p),
        };
        if p.stages.is_empty() && p.morsels.get() == 0 {
            // A stage-less pipeline (bare scan feeding a breaker) passes
            // its source through without driving any morsels.
            s.push_str(&format!(
                "#{} pipeline ({label}) [source passthrough]\n",
                i + 1
            ));
        } else {
            s.push_str(&format!(
                "#{} pipeline ({label}) [{:.3} ms, {} morsel(s)]\n",
                i + 1,
                p.wall_nanos.get() as f64 / 1e6,
                p.morsels.get(),
            ));
        }
        s.push_str(&format!("   source: {}", p.source));
        if p.zones.get() > 0 {
            s.push_str(&format!(
                ", zones read {} of {}",
                p.zones_read.get(),
                p.zones.get()
            ));
        }
        s.push('\n');
        for st in &p.stages {
            s.push_str(&format!(
                "   -> {} [in {}, out {}",
                st.label,
                st.rows_in.get(),
                st.rows_out.get()
            ));
            if st.build_rows.get() > 0 {
                s.push_str(&format!(", build {}", st.build_rows.get()));
            }
            s.push_str("]\n");
        }
        if p.groups.get() > 0 {
            s.push_str(&format!("   groups: {}\n", p.groups.get()));
        }
        i += 1;
    }
    if stats.conf_calls.get() > 0 {
        s.push_str(&format!(
            "estimator: {} conf call(s) (product {}, d-tree {}, sampler {}), \
             {} DNF clause(s), {} d-tree node(s), {} sample(s) in {} batch(es)",
            stats.conf_calls.get(),
            stats.answered[0].get(),
            stats.answered[1].get(),
            stats.answered[2].get(),
            stats.dnf_clauses.get(),
            stats.dtree_nodes.get(),
            stats.samples.get(),
            stats.sample_batches.get(),
        ));
        if let Some((epsilon, delta)) = stats.requested() {
            s.push_str(&format!(
                " ({} drawn), requested (ε {epsilon}, δ {delta})",
                stats.samples_drawn.get()
            ));
        }
        let rse = stats.max_rel_stderr();
        if rse > 0.0 {
            s.push_str(&format!(", max rel stderr {rse:.4}"));
        }
        s.push('\n');
        if stats.requested().is_some() {
            s.push_str(&format!(
                "aconf: {} exact (δ = 0), {} sampled after the d-tree spent its budget, \
                 largest budget {} node(s)\n",
                stats.aconf_exact.get(),
                stats.answered[2].get(),
                stats.max_budget.get(),
            ));
        }
        if stats.degraded_conf.get() > 0 {
            s.push_str(&format!(
                "warning: {} aconf estimate(s) cut early by the statement deadline \
                 (degraded: partial seeded mean, achieved stderr above)\n",
                stats.degraded_conf.get(),
            ));
        }
    }
    // Governor accounting: peak tracked working memory this statement
    // charged, and how much headroom the deadline (if armed) had left.
    let peak = maybms_gov::statement_peak_bytes();
    let slack = maybms_gov::deadline_slack_nanos();
    if peak > 0 || slack.is_some() {
        s.push_str(&format!(
            "governor: peak {:.1} KiB charged",
            peak as f64 / 1024.0
        ));
        if let Some(ns) = slack {
            s.push_str(&format!(", deadline slack {:.3} ms", ns as f64 / 1e6));
        }
        s.push('\n');
    }
    let fallbacks = stats.scalar_fallbacks();
    if fallbacks > 0 {
        s.push_str(&format!("scalar fallbacks: {fallbacks}\n"));
    }
    let (rows, kind) = match out {
        QueryOutput::Certain(r) => (r.len(), "t-certain"),
        QueryOutput::Uncertain(u) => (u.len(), "uncertain"),
    };
    s.push_str(&format!(
        "result: {rows} {kind} rows in {:.3} ms\n",
        elapsed.as_secs_f64() * 1e3
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType};

    fn db_with_games() -> MayBms {
        let mut db = MayBms::new();
        db.register(
            "games",
            rel(
                &[("player", DataType::Text), ("pts", DataType::Int)],
                vec![
                    vec!["Bryant".into(), 40.into()],
                    vec!["Duncan".into(), 25.into()],
                ],
            ),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let mut db = MayBms::new();
        db.run("create table t (a bigint, b text)").unwrap();
        db.run("insert into t values (1, 'x'), (2, 'y')").unwrap();
        let r = db.query("select a, b from t where a > 1").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].value(1), &Value::str("y"));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = MayBms::new();
        db.run("create table t (a bigint, b text, c double precision)")
            .unwrap();
        db.run("insert into t (b, a) values ('x', 1)").unwrap();
        let r = db.query("select a, b, c from t").unwrap();
        assert_eq!(r.tuples()[0].value(0), &Value::Int(1));
        assert_eq!(r.tuples()[0].value(1), &Value::str("x"));
        assert_eq!(r.tuples()[0].value(2), &Value::Null);
    }

    fn rows_of(db: &MayBms) -> Vec<Vec<Value>> {
        db.table("t")
            .unwrap()
            .tuples()
            .iter()
            .map(|t| t.data.values().to_vec())
            .collect()
    }

    /// `INSERT` and `UPDATE` check values against the declared column types
    /// before anything is logged: text, numeric and boolean do not mix.
    #[test]
    fn cross_family_values_are_rejected_before_anything_changes() {
        let mut db = MayBms::new();
        db.run("create table t (a bigint, b text, c boolean)")
            .unwrap();
        db.run("insert into t values (1, 'x', true)").unwrap();
        // A source whose columns take anything: after a NULL row, a row
        // with one bad cell in its last column, then one with two.
        db.run("create table src as select null as p, null as q, null as r from t")
            .unwrap();
        db.run("insert into src values (5, 'b1', 9), ('x', 8, true)")
            .unwrap();
        let before = rows_of(&db);
        let mismatch = |col: &str, want: &str, v: &str, got: &str| {
            format!("type mismatch: column {col} is {want} but the value {v} is {got}")
        };
        for (sql, want) in [
            (
                "insert into t values ('x', 3, true)",
                mismatch("a", "bigint", "x", "text"),
            ),
            (
                "insert into t values (2, 'y', false), (3, 4, true)",
                mismatch("b", "text", "4", "bigint"),
            ),
            (
                "insert into t (c, a) values (1, 1)",
                mismatch("c", "boolean", "1", "bigint"),
            ),
            (
                "update t set a = 'seven'",
                mismatch("a", "bigint", "seven", "text"),
            ),
            ("update t set b = a", mismatch("b", "text", "1", "bigint")),
            (
                "update t set c = 0",
                mismatch("c", "boolean", "0", "bigint"),
            ),
            // All VALUES are evaluated before any row is checked.
            (
                "insert into t values ('x', 'y', true), (1/0, 'z', true)",
                "division by zero".into(),
            ),
            (
                "insert into t values (1, 'a', true), (3)",
                "INSERT row arity 1 vs table arity 3".into(),
            ),
            // Row by row, each `SET` item evaluated and checked in turn.
            (
                "update t set a = 1 / (a - 1), b = 7",
                "division by zero".into(),
            ),
            (
                "update t set b = 7, a = 1 / (a - 1)",
                mismatch("b", "text", "7", "bigint"),
            ),
            // The lowest row first, then the leftmost target column.
            (
                "insert into t select p, q, r from src",
                mismatch("c", "boolean", "9", "bigint"),
            ),
            (
                "insert into t (c, b) select q, p from src",
                mismatch("b", "text", "5", "bigint"),
            ),
        ] {
            let err = db.run(sql).unwrap_err();
            assert!(err.to_string().contains(&want), "{sql}: {err}");
            assert_eq!(rows_of(&db), before, "{sql} changed the table");
        }
        // NULL fits everywhere, integers and floats share a family, and a
        // CTAS column of unknown type takes anything.
        db.run("insert into t values (null, null, null), (2.5, 'y', false)")
            .unwrap();
        db.run("update t set a = 7.5 where b = 'x'").unwrap();
        db.run("create table u as select null as z from t").unwrap();
        db.run("insert into u values ('text'), (1)").unwrap();
        assert_eq!(db.table("u").unwrap().len(), 5);
        // The statement from the bug report fails at INSERT, not at query time.
        let mut db = MayBms::new();
        db.run("create table t (a bigint, b text)").unwrap();
        assert!(db.run("insert into t values ('x', 3)").is_err());
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    /// `INSERT … SELECT` and `UPDATE` log the cells they write, never the
    /// dictionary of the stored column those cells were read from.
    #[test]
    fn logged_cells_never_carry_a_source_dictionary() {
        let mut db = MayBms::open_with_vfs(Arc::new(maybms_store::MemVfs::new())).unwrap();
        db.run("create table s (k bigint, name text)").unwrap();
        let rows: Vec<String> = (0..2000).map(|i| format!("({i}, 'name {i}')")).collect();
        db.run(&format!("insert into s values {}", rows.join(", ")))
            .unwrap();
        db.run("create table t (name text)").unwrap();
        for sql in [
            "insert into t select name from s where k = 7",
            "update s set name = name where k = 7",
        ] {
            let wal = |db: &MayBms| db.durability_status().unwrap().wal_bytes;
            let before = wal(&db);
            db.run(sql).unwrap();
            let logged = wal(&db) - before;
            assert!(logged < 200, "{sql} logged {logged} bytes");
        }
    }

    /// Whether `INSERT … SELECT` is accepted never depends on the data:
    /// the select list's arity is checked against the plan, before a row
    /// is read, so an empty result is refused like a full one.
    #[test]
    fn insert_select_arity_is_checked_before_any_row_is_read() {
        let mut db = MayBms::new();
        db.run("create table t (a bigint)").unwrap();
        db.run("create table u (x bigint, y bigint)").unwrap();
        db.run("insert into u values (1, 2)").unwrap();
        for (sql, want) in [
            (
                "insert into t select x, y from u where x > 5",
                "INSERT row arity 2 vs table arity 1",
            ),
            (
                "insert into t select x, y from u",
                "INSERT row arity 2 vs table arity 1",
            ),
            (
                "insert into t (a) select x, y from u where x > 5",
                "INSERT row arity 2 vs column list 1",
            ),
        ] {
            let err = db.run(sql).unwrap_err();
            assert!(err.to_string().contains(want), "{sql}: {err}");
        }
        assert!(db.table("t").unwrap().is_empty());
        db.run("insert into t select x from u where x > 5").unwrap();
        db.run("insert into t select y from u").unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn update_and_delete() {
        let mut db = db_with_games();
        let StatementResult::Ok { message } = db
            .run("update games set pts = pts + 1 where player = 'Bryant'")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(message, "UPDATE 1");
        let r = db
            .query("select pts from games where player = 'Bryant'")
            .unwrap();
        assert_eq!(r.tuples()[0].value(0), &Value::Int(41));

        let StatementResult::Ok { message } = db.run("delete from games where pts < 30").unwrap()
        else {
            panic!()
        };
        assert_eq!(message, "DELETE 1");
        assert_eq!(db.table("games").unwrap().len(), 1);
    }

    /// Whether a table's row view is still unbuilt.
    fn row_view_is_cold(t: &URelation) -> bool {
        !t.has_row_view()
    }

    /// A conjunct the kernels cannot run (`IN`) is walked row by row over
    /// the rows the vectorised ones keep, written out of the columns: the
    /// stored table's row view is never built, by DML or by SELECT.
    #[test]
    fn a_row_walked_conjunct_leaves_the_row_view_cold() {
        let mut db = MayBms::new();
        db.run("create table alerts (sensor bigint, room text, level bigint)")
            .unwrap();
        let rows: Vec<String> = (0..5000)
            .map(|i| format!("({i}, 'r{}', {})", i % 7, i % 3))
            .collect();
        db.run(&format!("insert into alerts values {}", rows.join(", ")))
            .unwrap();
        let where_ = "sensor >= 100 and sensor < 120 and room in ('r1', 'r2')";
        let reader = db.table("alerts").unwrap().clone(); // shares the body the DELETE scans
        let StatementResult::Ok { message } = db
            .run(&format!("delete from alerts where {where_}"))
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(message, "DELETE 5");
        assert!(row_view_is_cold(&reader));
        let r = db
            .query(
                "select sensor from alerts where sensor >= 200 and room in ('r1') and sensor < 230",
            )
            .unwrap();
        assert_eq!(r.len(), 4);
        assert!(row_view_is_cold(db.table("alerts").unwrap()));
    }

    #[test]
    fn drop_and_if_exists() {
        let mut db = db_with_games();
        db.run("drop table games").unwrap();
        assert!(db.run("drop table games").is_err());
        db.run("drop table if exists games").unwrap();
    }

    #[test]
    fn create_table_as_stores_uncertain_result() {
        let mut db = db_with_games();
        db.run(
            "create table picks as select * from (pick tuples from games with probability 0.5) p",
        )
        .unwrap();
        let t = db.table("picks").unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_t_certain());
        // Downstream conf query over the stored uncertain table.
        let r = db
            .query("select player, conf() as p from picks group by player")
            .unwrap();
        assert_eq!(r.len(), 2);
        for t in r.tuples() {
            assert_eq!(t.value(1), &Value::Float(0.5));
        }
    }

    #[test]
    fn insert_select_from_uncertain_rejected() {
        let mut db = db_with_games();
        db.run("create table t (player text, pts bigint)").unwrap();
        let err = db.run("insert into t select * from (pick tuples from games) p");
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_games();
        let err = db.run("create table games (x bigint)");
        assert!(err.is_err());
    }

    #[test]
    fn query_requires_certain_output() {
        let mut db = db_with_games();
        assert!(db
            .query("select * from (pick tuples from games) p")
            .is_err());
        assert!(db
            .query_uncertain("select * from (pick tuples from games) p")
            .is_ok());
    }

    #[test]
    fn explain_reports_pipeline_decomposition() {
        let mut db = db_with_games();
        db.register(
            "teams",
            rel(
                &[("player", DataType::Text), ("team", DataType::Text)],
                vec![
                    vec!["Bryant".into(), "LAL".into()],
                    vec!["Duncan".into(), "SAS".into()],
                ],
            ),
        )
        .unwrap();
        let StatementResult::Ok { message } = db
            .run(
                "explain select g.player from games g, teams t \
                 where g.player = t.player and g.pts > 30",
            )
            .unwrap()
        else {
            panic!("EXPLAIN must return a message")
        };
        assert!(message.contains("pipeline decomposition"), "{message}");
        assert!(message.contains("-> filter"), "{message}");
        assert!(message.contains("hash probe"), "{message}");
        assert!(message.contains("hash-join build side"), "{message}");
        assert!(message.contains("-> project"), "{message}");
    }

    #[test]
    fn explain_marks_vectorised_stages() {
        // The per-stage kernel-eligibility decision surfaces in EXPLAIN:
        // a kernel-eligible filter is marked, so users can see which
        // stages run vectorised.
        let mut db = db_with_games();
        let StatementResult::Ok { message } = db
            .run("explain select player from games where pts > 30")
            .unwrap()
        else {
            panic!("EXPLAIN must return a message")
        };
        assert!(message.contains("(vectorised)"), "{message}");
    }

    #[test]
    fn explain_aggregate_shows_streaming_breaker() {
        let mut db = db_with_games();
        let StatementResult::Ok { message } = db
            .run("explain select player, conf() as p from games group by player")
            .unwrap()
        else {
            panic!()
        };
        assert!(
            message.contains("grouped aggregation (streaming, 1 keys, 1 aggs)"),
            "{message}"
        );
        // The old full-input materialisation breaker is gone.
        assert!(!message.contains("aggregation breaker"), "{message}");
    }

    #[test]
    fn explain_grouped_aggregate_keeps_fused_stages() {
        // Pushed-down filters stay fused stages *inside* the grouped
        // aggregation's pipeline — nothing materialises before the fold.
        let mut db = db_with_games();
        let StatementResult::Ok { message } = db
            .run(
                "explain select player, count(*) as n from games \
                 where pts > 20 group by player",
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(
            message.contains("grouped aggregation (streaming, 1 keys, 1 aggs)"),
            "{message}"
        );
        assert!(message.contains("-> filter"), "{message}");
    }

    #[test]
    fn explain_analyze_reports_measured_stage_stats() {
        // The acceptance query: join + GROUP BY + conf() over an
        // uncertain table. EXPLAIN ANALYZE must show per-stage measured
        // row counts, morsels, wall time, and the estimator's effort.
        let mut db = db_with_games();
        db.register(
            "teams",
            rel(
                &[("player", DataType::Text), ("team", DataType::Text)],
                vec![
                    vec!["Bryant".into(), "LAL".into()],
                    vec!["Duncan".into(), "SAS".into()],
                ],
            ),
        )
        .unwrap();
        db.run(
            "create table picks as select * from (pick tuples from games with probability 0.5) p",
        )
        .unwrap();
        let StatementResult::Ok { message } = db
            .run(
                "explain analyze select t.team, conf() as p, aconf(0.3, 0.3) as ap \
                 from picks g, teams t where g.player = t.player group by t.team",
            )
            .unwrap()
        else {
            panic!("EXPLAIN ANALYZE must return a message")
        };
        // Per-pipeline measured header: wall time + morsel count.
        assert!(message.contains("ms, "), "{message}");
        assert!(message.contains("morsel(s)]"), "{message}");
        // Both pipelines appear: the build side and the streaming
        // grouped-aggregation breaker, with per-stage [in, out] counts.
        assert!(
            message.contains("pipeline (hash-join build side)"),
            "{message}"
        );
        assert!(
            message.contains("pipeline (grouped aggregation (streaming, 1 keys, 2 aggs))"),
            "{message}"
        );
        assert!(message.contains("-> hash probe"), "{message}");
        assert!(message.contains("[in 2, out 2"), "{message}");
        assert!(message.contains("build 2"), "{message}");
        assert!(message.contains("groups: 2"), "{message}");
        // Estimator effort: 2 conf + 2 aconf calls over one-member groups,
        // all four the independent product, so aconf is exact (δ = 0).
        assert!(
            message.contains("estimator: 4 conf call(s) (product 4, d-tree 0, sampler 0)"),
            "{message}"
        );
        assert!(message.contains(" 0 sample(s) in 0 batch(es)"), "{message}");
        assert!(
            message.contains(" drawn), requested (ε 0.3, δ 0.3)"),
            "{message}"
        );
        assert!(
            message.contains("aconf: 2 exact (δ = 0), 0 sampled after the d-tree spent its budget"),
            "{message}"
        );
        assert!(message.contains("result: 2 t-certain rows in"), "{message}");
        // The same stats are retrievable programmatically.
        let stats = db.last_stats().unwrap();
        assert_eq!(stats.conf_calls.get(), 4);
        assert_eq!((stats.answered[0].get(), stats.aconf_exact.get()), (4, 2));
        assert_eq!(stats.pipeline_count(), 2);

        // A group whose lineage outgrows the d-tree budget is sampled:
        // x_i ∧ x_j over a dense graph on 30 tuples of probability 0.1.
        let side: Vec<String> = (0..30).map(|i| format!("({i}, 0.1)")).collect();
        let edges: Vec<String> = (0..30)
            .flat_map(|i| (1..6).map(move |d| format!("({i}, {})", (i + d * 7) % 30)))
            .collect();
        db.run_script(&format!(
            "create table v (a bigint, w double precision);
             insert into v values {};
             create table pv as select * from (pick tuples from v with probability w) x;
             create table e (a bigint, b bigint);
             insert into e values {};",
            side.join(", "),
            edges.join(", "),
        ))
        .unwrap();
        let StatementResult::Ok { message } = db
            .run(
                "explain analyze select aconf(0.1, 0.05) as p from pv x, e, pv y \
                 where x.a = e.a and e.b = y.a",
            )
            .unwrap()
        else {
            panic!("EXPLAIN ANALYZE must return a message")
        };
        let stats = db.last_stats().unwrap();
        assert_eq!(
            (stats.answered[2].get(), stats.aconf_exact.get()),
            (1, 0),
            "{message}"
        );
        assert!(stats.samples.get() > 0);
        assert_eq!(stats.samples_drawn.get(), stats.samples.get());
        let budget = stats.max_budget.get();
        assert_eq!(
            stats.dtree_nodes.get(),
            budget,
            "the attempt spends its budget"
        );
        assert!(
            message.contains("(product 0, d-tree 0, sampler 1)"),
            "{message}"
        );
        assert!(message.contains("max rel stderr"), "{message}");
        assert!(
            message.contains(&format!(
                "aconf: 0 exact (δ = 0), 1 sampled after the d-tree spent its budget, \
                 largest budget {budget} node(s)"
            )),
            "{message}"
        );
    }

    #[test]
    fn every_statement_collects_stats() {
        let mut db = db_with_games();
        let r = db.query("select player from games where pts > 30").unwrap();
        assert_eq!(r.len(), 1);
        let stats = db.last_stats().unwrap();
        assert_eq!(stats.rows_returned.get(), 1);
        assert_eq!(stats.pipeline_count(), 1);
        let p = &stats.pipelines()[0];
        assert!(p.morsels.get() >= 1);
        assert_eq!(p.stages[0].rows_in.get(), 2);
        assert_eq!(p.stages[0].rows_out.get(), 1);
    }

    #[test]
    fn run_script_executes_all() {
        let mut db = MayBms::new();
        let results = db
            .run_script("create table t (a bigint); insert into t values (1); select a from t;")
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(matches!(results[2], StatementResult::Query(_)));
    }

    #[test]
    fn update_on_uncertain_representation() {
        // Updates are representation-level edits (§2.3).
        let mut db = db_with_games();
        db.run("create table picks as select * from (pick tuples from games) p")
            .unwrap();
        db.run("update picks set pts = 0 where player = 'Bryant'")
            .unwrap();
        let t = db.table("picks").unwrap();
        let bryant = t
            .tuples()
            .iter()
            .find(|t| t.data.value(0) == &Value::str("Bryant"))
            .unwrap();
        assert_eq!(bryant.data.value(1), &Value::Int(0));
        assert!(!bryant.wsd.is_tautology()); // condition untouched
    }
}
