//! An interactive MayBMS shell (psql-style).
//!
//! By default the database is in-memory and vanishes on exit. With
//! `--data-dir DIR` the catalog is durable: every DDL/DML statement is
//! WAL-logged before it applies, `\checkpoint` folds the log into an
//! atomic snapshot, and restarting on the same directory recovers the
//! catalog (replaying the WAL tail, truncating a torn final record if
//! the previous process died mid-append).
//!
//! ```text
//! $ cargo run --bin maybms-shell -- --data-dir ./nba-data
//! maybms> create table coin (face text, w double precision);
//! CREATE TABLE
//! maybms> insert into coin values ('heads', 1.0), ('tails', 1.0);
//! INSERT 2
//! maybms> select face, conf() as p from (repair key face in coin weight by w) c group by face;
//! ...
//! maybms> \d
//! maybms> \q
//! ```
//!
//! Meta commands: `\q` quit, `\d [table]` list/describe tables, `\w` world
//! table summary, `\threads [N]` show/resize the execution pool,
//! `\timing [on|off]` toggle or set timing (on by default, so parallel
//! speedups are visible per statement; the line also reports rows
//! returned and pipelines executed), `\metrics` dump the process-wide
//! metrics registry in Prometheus text format, `\latency` show count,
//! mean, p50, p95 and p99 statement latency per kind since start (read
//! off the `maybms_query_seconds{kind}` histogram `/metrics` exports),
//! `\trace [on|off|dump [N]]` control the tracing span subsystem and
//! print recent statement span trees, `\slowlog [N|off]` log
//! statements slower than N ms to stderr, `\i FILE` run a SQL script,
//! `\checkpoint` snapshot the catalog and truncate the WAL,
//! `\timeout [N|off]` set a per-statement deadline in ms, `\memlimit
//! [N|off]` cap tracked working memory per statement in MiB, `\cancel
//! [N]` cancel the *next* statement after N ms (watchdog thread),
//! `\reopen` recover a poisoned durable store in-process, `\help`.
//!
//! With `--metrics-addr ADDR` (or `MAYBMS_METRICS_ADDR`) the shell
//! serves the metrics registry over HTTP: `GET /metrics` returns the
//! Prometheus text format, `GET /healthz` returns `ok`. Tracing can be
//! pre-enabled with `MAYBMS_TRACE=1`; `MAYBMS_TRACE_FILE=trace.jsonl`
//! additionally streams finished spans as Chrome `trace_event` JSON
//! lines (load the file in `about:tracing` / Perfetto).
//!
//! `EXPLAIN <query>;` prints the query's plan — the morsel-driven
//! executor's pipeline decomposition (fused stages and breakers) — and
//! runs nothing; `EXPLAIN ANALYZE <query>;` runs it and prints what ran,
//! with measured per-stage row counts, morsel counts, wall times, and
//! confidence-estimator effort.
//!
//! The execution pool honours `MAYBMS_THREADS` at startup (unset or `0`
//! → all cores) and can be resized at runtime with `\threads N`.

use std::io::{BufRead, Write};
use std::time::Instant;

use maybms::{MayBms, QueryOutput, StatementResult};

fn main() {
    maybms_obs::trace::init_from_env();
    let (mut db, config) = match open_database(std::env::args().skip(1)) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    };
    let metrics_addr = config.metrics_addr.or_else(|| {
        std::env::var("MAYBMS_METRICS_ADDR").ok().filter(|s| !s.is_empty())
    });
    let bound = metrics_addr.map(|addr| match maybms_obs::http::serve(&addr) {
        Ok(local) => local,
        Err(e) => {
            eprintln!("error: cannot serve metrics on {addr}: {e}");
            std::process::exit(1);
        }
    });
    let mut timing = true;
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print_banner(&db, bound);
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.trim().is_empty() && trimmed.starts_with('\\') {
            buffer.clear();
            if !handle_meta(trimmed, &mut db, &mut timing) {
                return;
            }
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        while let Some(stmt) = take_statement(&mut buffer) {
            execute(&stmt, &mut db, timing);
        }
        prompt(&buffer);
    }
}

/// Shell options beyond the database location.
#[derive(Debug)]
struct ShellConfig {
    /// `--metrics-addr ADDR`: serve `GET /metrics` + `/healthz` here.
    metrics_addr: Option<String>,
}

/// Parse command-line arguments and open the database. In-memory unless
/// `--data-dir DIR` is given; a missing directory is created, a corrupt
/// one is reported with the failing file and byte offset — never a panic.
fn open_database(
    args: impl Iterator<Item = String>,
) -> Result<(MayBms, ShellConfig), String> {
    let mut data_dir: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--data-dir" {
            match args.next() {
                Some(dir) => data_dir = Some(dir),
                None => return Err("--data-dir requires a directory argument".into()),
            }
        } else if let Some(dir) = arg.strip_prefix("--data-dir=") {
            data_dir = Some(dir.to_string());
        } else if arg == "--metrics-addr" {
            match args.next() {
                Some(addr) => metrics_addr = Some(addr),
                None => {
                    return Err("--metrics-addr requires an ADDR argument (e.g. 127.0.0.1:9187)".into())
                }
            }
        } else if let Some(addr) = arg.strip_prefix("--metrics-addr=") {
            metrics_addr = Some(addr.to_string());
        } else {
            return Err(format!(
                "unknown argument `{arg}` (usage: maybms-shell [--data-dir DIR] [--metrics-addr ADDR])"
            ));
        }
    }
    let config = ShellConfig { metrics_addr };
    match data_dir {
        None => Ok((MayBms::new(), config)),
        Some(dir) => MayBms::open(&dir)
            .map(|db| (db, config))
            .map_err(|e| format!("cannot open data directory {dir}: {e}")),
    }
}

fn print_banner(db: &MayBms, metrics: Option<std::net::SocketAddr>) {
    println!("MayBMS shell — probabilistic database management system (SIGMOD 2009 reproduction)");
    println!(
        "Execution pool: {} thread(s) (MAYBMS_THREADS or \\threads N to change)",
        maybms_par::current_threads()
    );
    match db.durability_status() {
        Some(status) => {
            println!(
                "Durability: data dir {} — {} WAL byte(s) since last checkpoint{}",
                status.location,
                status.wal_bytes,
                if status.has_snapshot { "" } else { " (no snapshot yet)" }
            );
            if let Some(r) = db.recovery_report() {
                println!(
                    "Recovered {} table(s), replayed {} WAL record(s){}",
                    r.tables,
                    r.replayed,
                    if r.truncated_tail { ", truncated a torn WAL tail" } else { "" }
                );
            }
        }
        None => println!("Durability: in-memory only (start with --data-dir DIR to persist)"),
    }
    let timeout = maybms_gov::statement_timeout_ms();
    let budget = maybms_gov::mem_budget_bytes();
    if timeout.is_some() || budget.is_some() {
        println!(
            "Governor: timeout {}, memory budget {} (\\timeout / \\memlimit to change)",
            timeout.map(|ms| format!("{ms} ms")).unwrap_or_else(|| "off".into()),
            budget.map(|b| format!("{} MiB", b >> 20)).unwrap_or_else(|| "off".into()),
        );
    }
    if let Some(addr) = metrics {
        println!("Metrics: serving http://{addr}/metrics (and /healthz)");
    }
    if maybms_obs::trace::enabled() {
        println!("Tracing: on (\\trace dump shows recent statement span trees)");
    }
    println!("Type SQL terminated by `;`, or \\help for meta commands.\n");
}

fn prompt(buffer: &str) {
    if buffer.trim().is_empty() {
        print!("maybms> ");
    } else {
        print!("....... ");
    }
    let _ = std::io::stdout().flush();
}

/// Pop the first complete `;`-terminated statement off the buffer,
/// respecting string literals (a `;` inside `'…'` does not terminate)
/// and `--` line comments (whose content — quotes included — is inert,
/// so piping a commented .sql file through stdin behaves like `\i`).
fn take_statement(buffer: &mut String) -> Option<String> {
    let mut in_string = false;
    let chars: Vec<char> = buffer.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '-' if !in_string && chars.get(i + 1) == Some(&'-') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            '\'' => {
                // `''` is an escaped quote inside a string.
                if in_string && chars.get(i + 1) == Some(&'\'') {
                    i += 1;
                } else {
                    in_string = !in_string;
                }
            }
            ';' if !in_string => {
                let stmt: String = chars[..=i].iter().collect();
                let rest: String = chars[i + 1..].iter().collect();
                *buffer = rest;
                let stmt = stmt.trim().to_string();
                if stmt == ";" {
                    return take_statement(buffer);
                }
                return Some(stmt);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn execute(sql: &str, db: &mut MayBms, timing: bool) {
    let t0 = Instant::now();
    match db.run(sql) {
        Ok(StatementResult::Ok { message }) => println!("{message}"),
        Ok(StatementResult::Query(QueryOutput::Certain(rel))) => {
            print!("{}", rel.to_table_string());
        }
        Ok(StatementResult::Query(QueryOutput::Uncertain(u))) => {
            // Render as Figure 1 renders U-relations: data columns plus
            // condition and P.
            match u.to_table_string(db.world_table()) {
                Ok(s) => print!("{s}"),
                Err(e) => println!("error rendering result: {e}"),
            }
        }
        Err(e) => println!("error: {e}"),
    }
    if timing {
        let stats = db
            .last_stats()
            .map(|s| {
                format!(
                    " ({} row(s), {} pipeline(s))",
                    s.rows_returned.get(),
                    s.pipeline_count()
                )
            })
            .unwrap_or_default();
        println!("Time: {:.3} ms{stats}", t0.elapsed().as_secs_f64() * 1e3);
    }
}

/// Returns `false` when the shell should exit.
fn handle_meta(cmd: &str, db: &mut MayBms, timing: &mut bool) -> bool {
    let mut parts = cmd.splitn(2, char::is_whitespace);
    let head = parts.next().unwrap_or("");
    let arg = parts.next().map(str::trim).filter(|s| !s.is_empty());
    match head {
        "\\q" | "\\quit" => return false,
        "\\help" | "\\?" => {
            println!("EXPLAIN <query>;          print the planned pipeline decomposition");
            println!("EXPLAIN ANALYZE <query>;  run it: measured per-stage rows, morsels, time");
            println!("\\d [table]     list tables / describe one");
            println!("\\w             world-table summary (variables, worlds)");
            println!("\\threads [N]   show or set the execution pool size");
            println!("\\timing [on|off] toggle or set per-statement timing (default on)");
            println!("\\metrics       dump the engine metrics registry (Prometheus text format)");
            println!("\\latency       statement latency per kind since start: count, mean, p50/p95/p99");
            println!("\\trace [on|off] enable/disable tracing spans (or show the state)");
            println!("\\trace dump [N] print the last N statement span trees (default 5)");
            println!("\\slowlog [N|off] log statements slower than N ms to stderr (0 = all)");
            println!("\\i FILE        execute a SQL script");
            println!("\\checkpoint    snapshot the catalog atomically and truncate the WAL");
            println!("\\timeout [N|off] per-statement deadline in ms (also MAYBMS_STATEMENT_TIMEOUT_MS)");
            println!("\\memlimit [N|off] per-statement memory budget in MiB (also MAYBMS_MEM_BUDGET_MB)");
            println!("\\cancel [N]    cancel the NEXT statement after N ms (default 0: immediately)");
            println!("\\reopen        recover a poisoned durable store in-process (re-runs recovery)");
            println!("\\q             quit");
        }
        "\\d" => match arg {
            None => {
                let names = db.table_names();
                if names.is_empty() {
                    println!("(no tables)");
                }
                for n in names {
                    let t = db.table(n).expect("listed table exists");
                    println!(
                        "{n}  — {} rows, {}",
                        t.len(),
                        if t.is_t_certain() { "t-certain" } else { "uncertain" }
                    );
                }
            }
            Some(name) => match db.table(name) {
                Ok(t) => {
                    println!(
                        "{name} ({} rows, {})",
                        t.len(),
                        if t.is_t_certain() { "t-certain" } else { "uncertain" }
                    );
                    for f in t.schema().fields() {
                        println!("  {}  {}", f.name, f.dtype);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
        },
        "\\w" => {
            let wt = db.world_table();
            match wt.world_count() {
                Some(n) => println!("{} variables; {} possible worlds", wt.num_vars(), n),
                None => println!(
                    "{} variables; more than 2^128 possible worlds",
                    wt.num_vars()
                ),
            }
        }
        "\\timing" => {
            // Bare `\timing` toggles; an explicit argument sets the state
            // (so `\timing off` in a script is idempotent).
            match arg {
                None => *timing = !*timing,
                Some("on") => *timing = true,
                Some("off") => *timing = false,
                Some(other) => {
                    println!("usage: \\timing [on|off]   (got `{other}`)");
                    return true;
                }
            }
            println!("Timing is {}.", if *timing { "on" } else { "off" });
        }
        "\\metrics" => print!("{}", maybms_obs::render_prometheus()),
        "\\latency" => print!("{}", maybms_obs::latency_report()),
        "\\trace" => match arg {
            None => println!(
                "Tracing is {}.",
                if maybms_obs::trace::enabled() { "on" } else { "off" }
            ),
            Some("on") => {
                maybms_obs::trace::set_enabled(true);
                println!("Tracing is on.");
            }
            Some("off") => {
                maybms_obs::trace::set_enabled(false);
                println!("Tracing is off.");
            }
            Some(rest) if rest == "dump" || rest.starts_with("dump ") => {
                let n = rest.strip_prefix("dump").unwrap_or("").trim();
                let n = if n.is_empty() { Ok(5) } else { n.parse::<usize>() };
                match n {
                    Ok(n) if n > 0 => {
                        let dump = maybms_obs::trace::render_recent(n);
                        if dump.is_empty() {
                            println!(
                                "(no spans recorded — is tracing on? try \\trace on)"
                            );
                        } else {
                            print!("{dump}");
                        }
                    }
                    _ => println!("usage: \\trace dump [N]   (N ≥ 1)"),
                }
            }
            Some(other) => {
                println!("usage: \\trace [on|off|dump [N]]   (got `{other}`)")
            }
        },
        "\\slowlog" => match arg {
            None => match maybms_obs::slow_log_threshold_ms() {
                Some(ms) => println!("Slow-query log: statements ≥ {ms} ms go to stderr."),
                None => println!("Slow-query log is off."),
            },
            Some("off") => {
                maybms_obs::set_slow_log_threshold(None);
                println!("Slow-query log is off.");
            }
            Some(n) => match n.parse::<u64>() {
                Ok(ms) => {
                    maybms_obs::set_slow_log_threshold(Some(ms));
                    println!("Slow-query log: statements ≥ {ms} ms go to stderr.");
                }
                Err(_) => println!("usage: \\slowlog [N|off]   (N in milliseconds)"),
            },
        },
        "\\checkpoint" => match db.checkpoint() {
            Ok(()) => match db.durability_status() {
                Some(status) => {
                    println!("CHECKPOINT — snapshot written to {}", status.location)
                }
                None => println!("CHECKPOINT"),
            },
            Err(e) => println!("error: {e}"),
        },
        "\\timeout" => match arg {
            None => match maybms_gov::statement_timeout_ms() {
                Some(ms) => println!("Statement timeout: {ms} ms."),
                None => println!("Statement timeout is off."),
            },
            Some("off") => {
                maybms_gov::set_statement_timeout_ms(None);
                println!("Statement timeout is off.");
            }
            Some(n) => match n.parse::<u64>() {
                Ok(ms) if ms > 0 => {
                    maybms_gov::set_statement_timeout_ms(Some(ms));
                    println!("Statement timeout: {ms} ms.");
                }
                _ => println!("usage: \\timeout [N|off]   (N in milliseconds, ≥ 1)"),
            },
        },
        "\\memlimit" => match arg {
            None => match maybms_gov::mem_budget_bytes() {
                Some(b) => println!("Memory budget: {} MiB per statement.", b >> 20),
                None => println!("Memory budget is off."),
            },
            Some("off") => {
                maybms_gov::set_mem_budget_mb(None);
                println!("Memory budget is off.");
            }
            Some(n) => match n.parse::<u64>() {
                Ok(mb) if mb > 0 => {
                    maybms_gov::set_mem_budget_mb(Some(mb));
                    println!("Memory budget: {mb} MiB per statement.");
                }
                _ => println!("usage: \\memlimit [N|off]   (N in MiB, ≥ 1)"),
            },
        },
        "\\cancel" => {
            let delay = match arg {
                None => Ok(0),
                Some(n) => n.parse::<u64>(),
            };
            match delay {
                Ok(ms) => {
                    maybms_gov::arm_cancel(ms);
                    println!(
                        "Armed: the next statement will be cancelled after {ms} ms."
                    );
                }
                Err(_) => println!("usage: \\cancel [N]   (N in milliseconds)"),
            }
        }
        "\\reopen" => match db.reopen() {
            Ok(r) => println!(
                "REOPEN — recovered {} table(s), replayed {} WAL record(s){}",
                r.tables,
                r.replayed,
                if r.truncated_tail { ", truncated a torn WAL tail" } else { "" }
            ),
            Err(e) => println!("error: {e}"),
        },
        "\\threads" => match arg {
            None => println!("Execution pool: {} thread(s)", maybms_par::current_threads()),
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n > 0 => {
                    let pool = maybms_par::set_threads(n);
                    println!("Execution pool resized to {} thread(s)", pool.threads());
                }
                _ => println!("usage: \\threads N   (N ≥ 1)"),
            },
        },
        "\\i" => match arg {
            None => println!("usage: \\i FILE"),
            Some(path) => match std::fs::read_to_string(path) {
                Ok(script) => match db.run_script(&script) {
                    Ok(results) => println!("{} statements executed", results.len()),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error reading {path}: {e}"),
            },
        },
        other => println!("unknown meta command `{other}` — try \\help"),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_statement_splits_on_semicolons() {
        let mut buf = "select 1; select 2;".to_string();
        assert_eq!(take_statement(&mut buf).as_deref(), Some("select 1;"));
        assert_eq!(take_statement(&mut buf).as_deref(), Some("select 2;"));
        assert_eq!(take_statement(&mut buf), None);
    }

    #[test]
    fn take_statement_ignores_semicolons_in_strings() {
        let mut buf = "insert into t values ('a;b');".to_string();
        let stmt = take_statement(&mut buf).unwrap();
        assert!(stmt.contains("'a;b'"));
        assert!(buf.is_empty());
    }

    #[test]
    fn take_statement_handles_escaped_quotes() {
        let mut buf = "insert into t values ('it''s; fine');".to_string();
        let stmt = take_statement(&mut buf).unwrap();
        assert!(stmt.contains("it''s; fine"));
    }

    #[test]
    fn take_statement_waits_for_terminator() {
        let mut buf = "select 1".to_string();
        assert_eq!(take_statement(&mut buf), None);
        assert_eq!(buf, "select 1");
    }

    #[test]
    fn take_statement_skips_empty_statements() {
        let mut buf = "; ;select 1;".to_string();
        assert_eq!(take_statement(&mut buf).as_deref(), Some("select 1;"));
    }

    #[test]
    fn take_statement_ignores_quotes_and_semicolons_in_comments() {
        // An unbalanced quote in a `--` comment (e.g. "SIGMOD'09") must
        // not poison the string-state tracking for the rest of the file.
        let mut buf = "-- it's a comment; really\nselect 1;\n".to_string();
        let stmt = take_statement(&mut buf).unwrap();
        assert!(stmt.contains("select 1"), "{stmt}");
        let mut buf = "select -- trailing; note\n 2;".to_string();
        assert_eq!(take_statement(&mut buf).as_deref(), Some("select -- trailing; note\n 2;"));
    }

    #[test]
    fn meta_commands_do_not_quit_except_q() {
        let mut db = MayBms::new();
        let mut timing = false;
        assert!(handle_meta("\\d", &mut db, &mut timing));
        assert!(handle_meta("\\w", &mut db, &mut timing));
        assert!(handle_meta("\\timing", &mut db, &mut timing));
        assert!(timing);
        assert!(handle_meta("\\metrics", &mut db, &mut timing));
        assert!(handle_meta("\\latency", &mut db, &mut timing));
        assert!(handle_meta("\\slowlog", &mut db, &mut timing));
        assert!(handle_meta("\\nonsense", &mut db, &mut timing));
        assert!(!handle_meta("\\q", &mut db, &mut timing));
    }

    /// `\latency` reads the kind-labelled statement histogram: a `conf()`
    /// statement counts in the `conf` row.
    #[test]
    fn latency_meta_reads_the_kind_histogram() {
        let conf = || maybms_obs::metrics().query_seconds(maybms_obs::StatementKind::Conf).count();
        let mut db = MayBms::new();
        let before = conf();
        execute("create table latency_t (a bigint);", &mut db, false);
        execute("insert into latency_t values (1), (2);", &mut db, false);
        execute("select a, conf() as p from latency_t group by a;", &mut db, false);
        assert!(conf() > before);
        let report = maybms_obs::latency_report();
        let row = report.lines().find(|l| l.starts_with("conf")).expect("a conf row");
        assert!(!row.contains(" - "), "{report}");
        assert!(handle_meta("\\latency", &mut db, &mut false));
    }

    #[test]
    fn trace_meta_toggles_and_dumps() {
        let mut db = MayBms::new();
        let mut timing = false;
        let before = maybms_obs::trace::enabled();
        assert!(handle_meta("\\trace on", &mut db, &mut timing));
        assert!(maybms_obs::trace::enabled());
        execute("create table trace_meta_t (a bigint);", &mut db, false);
        assert!(handle_meta("\\trace dump", &mut db, &mut timing));
        assert!(handle_meta("\\trace dump 2", &mut db, &mut timing));
        assert!(handle_meta("\\trace dump potato", &mut db, &mut timing));
        assert!(handle_meta("\\trace off", &mut db, &mut timing));
        assert!(!maybms_obs::trace::enabled());
        assert!(handle_meta("\\trace", &mut db, &mut timing));
        assert!(handle_meta("\\trace potato", &mut db, &mut timing));
        maybms_obs::trace::set_enabled(before);
    }

    #[test]
    fn timing_meta_accepts_explicit_state() {
        // `\timing off` when already off must stay off (the old bare
        // toggle flipped it back on); bare `\timing` still toggles.
        let mut db = MayBms::new();
        let mut timing = false;
        assert!(handle_meta("\\timing off", &mut db, &mut timing));
        assert!(!timing);
        assert!(handle_meta("\\timing on", &mut db, &mut timing));
        assert!(timing);
        assert!(handle_meta("\\timing on", &mut db, &mut timing));
        assert!(timing);
        assert!(handle_meta("\\timing", &mut db, &mut timing));
        assert!(!timing);
        // An unknown argument is reported and changes nothing.
        assert!(handle_meta("\\timing potato", &mut db, &mut timing));
        assert!(!timing);
    }

    #[test]
    fn slowlog_meta_sets_and_clears_threshold() {
        let mut db = MayBms::new();
        let mut timing = false;
        assert!(handle_meta("\\slowlog 150", &mut db, &mut timing));
        assert_eq!(maybms_obs::slow_log_threshold_ms(), Some(150));
        assert!(handle_meta("\\slowlog off", &mut db, &mut timing));
        assert_eq!(maybms_obs::slow_log_threshold_ms(), None);
        assert!(handle_meta("\\slowlog potato", &mut db, &mut timing));
        assert_eq!(maybms_obs::slow_log_threshold_ms(), None);
    }

    #[test]
    fn threads_meta_command_resizes_pool() {
        let mut db = MayBms::new();
        let mut timing = false;
        let before = maybms_par::current_threads();
        assert!(handle_meta("\\threads", &mut db, &mut timing));
        assert!(handle_meta("\\threads 2", &mut db, &mut timing));
        assert_eq!(maybms_par::current_threads(), 2);
        // Invalid arguments are reported, not applied.
        assert!(handle_meta("\\threads 0", &mut db, &mut timing));
        assert!(handle_meta("\\threads potato", &mut db, &mut timing));
        assert_eq!(maybms_par::current_threads(), 2);
        maybms_par::set_threads(before);
    }

    #[test]
    fn governor_meta_commands_set_and_clear_limits() {
        // Large values: these settings are process-wide, and sibling
        // tests in this binary run statements concurrently — a 60 s
        // timeout or 1 GiB budget can never trip them.
        let mut db = MayBms::new();
        let mut timing = false;
        assert!(handle_meta("\\timeout 60000", &mut db, &mut timing));
        assert_eq!(maybms_gov::statement_timeout_ms(), Some(60000));
        assert!(handle_meta("\\timeout", &mut db, &mut timing));
        assert!(handle_meta("\\timeout off", &mut db, &mut timing));
        assert_eq!(maybms_gov::statement_timeout_ms(), None);
        assert!(handle_meta("\\timeout potato", &mut db, &mut timing));
        assert_eq!(maybms_gov::statement_timeout_ms(), None);

        assert!(handle_meta("\\memlimit 1024", &mut db, &mut timing));
        assert_eq!(maybms_gov::mem_budget_bytes(), Some(1024 << 20));
        assert!(handle_meta("\\memlimit off", &mut db, &mut timing));
        assert_eq!(maybms_gov::mem_budget_bytes(), None);

        assert!(handle_meta("\\cancel 60000", &mut db, &mut timing));
        assert_eq!(maybms_gov::armed_cancel_ms(), Some(60000));
        // Consume the one-shot arming so no later statement inherits it
        // (the 60 s watchdog then targets an already-finished epoch).
        drop(maybms_gov::begin_statement());
        assert_eq!(maybms_gov::armed_cancel_ms(), None);
        assert!(handle_meta("\\cancel potato", &mut db, &mut timing));
        assert_eq!(maybms_gov::armed_cancel_ms(), None);

        // \reopen without a data directory is a clean error.
        assert!(handle_meta("\\reopen", &mut db, &mut timing));
    }

    #[test]
    fn execute_reports_errors_without_panicking() {
        let mut db = MayBms::new();
        execute("select * from missing;", &mut db, false);
        execute("create table t (a bigint);", &mut db, true);
        execute("select a from t;", &mut db, false);
    }

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn open_database_parses_arguments() {
        assert!(open_database(args(&[])).is_ok());
        assert!(open_database(args(&["--data-dir"])).is_err());
        assert!(open_database(args(&["--bogus"])).is_err());
        assert!(open_database(args(&["--metrics-addr"])).is_err());
        let (_, config) =
            open_database(args(&["--metrics-addr=127.0.0.1:0"])).unwrap();
        assert_eq!(config.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        let (_, config) =
            open_database(args(&["--metrics-addr", "127.0.0.1:9187"])).unwrap();
        assert_eq!(config.metrics_addr.as_deref(), Some("127.0.0.1:9187"));
    }

    #[test]
    fn checkpoint_on_in_memory_database_is_a_clean_error() {
        let mut db = MayBms::new();
        let mut timing = false;
        // Must print an error and keep the shell alive, not panic.
        assert!(handle_meta("\\checkpoint", &mut db, &mut timing));
    }

    #[test]
    fn data_dir_roundtrip_survives_restart() {
        let dir = std::env::temp_dir()
            .join(format!("maybms-shell-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = format!("--data-dir={}", dir.display());
        {
            let (mut db, _) = open_database(args(&[&dir_arg])).unwrap();
            db.run("create table t (a bigint)").unwrap();
            db.run("insert into t values (7)").unwrap();
            let mut timing = false;
            assert!(handle_meta("\\checkpoint", &mut db, &mut timing));
            db.run("insert into t values (8)").unwrap(); // WAL tail on top
        }
        let (mut db, _) = open_database(args(&[&dir_arg])).unwrap();
        print_banner(&db, None); // must not panic on a durable database
        let r = db.query("select a from t").unwrap();
        assert_eq!(r.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_data_dir_is_a_clean_error_with_offset() {
        let dir = std::env::temp_dir()
            .join(format!("maybms-shell-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal"), b"not a wal at all").unwrap();
        let dir_arg = format!("--data-dir={}", dir.display());
        let err = open_database(args(&[&dir_arg])).unwrap_err();
        assert!(err.contains("cannot open data directory"), "{err}");
        assert!(err.contains("wal"), "{err}");
        assert!(err.contains("byte 0"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
