//! Breadth tests for the SQL surface: every language feature exercised end
//! to end through the facade, including combinations the other integration
//! tests don't touch.

use maybms::{CoreError, MayBms, QueryOutput, StatementResult};
use maybms_engine::Value;

fn fresh() -> MayBms {
    let mut db = MayBms::new();
    db.run_script(
        "create table emp (name text, dept text, salary bigint, bonus double precision);
         insert into emp values
           ('ann', 'eng', 100, 0.1), ('bob', 'eng', 90, 0.2),
           ('cat', 'ops', 80, 0.3), ('dan', 'ops', 70, 0.15),
           ('eve', 'hr',  60, 0.05);",
    )
    .unwrap();
    db
}

#[test]
fn order_by_ordinal() {
    let mut db = fresh();
    let r = db
        .query("select name, salary from emp order by 2 desc limit 2")
        .unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::str("ann"));
    assert_eq!(r.tuples()[1].value(0), &Value::str("bob"));
    assert!(db.query("select name from emp order by 9").is_err());
    assert!(db.query("select name from emp order by 0").is_err());
}

#[test]
fn case_expression_end_to_end() {
    let mut db = fresh();
    let r = db
        .query(
            "select name,
                    case when salary >= 90 then 'senior'
                         when salary >= 70 then 'mid'
                         else 'junior' end as level
             from emp order by name",
        )
        .unwrap();
    let view = r.tuples();
    let levels: Vec<&str> = view.iter().map(|t| t.value(1).as_str().unwrap()).collect();
    assert_eq!(levels, vec!["senior", "senior", "mid", "mid", "junior"]);
}

#[test]
fn cast_end_to_end() {
    let mut db = fresh();
    let r = db
        .query("select cast(salary as double precision) / 7 as ratio from emp limit 1")
        .unwrap();
    let v = r.tuples()[0].value(0).as_f64().unwrap();
    assert!((v - 100.0 / 7.0).abs() < 1e-12);
    let r = db.query("select cast('42' as bigint) as n").unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Int(42));
}

#[test]
fn string_concat_and_like_free_predicates() {
    let mut db = fresh();
    let r = db
        .query("select name || '@' || dept as email from emp where dept = 'hr'")
        .unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::str("eve@hr"));
}

#[test]
fn group_by_expression_with_having() {
    let mut db = fresh();
    let r = db
        .query(
            "select dept, count(*) as n, avg(salary) as mean
             from emp group by dept having n >= 2 order by dept",
        )
        .unwrap();
    assert_eq!(r.len(), 2); // eng, ops
    assert_eq!(r.tuples()[0].value(0), &Value::str("eng"));
    assert_eq!(r.tuples()[0].value(2), &Value::Float(95.0));
}

#[test]
fn union_certain_with_uncertain_is_multiset() {
    let mut db = fresh();
    let out = db
        .run(
            "select name from (pick tuples from emp with probability bonus) p
             union all
             select name from emp",
        )
        .unwrap();
    let StatementResult::Query(QueryOutput::Uncertain(u)) = out else {
        panic!("expected uncertain union result");
    };
    assert_eq!(u.len(), 10); // 5 conditioned + 5 certain rows
                             // The certain half is unconditioned.
    let certain = u.tuples().iter().filter(|t| t.wsd.is_tautology()).count();
    assert_eq!(certain, 5);
}

#[test]
fn union_chain_is_left_associative() {
    let mut db = fresh();
    // (eng-names UNION eng-names) deduplicates; the UNION ALL tail keeps
    // its duplicates.
    let r = db
        .query(
            "select name from emp where dept = 'eng'
             union
             select name from emp where dept = 'eng'
             union all
             select name from emp where dept = 'hr'",
        )
        .unwrap();
    assert_eq!(r.len(), 3); // ann, bob (deduped) + eve
                            // Flipped: UNION at the end dedups everything before it.
    let r = db
        .query(
            "select name from emp where dept = 'eng'
             union all
             select name from emp where dept = 'eng'
             union
             select name from emp where dept = 'hr'",
        )
        .unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn union_checks_column_types_whatever_the_certainty() {
    // One union, one arity + type check: certain ∪ certain, uncertain ∪
    // uncertain and the mixes all reject bigint ∪ text — no `bigint`
    // column ever holds a name.
    let mut db = fresh();
    db.run("create table u as select * from (pick tuples from emp with probability bonus) p")
        .unwrap();
    for (l, r) in [("emp", "emp"), ("u", "u"), ("u", "emp"), ("emp", "u")] {
        for spelling in ["union", "union all"] {
            let sql = format!("select salary from {l} {spelling} select name from {r}");
            let err = db.run(&sql).unwrap_err();
            assert!(
                err.to_string()
                    .contains("UNION column type mismatch: bigint vs text"),
                "{sql}: {err}"
            );
            let sql = format!("select salary from {l} {spelling} select salary, name from {r}");
            let err = db.run(&sql).unwrap_err();
            assert!(
                err.to_string().contains("UNION arity mismatch"),
                "{sql}: {err}"
            );
            // bigint ∪ double precision unifies.
            let sql = format!("select salary from {l} {spelling} select bonus from {r}");
            assert!(db.run(&sql).is_ok(), "{sql}");
        }
    }
}

#[test]
fn explain_lists_breakers_between_pipelines() {
    let mut db = fresh();
    let sql = "select name from emp where dept = 'eng' union select name from emp \
               order by name limit 2";
    let StatementResult::Ok { message } = db.run(&format!("explain {sql}")).unwrap() else {
        panic!("EXPLAIN must return a message")
    };
    let steps: Vec<&str> = message
        .lines()
        .filter(|l| l.starts_with('#') || l.starts_with("breaker"))
        .collect();
    assert_eq!(
        steps,
        vec![
            "#1 pipeline (output)",
            "#2 pipeline (output)",
            "breaker: union (all)",
            "#3 pipeline (distinct (streaming, 1 keys)) if t-certain (decided at run)",
            "breaker: sort (1 keys, top 2)",
            "breaker: limit 2",
        ],
        "{message}"
    );
    // EXPLAIN ANALYZE measures the same steps.
    let StatementResult::Ok { message } = db.run(&format!("explain analyze {sql}")).unwrap() else {
        panic!("EXPLAIN ANALYZE must return a message")
    };
    for line in [
        "breaker: union (all) [in 7, out 7]",
        "breaker: sort (1 keys, top 2) [in 5, out 2]",
        "breaker: limit 2 [in 2, out 2]",
    ] {
        assert!(message.contains(line), "missing `{line}` in:\n{message}");
    }
    assert_eq!(db.last_stats().unwrap().pipeline_count(), 3);
    // A keyless FROM is a cross-product breaker.
    let StatementResult::Ok { message } = db.run("explain select * from emp a, emp b").unwrap()
    else {
        panic!("EXPLAIN must return a message")
    };
    assert!(message.contains("breaker: cross\n"), "{message}");
    assert_eq!(db.query("select * from emp a, emp b").unwrap().len(), 25);
}

#[test]
fn subquery_in_from_with_alias_scoping() {
    let mut db = fresh();
    let r = db
        .query(
            "select hi.name from
               (select name, salary from emp where salary > 75) hi
             where hi.salary < 95",
        )
        .unwrap();
    assert_eq!(r.len(), 2); // bob (90), cat (80)
}

#[test]
fn join_sugar_mixed_with_comma_sources() {
    let mut db = fresh();
    db.run("create table dept_heads (dept text, head text)")
        .unwrap();
    db.run("insert into dept_heads values ('eng', 'ann'), ('ops', 'cat')")
        .unwrap();
    let r = db
        .query(
            "select e.name, h.head
             from emp e join dept_heads h on e.dept = h.dept
             where e.name <> h.head
             order by e.name",
        )
        .unwrap();
    assert_eq!(r.len(), 2); // bob under ann, dan under cat
}

/// Three tables whose join predicates chain `a — c — b`, so the greedy
/// join order (a, c, b) differs from FROM order (a, b, c).
fn abc() -> MayBms {
    let mut db = MayBms::new();
    db.run_script(
        "create table a (x bigint, ax text);
         create table b (y bigint, bv text);
         create table c (x bigint, y bigint, cz text);
         insert into a values (1, 'a1'), (2, 'a2');
         insert into b values (10, 'b10'), (20, 'b20');
         insert into c values (1, 10, 'c1'), (2, 20, 'c2'), (2, 10, 'c3');",
    )
    .unwrap();
    db
}

#[test]
fn select_star_follows_from_order() {
    let mut db = abc();
    let from_order = vec!["x", "ax", "y", "bv", "x", "y", "cz"];
    let certain = "from a, b, c where a.x = c.x and b.y = c.y";
    let uncertain = "from (pick tuples from a) a, (pick tuples from b) b, c \
                     where a.x = c.x and b.y = c.y";
    for from in [certain, uncertain] {
        let r = db.query_uncertain(&format!("select * {from}")).unwrap();
        assert_eq!(r.schema().names(), from_order, "select * {from}");
        assert_eq!(r.len(), 3);
        // Values travel with their columns: every row is a1|a2 … c1|c2|c3.
        for t in r.tuples() {
            assert!(t.data.value(1).as_str().unwrap().starts_with('a'), "{t:?}");
            assert!(t.data.value(3).as_str().unwrap().starts_with('b'), "{t:?}");
            assert!(t.data.value(6).as_str().unwrap().starts_with('c'), "{t:?}");
        }
        // Qualified wildcards pick the same columns, in select-list order.
        let r = db
            .query_uncertain(&format!("select b.*, a.* {from}"))
            .unwrap();
        assert_eq!(
            r.schema().names(),
            vec!["y", "bv", "x", "ax"],
            "select b.*, a.* {from}"
        );
    }
}

#[test]
fn join_on_is_a_fused_hash_probe() {
    let mut db = abc();
    // Data values plus the size of each row's condition, sorted: `pick
    // tuples` draws fresh variables per statement, so variable ids differ
    // between two runs of the same query but the shape may not.
    let rows = |db: &mut MayBms, sql: &str| -> Vec<(String, usize)> {
        let u = db.query_uncertain(sql).unwrap();
        let mut rows: Vec<(String, usize)> = u
            .tuples()
            .iter()
            .map(|t| (format!("{:?}", t.data.values()), t.wsd.len()))
            .collect();
        rows.sort();
        rows
    };
    for (l, r, wsd_len) in [
        ("a", "c", 0),
        ("(pick tuples from a) a", "(pick tuples from c) c", 2),
    ] {
        let on = format!("select * from {l} join {r} on a.x = c.x");
        let message = explain(&mut db, &on);
        assert!(message.contains("hash probe"), "{message}");
        assert!(
            message.contains("pipeline (hash-join build side)"),
            "{message}"
        );
        let joined = rows(&mut db, &on);
        assert_eq!(
            joined,
            rows(&mut db, &format!("select * from {l}, {r} where a.x = c.x")),
            "{on}"
        );
        assert_eq!(joined.len(), 3);
        assert!(joined.iter().all(|(_, n)| *n == wsd_len), "{joined:?}");
    }
}

/// Figure 1's `start` and one step table, small: 8 players × 2 states.
fn walk_fixture() -> MayBms {
    let mut db = MayBms::new();
    db.run_script(
        "create table start (player bigint, state bigint);
         create table step1 (player bigint, init bigint, final bigint);",
    )
    .unwrap();
    for p in 0..8 {
        db.run(&format!("insert into start values ({p}, {})", p % 2))
            .unwrap();
        db.run(&format!(
            "insert into step1 values ({p}, 0, 0), ({p}, 0, 1), ({p}, 1, 0), ({p}, 1, 1)"
        ))
        .unwrap();
    }
    db
}

/// A WHERE / ON conjunct resolves against the whole block's FROM schema,
/// once: an unqualified column two sources share is the typed error the
/// SELECT list raises — it used to bind silently to the first FROM item
/// that had it (pushdown tried each source in turn).
#[test]
fn ambiguous_where_column_is_a_typed_error() {
    let mut db = walk_fixture();
    let join = "r1.player = s.player and r1.init = s.state";
    for sql in [
        format!("select ecount() from start s, step1 r1 where {join} and player < 4"),
        format!("select ecount() from start s join step1 r1 on {join} where player < 4"),
        format!("select ecount() from start s join step1 r1 on {join} and player < 4"),
        format!("select player from start s, step1 r1 where {join}"),
    ] {
        let err = db.query(&sql).unwrap_err().to_string();
        assert!(err.contains("`player` is ambiguous"), "{sql}: {err}");
    }
    // A name only one source has still works unqualified, in both spellings.
    for sql in [
        format!("select ecount() from start s, step1 r1 where {join} and state = 1 and final = 0"),
        format!(
            "select ecount() from start s join step1 r1 on {join} and final = 0 where state = 1"
        ),
    ] {
        let r = db.query(&sql).unwrap();
        assert_eq!(r.tuples()[0].value(0), &Value::Float(4.0), "{sql}");
    }
}

/// `JOIN … ON` contributes its leaves and ON conjuncts to the enclosing
/// block's one planner call, so WHERE restrictions land below the probe
/// exactly as in the comma spelling (they used to filter the 32 joined
/// rows after a probe over every `start` row).
#[test]
fn join_on_plans_like_the_comma_spelling() {
    let mut db = walk_fixture();
    let on = "select s.player, r1.final from start s join step1 r1 \
              on r1.player = s.player and r1.init = s.state \
              where s.player >= 2 and s.player < 4";
    let comma = "select s.player, r1.final from start s, step1 r1 \
                 where r1.player = s.player and r1.init = s.state \
                 and s.player >= 2 and s.player < 4";
    // Drop the echoed statement: the two spellings differ only there.
    let plan =
        |db: &mut MayBms, sql: &str| explain(db, sql).split_once('\n').unwrap().1.to_string();
    let on_plan = plan(&mut db, on);
    assert_eq!(on_plan, plan(&mut db, comma));
    // The restriction reached the build side as implied σ stages, and
    // both equalities are keys of the one probe.
    assert!(
        on_plan.contains("(implied by r1.player = s.player)"),
        "{on_plan}"
    );
    assert!(
        on_plan.contains("hash probe [#0 = build #0, #1 = build #1]"),
        "{on_plan}"
    );
    let StatementResult::Ok { message: ran } = db.run(&format!("explain analyze {on}")).unwrap()
    else {
        panic!("EXPLAIN ANALYZE must return a message")
    };
    // The run built on step1 r1 (its first pipeline), 8 rows, and the
    // probe gathered the two columns the projection reads.
    assert!(ran.contains("#1 pipeline (hash-join build side)"), "{ran}");
    assert!(ran.contains(", build 8, gathered 2 of 5]\n"), "{ran}");
    let rows = db.query(on).unwrap();
    assert_eq!(rows.tuples(), db.query(comma).unwrap().tuples());
    assert_eq!(rows.len(), 4);
    // Nested joins flatten left to right: `*` keeps FROM order.
    let r = db
        .query(
            "select * from start s join step1 r1 on r1.player = s.player \
             join step1 r2 on r2.player = r1.player and r2.init = r1.final \
             where s.player = 5 and r1.init = s.state",
        )
        .unwrap();
    assert_eq!(
        r.schema().names(),
        vec!["player", "state", "player", "init", "final", "player", "init", "final"]
    );
    assert_eq!(r.len(), 4);
}

/// What the planner may and may not copy across a join equality.
#[test]
fn implied_predicates_only_where_sound() {
    let mut db = MayBms::new();
    db.run_script(
        "create table s (k bigint, x double precision);
         create table r (k bigint, x double precision);
         insert into s values (1, 1.0), (2, 2.0), (5, 5.0);
         insert into r values (0, 0.0), (1, 1.0), (2, 2.0), (2, 2.5), (5, 5.0);",
    )
    .unwrap();
    // A conjunct that can raise is never copied: `10 / r.k > 1` would
    // divide by the zero key `r` holds and `s` does not.
    let q = "select s.k, r.x from s, r where s.k = r.k and 10 / s.k > 1";
    assert_eq!(db.query(q).unwrap().len(), 4);
    assert!(
        !explain(&mut db, q).contains("implied"),
        "{}",
        explain(&mut db, q)
    );
    // Same-typed key columns share a class: constants, ranges and IN
    // lists travel, in either direction, and the originals stay.
    for (restriction, rows) in [
        ("s.k = 2", 2),
        ("r.k >= 2 and r.k < 5", 2),
        ("2 <= s.k", 3),
        ("r.k in (1, 5)", 2),
    ] {
        let q = format!("select s.k, r.x from s, r where s.k = r.k and {restriction}");
        assert_eq!(db.query(&q).unwrap().len(), rows, "{q}");
        let p = explain(&mut db, &q);
        assert!(p.contains("(implied by s.k = r.k)"), "{p}");
        assert_eq!(
            p.matches("-> filter").count(),
            2 * restriction.matches("k").count(),
            "{p}"
        );
    }
    // A restriction the query already spells out on both sides is not
    // derived a second time.
    let q = "select s.k from s, r where s.k = r.k and s.k = 2 and r.k = 2";
    assert!(!explain(&mut db, q).contains("implied"));
    // Bigint-vs-double columns join (1 = 1.0) but share no class; `<>`,
    // an OR-ed equality and a literal of another type family link or
    // derive nothing.
    for (q, rows) in [
        ("select s.k from s, r where s.k = r.x and s.k >= 2", 2),
        (
            "select s.k from s, r where s.k <> r.k and s.x = r.x and s.k >= 2",
            0,
        ),
        (
            "select s.k from s, r where (s.k = r.k or s.x = r.x) and s.k >= 2",
            3,
        ),
    ] {
        assert_eq!(db.query(q).unwrap().len(), rows, "{q}");
        assert!(
            !explain(&mut db, q).contains("implied"),
            "{}",
            explain(&mut db, q)
        );
    }
    // `e.k = 'two'` raises on any row, and `e` has none: the copy on `r`
    // would raise where the query does not.
    db.run("create table e (k bigint)").unwrap();
    let q = "select r.k from e, r where e.k = r.k and e.k = 'two'";
    assert_eq!(db.query(q).unwrap().len(), 0);
}

#[test]
fn repair_key_inside_join_sugar() {
    let mut db = fresh();
    let r = db
        .query(
            "select R.name, conf() as p
             from (repair key dept in emp weight by bonus) R
                  join dept_heads_like d on R.dept = d.dept
             group by R.name",
        )
        .map(|_| ())
        .unwrap_err();
    // Table does not exist: error surfaces cleanly through the join path.
    assert!(r.to_string().contains("dept_heads_like"));
}

#[test]
fn tconf_with_wildcard() {
    let mut db = fresh();
    let r = db
        .query(
            "select *, tconf() from
             (pick tuples from emp with probability bonus) p",
        )
        .unwrap();
    assert_eq!(r.schema().len(), 5); // 4 data columns + tconf
    assert_eq!(r.len(), 5);
    let p_ann = r.tuples()[0].value(4).as_f64().unwrap();
    assert!((p_ann - 0.1).abs() < 1e-12);
}

/// `tconf()`'s scalar items report the row walk's first error: the lowest
/// row, then the leftmost item — here `y` overflows on the first row while
/// `x`, the item left of it, divides by zero only on the second.
#[test]
fn tconf_reports_the_first_error_by_row_then_item() {
    let mut db = MayBms::new();
    db.run_script(
        "create table t (a bigint, b bigint, p double precision);
         insert into t values (9223372036854775800, 1, 0.5), (1, 0, 0.5);",
    )
    .unwrap();
    let from = "from (pick tuples from t with probability p) r";
    let err = db
        .run(&format!(
            "select a / b as x, a + 10 as y, tconf() as p {from}"
        ))
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "arithmetic error: integer overflow in 9223372036854775800 + 10"
    );
    let err = db
        .run(&format!(
            "select a / (b - b) as x, a + 10 as y, tconf() as p {from}"
        ))
        .unwrap_err();
    assert_eq!(err.to_string(), "arithmetic error: division by zero");
}

#[test]
fn esum_with_computed_expression() {
    let mut db = fresh();
    let r = db
        .query(
            "select esum(salary * 2) as double_expected from
             (pick tuples from emp with probability bonus) p",
        )
        .unwrap();
    // 2 · Σ salaryᵢ · pᵢ = 2 · (10 + 18 + 24 + 10.5 + 3) = 131
    let v = r.tuples()[0].value(0).as_f64().unwrap();
    assert!((v - 131.0).abs() < 1e-9, "{v}");
}

#[test]
fn ecount_with_argument_skips_nulls() {
    let mut db = MayBms::new();
    db.run("create table t (v bigint, p double precision)")
        .unwrap();
    db.run("insert into t values (1, 0.5), (null, 0.5)")
        .unwrap();
    let r = db
        .query(
            "select ecount(v) as ev, ecount() as e from
             (pick tuples from t with probability p) x",
        )
        .unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Float(0.5)); // NULL row skipped
    assert_eq!(r.tuples()[0].value(1), &Value::Float(1.0));
}

#[test]
fn insert_select_roundtrip_and_update_where() {
    let mut db = fresh();
    db.run("create table archive (name text, salary bigint)")
        .unwrap();
    db.run("insert into archive select name, salary from emp where dept = 'eng'")
        .unwrap();
    assert_eq!(db.table("archive").unwrap().len(), 2);
    db.run("update archive set salary = salary + 5 where name = 'ann'")
        .unwrap();
    let r = db
        .query("select salary from archive where name = 'ann'")
        .unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Int(105));
}

#[test]
fn quoted_identifiers_and_case_insensitivity() {
    let mut db = MayBms::new();
    db.run(r#"create table "Weird Table" (a bigint)"#).unwrap();
    db.run(r#"insert into "Weird Table" values (1)"#).unwrap();
    let r = db.query(r#"select a from "Weird Table""#).unwrap();
    assert_eq!(r.len(), 1);
    // Unquoted identifiers are case-insensitive.
    let mut db = fresh();
    let r = db.query("SELECT NAME FROM EMP WHERE DEPT = 'hr'").unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn arithmetic_in_weight_expressions() {
    let mut db = fresh();
    let r = db
        .query(
            "select R.name, conf() as p
             from (repair key dept in emp weight by salary + bonus) R
             where R.dept = 'eng'
             group by R.name
             order by p desc",
        )
        .unwrap();
    assert_eq!(r.len(), 2);
    let p0 = r.tuples()[0].value(1).as_f64().unwrap();
    let expected = 100.1 / (100.1 + 90.2);
    assert!((p0 - expected).abs() < 1e-9);
}

/// Finite weights whose sum overflows `f64` are still a distribution:
/// two equal weights of 1e308 are 0.5 / 0.5.
#[test]
fn repair_key_weights_whose_sum_overflows() {
    let mut db = MayBms::new();
    db.run_script(
        "create table t (k bigint, v bigint, w double precision);
         insert into t values (1, 1, 1e308), (1, 2, 1e308);",
    )
    .unwrap();
    let r = db
        .query("select v, conf() as p from (repair key k in t weight by w) r group by v order by v")
        .unwrap();
    let p: Vec<Value> = r.tuples().iter().map(|t| t.value(1).clone()).collect();
    assert_eq!(p, vec![Value::Float(0.5), Value::Float(0.5)]);
    // The t-certain read gives its variable back; stored, the one key
    // group is one variable.
    assert_eq!(db.world_table().num_vars(), 0);
    db.run("create table r as select * from (repair key k in t weight by w) r")
        .unwrap();
    assert_eq!(db.world_table().num_vars(), 1);
}

#[test]
fn in_list_with_expressions_and_in_select_combined() {
    let mut db = fresh();
    let r = db
        .query(
            "select name from emp
             where salary in (70, 80, 90)
               and dept in (select dept from emp where name = 'cat')
             order by name",
        )
        .unwrap();
    let view = r.tuples();
    let names: Vec<&str> = view.iter().map(|t| t.value(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["cat", "dan"]);
}

/// `t(a, b, s)` with duplicate keys in `a` and one fully duplicated row.
fn dup_keys() -> MayBms {
    let mut db = MayBms::new();
    db.run_script(
        "create table t (a bigint, b bigint, s text);
         insert into t values (1, 10, 'x'), (1, 20, 'y'), (2, 30, 'x'), (2, 30, 'x');",
    )
    .unwrap();
    db
}

fn explain(db: &mut MayBms, sql: &str) -> String {
    match db.run(&format!("explain {sql}")).unwrap() {
        StatementResult::Ok { message } => message,
        other => panic!("EXPLAIN must return a message, got {other:?}"),
    }
}

#[test]
fn in_select_over_a_certain_subquery_is_a_semi_join() {
    // A value the subquery returns k times must not multiply the outer
    // row k times: the predicate below is always true, so it may change
    // neither a count nor an expectation.
    let mut db = dup_keys();
    let sql = "select count(*) as n from t where a in (select a from t)";
    let r = db.query(sql).unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Int(4));
    let plan = explain(&mut db, sql);
    assert_eq!(
        plan.matches("distinct (streaming, 1 keys)").count(),
        1,
        "{plan}"
    );

    db.run("create table u as select * from (pick tuples from t with probability 0.5) p")
        .unwrap();
    let plain = db
        .query("select a, ecount() as n from u group by a order by a")
        .unwrap();
    let filtered = db
        .query("select a, ecount() as n from u where a in (select a from t) group by a order by a")
        .unwrap();
    assert_eq!(filtered, plain);
    let view = filtered.tuples();
    let counts: Vec<&Value> = view.iter().map(|t| t.value(1)).collect();
    assert_eq!(counts, [&Value::Float(1.0), &Value::Float(1.0)]);
}

/// An uncertain IN-subquery keeps its duplicate matches — disjunctive
/// evidence `conf` and `possible` read exactly — so `esum` / `ecount` over
/// it would count a row once per condition; that is a typing error.
#[test]
fn in_select_over_an_uncertain_subquery_rejects_expectations() {
    let mut db = dup_keys();
    db.run("create table u as select * from (pick tuples from t with probability 0.5) p")
        .unwrap();
    let sub = "(select a from (pick tuples from t with probability 0.5) q)";
    for agg in ["ecount()", "esum(b)"] {
        let err = db.query(&format!(
            "select a, {agg} as n from u where a in {sub} group by a"
        ));
        assert!(
            matches!(err, Err(CoreError::Typing { .. })),
            "{agg}: {err:?}"
        );
    }
    let r = db
        .query(&format!(
            "select a, conf() as p from u where a in {sub} group by a"
        ))
        .unwrap();
    assert_eq!(r.len(), 2);
    let r = db
        .query(&format!("select possible a from u where a in {sub}"))
        .unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn between_is_both_comparisons() {
    let mut db = fresh();
    for (range, spelled) in [
        ("salary between 75 and 90", "salary >= 75 and salary <= 90"),
        (
            "salary not between 75 and 90",
            "(salary < 75 or salary > 90)",
        ),
        ("salary between 90 and 75", "salary >= 90 and salary <= 75"),
    ] {
        let q = |cond: &str| format!("select name from emp where {cond} order by name");
        assert_eq!(
            db.query(&q(range)).unwrap(),
            db.query(&q(spelled)).unwrap(),
            "{range}"
        );
    }
    assert_eq!(
        db.query("select name from emp where salary between 75 and 90")
            .unwrap()
            .len(),
        2
    );
    // A NULL bound makes the comparison unknown: no row is kept.
    for range in [
        "between null and 90",
        "between 75 and null",
        "not between null and null",
    ] {
        let r = db
            .query(&format!("select name from emp where salary {range}"))
            .unwrap();
        assert_eq!(r.len(), 0, "{range}");
    }
}

#[test]
fn distinct_applies_to_grouped_output() {
    let mut db = dup_keys();
    // Three (a, b) groups, two distinct values of a.
    let sql = "select distinct a from t group by a, b";
    let r = db.query(sql).unwrap();
    let view = r.tuples();
    let a: Vec<&Value> = view.iter().map(|t| t.value(0)).collect();
    assert_eq!(a, [&Value::Int(1), &Value::Int(2)]);
    let plan = explain(&mut db, sql);
    // The keys-only grouping is itself the group breaker with no
    // aggregates; DISTINCT is one more over the one output column.
    let grouping = plan.find("distinct (streaming, 2 keys)").expect(&plan);
    assert!(
        plan[grouping..].contains("distinct (streaming, 1 keys)"),
        "{plan}"
    );
    // DISTINCT is over whole output rows: (1, 10), (1, 20), (2, 60) differ
    // in the aggregate and stay apart; (1, 1), (1, 1), (2, 2) do not.
    let r = db
        .query("select distinct a, sum(b) as n from t group by a, b")
        .unwrap();
    assert_eq!(r.len(), 3);
    let r = db
        .query("select distinct a, count(*) as n from t group by a, b")
        .unwrap();
    assert_eq!(r.len(), 2);
    // …DISTINCT sees what HAVING lets through, and tconf() rows too.
    let r = db
        .query("select distinct a from t group by a, b having a = 1")
        .unwrap();
    assert_eq!(r.len(), 1);
    let r = db.query("select distinct s, tconf() as p from t").unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn drop_and_recreate() {
    let mut db = fresh();
    db.run("drop table emp").unwrap();
    db.run("create table emp (x bigint)").unwrap();
    db.run("insert into emp values (7)").unwrap();
    let r = db.query("select x from emp").unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Int(7));
}

#[test]
fn comments_in_statements() {
    let mut db = fresh();
    let r = db
        .query(
            "select name -- trailing comment
             from emp /* block
             comment */ where dept = 'hr'",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
}

/// Int keys compare as `i64` in a filter exactly as in a join: above 2^53
/// no two distinct keys are equal, whichever operator asks.
#[test]
fn int_keys_compare_exactly_in_filters_and_joins() {
    let mut db = MayBms::new();
    let keys = [
        i64::MIN,
        i64::MIN + 1,
        -(1 << 53) - 1,
        -(1 << 53),
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    db.run("create table t (k bigint)").unwrap();
    db.run("create table u (k bigint)").unwrap();
    for k in keys {
        // i64::MIN has no literal (its magnitude overflows): spell it.
        let lit = if k == i64::MIN {
            format!("{} - 1", k + 1)
        } else {
            k.to_string()
        };
        db.run(&format!("insert into t values ({lit})")).unwrap();
    }
    db.run("insert into u select k from t").unwrap();
    let ints = |db: &mut MayBms, sql: &str| -> Vec<i64> {
        let r = db.query(sql).unwrap();
        r.tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect()
    };
    // Each key joins itself only.
    assert_eq!(
        ints(&mut db, "select t.k from t, u where t.k = u.k order by 1"),
        keys
    );
    for (i, k) in keys.iter().enumerate().skip(1) {
        let eq = format!("select k from t where k = {k}");
        assert_eq!(ints(&mut db, &eq), vec![*k], "{eq}");
        let lt = format!("select k from t where k < {k} order by 1");
        assert_eq!(ints(&mut db, &lt), keys[..i], "{lt}");
        let join = format!("select t.k from t, u where t.k = u.k and u.k >= {k} order by 1");
        assert_eq!(ints(&mut db, &join), keys[i..], "{join}");
    }
}

/// Two `bigint`s compare as `i64`, not through `f64`: at ±2^53 (where
/// `f64` stops telling neighbours apart) and at `i64::MIN` / `i64::MAX`,
/// `ORDER BY`, `min()` / `max()` and a `GROUP BY` key all see every
/// value as distinct and in integer order.
#[test]
fn bigint_order_is_exact_beyond_2_pow_53() {
    let (p, m) = (1i64 << 53, i64::MIN);
    let mut db = MayBms::new();
    db.run_script(&format!(
        "create table big (g bigint, v bigint);
         insert into big values (1, {}), (1, {p}), (2, -{}), (2, -{p}),
           (3, {}), (3, {} - 1), (1, {p});",
        p + 1,
        p + 1,
        i64::MAX,
        m + 1,
    ))
    .unwrap();
    let mut ints = |sql: &str, col: usize| -> Vec<i64> {
        let r = db.query(sql).unwrap();
        r.tuples()
            .iter()
            .map(|t| t.value(col).as_int().unwrap())
            .collect()
    };
    assert_eq!(
        ints("select v from big order by v", 0),
        [m, -p - 1, -p, p, p, p + 1, i64::MAX]
    );
    assert_eq!(
        ints("select v from big order by v desc", 0),
        [i64::MAX, p + 1, p, p, -p, -p - 1, m]
    );
    assert_eq!(
        ints("select g, min(v) from big group by g order by g", 1),
        [p, -p - 1, m]
    );
    assert_eq!(
        ints("select g, max(v) from big group by g order by g", 1),
        [p + 1, -p, i64::MAX]
    );
    assert_eq!(ints("select min(v), max(v) from big", 0), [m]);
    assert_eq!(ints("select min(v), max(v) from big", 1), [i64::MAX]);
    // Each value is its own group, in first-seen order.
    assert_eq!(
        ints("select v, count(*) from big group by v", 0),
        [p + 1, p, -p - 1, -p, i64::MAX, m]
    );
    assert_eq!(
        ints("select v, count(*) from big group by v", 1),
        [1, 2, 1, 1, 1, 1]
    );
}

/// `register` checks each column's values against its declared type as
/// `INSERT` does: a text value in a `bigint` column is refused before
/// anything is installed, where it used to be stored and fail only when a
/// later query compared it.
#[test]
fn register_refuses_a_value_insert_refuses() {
    use maybms_engine::DataType::{Float, Int, Text};
    use maybms_urel::rel;
    let mut db = MayBms::new();
    let bad = rel(&[("x", Int)], vec![vec!["abc".into()], vec![3.into()]]);
    let err = db.register("t", bad).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Engine(maybms_engine::EngineError::TypeMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!(
        err.to_string(),
        "type mismatch: column x is bigint but the value abc is text"
    );
    assert!(
        db.table("t").is_err(),
        "a refused table must not be installed"
    );
    db.run("create table t (x bigint)").unwrap();
    let insert = db.run("insert into t values ('zzz')").unwrap_err();
    assert!(
        insert.to_string().contains("column x is bigint"),
        "{insert}"
    );
    // The first bad value is the lowest row's, then the leftmost column's.
    let late = rel(
        &[("a", Text), ("b", Int)],
        vec![vec!["ok".into(), 1.into()], vec![2.into(), "no".into()]],
    );
    let err = db.register("u", late).unwrap_err();
    assert!(err.to_string().contains("column a is text"), "{err}");
    // NULL fits any column and integers fit a float column.
    let fine = rel(
        &[("x", Int), ("y", Float)],
        vec![
            vec![Value::Null, 1.into()],
            vec![4.into(), Value::Float(0.5)],
        ],
    );
    db.register("v", fine).unwrap();
    let r = db.query("select x from v where x > 1").unwrap();
    assert_eq!(r.tuples()[0].value(0), &Value::Int(4));
}
