//! Round-trip property: for randomly generated ASTs, `parse(print(ast)) ==
//! ast`; and for a corpus of realistic MayBMS statements,
//! `parse(print(parse(s))) == parse(s)`.

use maybms_sql::ast::*;
use maybms_sql::{parse_expr, parse_statement};
use proptest::prelude::*;

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        maybms_sql::token::Keyword::from_ident(s).is_none()
    })
}

fn arb_lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        Just(Lit::Null),
        any::<bool>().prop_map(Lit::Bool),
        (-1000i64..1000).prop_map(Lit::Int),
        // Finite floats that print exactly (halves) keep == comparable.
        (-100i64..100).prop_map(|i| Lit::Float(i as f64 / 2.0)),
        "[a-zA-Z '!]{0,8}".prop_map(Lit::Str),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit().prop_map(Expr::Lit),
        arb_ident().prop_map(Expr::ident),
        (arb_ident(), arb_ident()).prop_map(|(q, n)| Expr::qident(q, n)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Lt),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Concat),
                ],
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
                expr: Box::new(e),
                negated: n
            }),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 1..3),
                any::<bool>()
            )
                .prop_map(|(e, list, n)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated: n
                }),
            (
                prop::collection::vec((inner.clone(), inner.clone()), 1..3),
                prop::option::of(inner.clone())
            )
                .prop_map(|(branches, else_expr)| Expr::Case {
                    branches,
                    else_expr: else_expr.map(Box::new),
                }),
            (arb_ident(), prop::collection::vec(inner.clone(), 0..3)).prop_map(|(name, args)| {
                Expr::Func {
                    name,
                    args,
                    star: false,
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse failed for `{printed}`: {err}"));
        prop_assert_eq!(e, reparsed, "printed: {}", printed);
    }
}

/// A corpus of realistic statements covering every construct; checks the
/// weaker (but normalisation-robust) property parse∘print∘parse = parse.
#[test]
fn corpus_roundtrip() {
    let corpus = [
        "select * from t",
        "select distinct a, b from t where a > 1",
        "select possible Player from R",
        "select conf() as p from r1, r2 where r1.k = r2.k group by r1.k",
        "select aconf(0.1, 0.05) from r group by x having x > 0",
        "select tconf() from r",
        "select esum(v), ecount() from r group by g",
        "select argmax(player, score) from r group by team",
        "select * from (repair key a, b in T weight by w) R1",
        "select * from (repair key a in (select a, w from T) weight by w)",
        "repair key a in T",
        "pick tuples from T independently with probability 0.5",
        "select * from (pick tuples from T) X",
        "select a from r union select a from s union all select a from t",
        "select a from t order by a desc, b limit 10",
        "select a from t where a in (select b from s)",
        "select a from t where a in (1, 2) and b not in (3)",
        "select case when a > 0 then 1 else 0 end from t",
        "select cast(a as double precision) from t",
        "select a.x, b.* from a join b on a.k = b.k",
        "create table t (a bigint, b double precision, c text)",
        "create table ft2 as select conf() from r group by x",
        "insert into t values (1, 'x''y', null, true)",
        "insert into t (a, b) select a, b from s",
        "update t set a = a + 1, b = 'z' where c is not null",
        "delete from t where a = 1 or b < 2",
        "drop table if exists t",
    ];
    for sql in corpus {
        let a = parse_statement(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        let printed = a.to_string();
        let b = parse_statement(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(a, b, "sql: {sql}\nprinted: {printed}");
    }
}
