//! The shipped shell demo script (`scripts/nba_demo.sql`) must run
//! end-to-end — it is the paper's Figure 1 program, so the final statement
//! must produce one 3-state distribution per player.

use maybms::{MayBms, QueryOutput, StatementResult};

#[test]
fn nba_demo_script_runs() {
    let script =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/nba_demo.sql"))
            .expect("demo script present");
    let mut db = MayBms::new();
    let results = db.run_script(&script).expect("script runs");
    // 5 statements: 2 create, 2 insert, 1 create-as … plus the final select.
    let Some(StatementResult::Query(QueryOutput::Certain(walk))) = results.last().cloned() else {
        panic!("last statement must be a certain query result");
    };
    assert_eq!(walk.len(), 6, "3 states × 2 players");
    // Distributions sum to 1 per player.
    let mut sums = std::collections::HashMap::new();
    for t in walk.tuples() {
        *sums.entry(t.value(0).to_string()).or_insert(0.0) += t.value(2).as_f64().unwrap();
    }
    assert_eq!(sums.len(), 2);
    for (player, s) in sums {
        assert!((s - 1.0).abs() < 1e-9, "{player}: {s}");
    }
    // Rows are ordered per player by descending probability.
    let bryant: Vec<f64> = walk
        .tuples()
        .iter()
        .filter(|t| t.value(0).as_str() == Some("Bryant"))
        .map(|t| t.value(2).as_f64().unwrap())
        .collect();
    assert!(bryant.windows(2).all(|w| w[0] >= w[1]));
}
