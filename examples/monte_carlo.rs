//! Monte Carlo what-if analysis: §3 describes "simulating random walks on
//! stochastic matrices" — this example shows the sampling counterpart to
//! exact confidence computation. `MayBms::sample_instance` draws one
//! possible world of the whole database; repeated draws estimate any
//! statistic, including ones outside the query language (here: the
//! probability that the *majority* of the squad is fit, a non-monotone
//! property that `conf()` alone cannot phrase).
//!
//! Run with: `cargo run --example monte_carlo`

use maybms::MayBms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();
    db.run("create table roster (player text, fit double precision)")?;
    db.run(
        "insert into roster values
           ('Bryant', 0.9), ('Gasol', 0.7), ('Fisher', 0.8),
           ('Odom', 0.6), ('Artest', 0.75)",
    )?;
    // The hypothesis space: which players show up fit.
    db.run(
        "create table squad as
         select * from (pick tuples from roster independently with probability fit) s",
    )?;

    // Exact, via the query language: expected number of fit players.
    let expected = db.query("select ecount() as expected_fit from squad")?;
    println!("Expected fit players (exact, by linearity):");
    println!("{}", expected.to_table_string(db.world_table())?);

    // Monte Carlo, via world sampling: P(at least 3 of 5 fit).
    let runs: u64 = 20_000;
    let mut majority = 0u32;
    let mut total_fit = 0usize;
    for seed in 0..runs {
        let instance = db.sample_instance(seed);
        let squad = instance
            .iter()
            .find(|(name, _)| name == "squad")
            .map(|(_, rel)| rel)
            .expect("squad table exists");
        total_fit += squad.len();
        if squad.len() >= 3 {
            majority += 1;
        }
    }
    let p_majority = f64::from(majority) / runs as f64;
    let mean_fit = total_fit as f64 / runs as f64;
    println!("Monte Carlo over {runs} sampled worlds:");
    println!("  mean fit players  = {mean_fit:.3}   (exact: 3.750)");
    println!("  P(majority fit)   = {p_majority:.3}");

    // Cross-check the sampler against an exact query on one player.
    let exact_bryant = db.query("select conf() as p from squad where player = 'Bryant'")?;
    let p_exact = exact_bryant.tuples()[0].value(0).as_f64().unwrap();
    let mut bryant_fit = 0u32;
    for seed in 0..runs {
        let instance = db.sample_instance(seed);
        let squad = instance
            .iter()
            .find(|(name, _)| name == "squad")
            .map(|(_, rel)| rel)
            .unwrap();
        if squad
            .tuples()
            .iter()
            .any(|t| t.value(0).as_str() == Some("Bryant"))
        {
            bryant_fit += 1;
        }
    }
    println!(
        "  P(Bryant fit): sampled {:.3} vs exact {:.3}",
        f64::from(bryant_fit) / runs as f64,
        p_exact
    );
    Ok(())
}
