//! §3 "Team management" under a budget cut: "the manager intends to lay
//! off some players with high salaries but at the same time without
//! compromising the competitiveness of the team significantly. For
//! instance, we may want to keep the availability of skill shooting at
//! least 90% and of passing at least 95%. The manager needs to know
//! whether this is possible and who can be laid off."
//!
//! Run with: `cargo run --example risk_management`

use maybms::MayBms;

const SHOOTING_MIN: f64 = 0.90;
const PASSING_MIN: f64 = 0.95;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();

    db.run("create table roster (player text, salary bigint, avail double precision)")?;
    db.run(
        "insert into roster values
           ('Bryant', 25, 0.95), ('Gasol', 18, 0.90), ('Fisher', 5, 0.85),
           ('Odom', 9, 0.80), ('Artest', 7, 0.90)",
    )?;
    db.run("create table skills (player text, skill text)")?;
    db.run(
        "insert into skills values
           ('Bryant', 'shooting'), ('Bryant', 'passing'),
           ('Gasol',  'passing'),  ('Gasol',  'shooting'),
           ('Fisher', 'passing'),  ('Odom',   'shooting'),
           ('Artest', 'shooting')",
    )?;

    println!("== Roster ==");
    println!(
        "{}",
        db.query("select * from roster order by salary desc")?
            .to_table_string(db.world_table())?
    );

    // Baseline skill availability with the full roster.
    let baseline = skill_availability(&mut db, "")?;
    println!(
        "== Baseline availability ==\n{}",
        baseline.to_table_string(db.world_table())?
    );

    // What-if: lay off each player in turn, check the two constraints.
    println!("== Lay-off analysis (need shooting ≥ {SHOOTING_MIN}, passing ≥ {PASSING_MIN}) ==\n");
    let players: Vec<(String, i64)> = db
        .query("select player, salary from roster order by salary desc")?
        .tuples()
        .iter()
        .map(|t| {
            (
                t.value(0).as_str().unwrap().to_string(),
                t.value(1).as_int().unwrap(),
            )
        })
        .collect();

    let mut feasible = Vec::new();
    for (player, salary) in &players {
        let table = skill_availability(&mut db, &format!("where player <> '{player}'"))?;
        let get = |skill: &str| -> f64 {
            table
                .tuples()
                .iter()
                .find(|t| t.value(0).as_str() == Some(skill))
                .map(|t| t.value(1).as_f64().unwrap())
                .unwrap_or(0.0)
        };
        let shooting = get("shooting");
        let passing = get("passing");
        let ok = shooting >= SHOOTING_MIN && passing >= PASSING_MIN;
        println!(
            "lay off {player:<7} (saves {salary:>2}M): shooting {shooting:.4}, \
             passing {passing:.4} → {}",
            if ok {
                "FEASIBLE"
            } else {
                "violates constraints"
            }
        );
        if ok {
            feasible.push((player.clone(), *salary));
        }
    }

    println!();
    match feasible.iter().max_by_key(|(_, s)| *s) {
        Some((player, salary)) => println!(
            "Recommendation: lay off {player} — saves {salary}M while keeping \
             shooting ≥ {SHOOTING_MIN} and passing ≥ {PASSING_MIN}."
        ),
        None => println!("No single lay-off satisfies the competitiveness constraints."),
    }

    Ok(())
}

/// P(someone with each skill is available), over the random squad drawn by
/// availability — with an optional roster filter for the what-if.
fn skill_availability(
    db: &mut MayBms,
    roster_filter: &str,
) -> Result<maybms_urel::URelation, Box<dyn std::error::Error>> {
    let sql = format!(
        "select s.skill, conf() as p from
           (pick tuples from
              (select player, avail from roster {roster_filter})
            independently with probability avail) a,
           skills s
         where a.player = s.player
         group by s.skill
         order by s.skill"
    );
    Ok(db.query(&sql)?)
}
