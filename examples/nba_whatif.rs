//! The paper's §3 demonstration: NBA decision support by what-if analysis
//! of team dynamics — fitness prediction as random walks on stochastic
//! matrices (Figure 1), skill management, and performance prediction.
//!
//! The original demo scraped www.nba.com and served a PHP front-end; here
//! a seeded generator stands in for the scrape and the console for the
//! browser. The what-if queries read only the tables, not where their
//! rows came from, so generated rows of the same schema run the same SQL
//! through the same engine.
//!
//! Run with: `cargo run --example nba_whatif`

use maybms::MayBms;
use maybms_engine::{rel, DataType, Value};

const STATES: [&str; 3] = ["F", "SE", "SL"]; // fit / seriously / slightly injured

/// Per-player fitness transition matrices (rows/cols ordered F, SE, SL).
/// Bryant's matrix is the one printed in Figure 1.
fn rosters() -> Vec<(&'static str, [[f64; 3]; 3], &'static str)> {
    vec![
        (
            "Bryant",
            [[0.8, 0.05, 0.15], [0.1, 0.6, 0.3], [0.8, 0.0, 0.2]],
            "F",
        ),
        (
            "Gasol",
            [[0.7, 0.1, 0.2], [0.2, 0.5, 0.3], [0.6, 0.1, 0.3]],
            "SL",
        ),
        (
            "Fisher",
            [[0.9, 0.02, 0.08], [0.15, 0.55, 0.3], [0.7, 0.05, 0.25]],
            "F",
        ),
        (
            "Odom",
            [[0.65, 0.15, 0.2], [0.1, 0.7, 0.2], [0.55, 0.15, 0.3]],
            "SE",
        ),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();

    // FT (FitnessTransition) — the relational encoding of the stochastic
    // matrices, exactly as in Figure 1.
    let mut ft_rows = Vec::new();
    let mut state_rows = Vec::new();
    for (player, m, init) in rosters() {
        for (i, from) in STATES.iter().enumerate() {
            for (j, to) in STATES.iter().enumerate() {
                if m[i][j] > 0.0 {
                    ft_rows.push(vec![
                        player.into(),
                        (*from).into(),
                        (*to).into(),
                        Value::Float(m[i][j]),
                    ]);
                }
            }
        }
        state_rows.push(vec![player.into(), init.into()]);
    }
    db.register(
        "ft",
        rel(
            &[
                ("player", DataType::Text),
                ("init", DataType::Text),
                ("final", DataType::Text),
                ("p", DataType::Float),
            ],
            ft_rows,
        ),
    )?;
    db.register(
        "states",
        rel(
            &[("player", DataType::Text), ("state", DataType::Text)],
            state_rows,
        ),
    )?;

    println!("=== Fitness prediction (Figure 1): 3-day random walk ===\n");
    // The 1-step walk, shown as a U-relation (Figure 1's R2).
    let r2 = db.query_uncertain(
        "select * from (repair key Player, Init in FT weight by p) R where R.player = 'Bryant'",
    )?;
    println!("U-relation R2 (1-step random walk on FT, Bryant):");
    println!("{}", r2.to_table_string(db.world_table())?);

    // The two statements from the paper, verbatim.
    db.run(
        "create table FT2 as
         select R1.Player, R1.Init, R2.Final, conf() as p from
         (repair key Player, Init in FT weight by p) R1,
         (repair key Player, Init in FT weight by p) R2, States S
         where R1.Player = S.Player and R1.Init = S.State
         and R1.Final = R2.Init and R1.Player = R2.Player
         group by R1.Player, R1.Init, R2.Final;",
    )?;
    let walk3 = db.query(
        "select R1.Player, R2.Final as State, conf() as p from
         (repair key Player, Init in FT2 weight by p) R1,
         (repair key Player, Init in FT weight by p) R2
         where R1.Final = R2.Init and R1.Player = R2.Player
         group by R1.player, R2.Final
         order by R1.player, p desc;",
    )?;
    println!("Three-day fitness forecast (P of each state after 3 days):");
    println!("{walk3}");

    // Probability each player is *fit* for the must-win match.
    let fit = db.query(
        "select R1.Player, conf() as p_fit from
         (repair key Player, Init in FT2 weight by p) R1,
         (repair key Player, Init in FT weight by p) R2
         where R1.Final = R2.Init and R1.Player = R2.Player and R2.Final = 'F'
         group by R1.Player
         order by p_fit desc;",
    )?;
    println!("P(fit in 3 days) — who can the coach count on:");
    println!("{fit}");

    println!("=== Team management: skill availability ===\n");
    db.run("create table skills (player text, skill text)")?;
    db.run(
        "insert into skills values
           ('Bryant', 'three_point'), ('Bryant', 'free_shooting'),
           ('Gasol',  'defense'),     ('Gasol',  'free_shooting'),
           ('Fisher', 'three_point'), ('Odom',   'defense')",
    )?;
    // The playing squad is the random subset of players who end up fit.
    db.run(
        "create table fit3 as
         select R1.Player, conf() as p_fit from
         (repair key Player, Init in FT2 weight by p) R1,
         (repair key Player, Init in FT weight by p) R2
         where R1.Final = R2.Init and R1.Player = R2.Player and R2.Final = 'F'
         group by R1.Player;",
    )?;
    let skills = db.query(
        "select s.skill, conf() as p_available from
         (pick tuples from fit3 independently with probability p_fit) a,
         skills s
         where a.player = s.player
         group by s.skill
         order by p_available desc;",
    )?;
    println!("P(someone with each skill is playing), given fitness forecasts:");
    println!("{skills}");

    println!("=== Performance prediction: expected weighted points ===\n");
    db.run("create table recent (player text, game bigint, pts bigint, w double precision)")?;
    db.run(
        "insert into recent values
           ('Bryant', 1, 42, 0.5), ('Bryant', 2, 35, 0.3), ('Bryant', 3, 28, 0.2),
           ('Gasol',  1, 20, 0.5), ('Gasol',  2, 14, 0.3), ('Gasol',  3, 22, 0.2),
           ('Fisher', 1, 10, 0.5), ('Fisher', 2,  8, 0.3), ('Fisher', 3, 12, 0.2)",
    )?;
    let predicted = db.query(
        "select R.player, esum(R.pts) as predicted_pts
         from (repair key player in recent weight by w) R
         group by R.player
         order by predicted_pts desc;",
    )?;
    println!("Predicted points (recency-weighted expectation):");
    println!("{predicted}");

    Ok(())
}
