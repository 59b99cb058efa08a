//! Quickstart: create uncertain data with `repair key` and `pick tuples`,
//! query it with `conf`, `tconf`, `possible`, `esum`/`ecount`.
//!
//! Run with: `cargo run --example quickstart`

use maybms::MayBms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();

    // Ordinary (t-certain) tables are plain SQL.
    db.run("create table census (name text, city text, quality double precision)")?;
    db.run(
        "insert into census values
           ('Smith', 'Oxford',  2.0),
           ('Smith', 'Ithaca',  1.0),
           ('Brown', 'Ithaca',  1.0),
           ('Brown', 'Geneva',  3.0)",
    )?;

    println!("== The dirty census table (certain) ==");
    println!(
        "{}",
        db.query("select * from census")?
            .to_table_string(db.world_table())?
    );

    // `repair key` turns key violations into a space of possible worlds:
    // each person lives in exactly one city per world, weighted by record
    // quality (§2.2).
    println!("== Marginal confidence of each repaired record ==");
    let conf = db.query(
        "select R.name, R.city, conf() as p
         from (repair key name in census weight by quality) R
         group by R.name, R.city
         order by R.name, p desc",
    )?;
    println!("{}", conf.to_table_string(db.world_table())?);

    // `possible` lists tuples that occur in at least one world (§2.2).
    println!("== Possible cities ==");
    let possible =
        db.query("select possible R.city from (repair key name in census weight by quality) R")?;
    println!("{}", possible.to_table_string(db.world_table())?);

    // `pick tuples` represents every subset of a table — here: which
    // sensors survive the night, independently (§2.2).
    db.run("create table sensors (id bigint, works double precision)")?;
    db.run("insert into sensors values (1, 0.9), (2, 0.5), (3, 0.1)")?;
    println!("== Expected number of live sensors (ecount by linearity) ==");
    let live = db.query(
        "select ecount() as expected_live
         from (pick tuples from sensors independently with probability works) s",
    )?;
    println!("{}", live.to_table_string(db.world_table())?);

    // tconf(): the marginal probability of each representation tuple.
    println!("== Per-tuple marginals of a self-join ==");
    let marginals = db.query(
        "select a.id, tconf() as p
         from (pick tuples from sensors independently with probability works) a,
              (pick tuples from sensors independently with probability works) b
         where a.id = b.id",
    )?;
    println!("{}", marginals.to_table_string(db.world_table())?);

    // Everything is still SQL: updates are representation-level edits (§2.3).
    db.run("update census set quality = 5.0 where city = 'Ithaca'")?;
    println!("== After UPDATE, the repair weights shift ==");
    let conf = db.query(
        "select R.name, R.city, conf() as p
         from (repair key name in census weight by quality) R
         group by R.name, R.city
         order by R.name, p desc",
    )?;
    println!("{}", conf.to_table_string(db.world_table())?);

    Ok(())
}
