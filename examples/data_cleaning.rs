//! Data cleaning as uncertainty management (§1: "Data cleaning can be
//! fruitfully approached as a problem of taming uncertainty in the
//! data."): conflicting records become a hypothesis space via
//! `repair key`; constraints prune worlds; `conf` ranks golden records.
//!
//! Run with: `cargo run --example data_cleaning`

use maybms::MayBms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();

    // Three sources disagree about customers. Source trust differs.
    db.run(
        "create table staging (cust bigint, name text, city text, source text, trust double precision)",
    )?;
    db.run(
        "insert into staging values
           (1, 'J. Smith',  'Oxford',     'crm',    3.0),
           (1, 'John Smith','Oxford',     'web',    2.0),
           (1, 'J. Smith',  'Cambridge',  'legacy', 1.0),
           (2, 'A. Jones',  'Ithaca',     'crm',    3.0),
           (2, 'Ann Jones', 'Ithaca',     'web',    2.0),
           (3, 'B. Brown',  'Providence', 'crm',    3.0)",
    )?;

    println!("== Raw staging data ==");
    println!(
        "{}",
        db.query("select * from staging order by cust")?
            .to_table_string(db.world_table())?
    );

    // One record per customer per world, weighted by source trust.
    println!("== Candidate golden records with confidence ==");
    let golden = db.query(
        "select R.cust, R.name, R.city, conf() as p
         from (repair key cust in staging weight by trust) R
         group by R.cust, R.name, R.city
         order by R.cust, p desc",
    )?;
    println!("{}", golden.to_table_string(db.world_table())?);

    // Per-attribute marginals: what is the probability distribution of
    // each customer's *city*, regardless of the name?
    println!("== City marginals per customer ==");
    let cities = db.query(
        "select R.cust, R.city, conf() as p
         from (repair key cust in staging weight by trust) R
         group by R.cust, R.city
         order by R.cust, p desc",
    )?;
    println!("{}", cities.to_table_string(db.world_table())?);

    // A cleaning constraint: we know customer 1 is in the UK; Cambridge(MA)
    // records were mis-geocoded. Condition the space by filtering before
    // the repair (constraint-driven cleaning).
    println!("== After applying the constraint city <> 'Cambridge' ==");
    let cleaned = db.query(
        "select R.cust, R.name, R.city, conf() as p
         from (repair key cust in
                 (select cust, name, city, trust from staging where city <> 'Cambridge')
               weight by trust) R
         group by R.cust, R.name, R.city
         order by R.cust, p desc",
    )?;
    println!("{}", cleaned.to_table_string(db.world_table())?);

    // Expected number of distinct spellings in the clean table — a data
    // quality metric via ecount.
    println!("== Expected records kept per repair (always 1 per customer) ==");
    let quality = db.query(
        "select R.cust, ecount() as expected_records
         from (repair key cust in staging weight by trust) R
         group by R.cust
         order by R.cust",
    )?;
    println!("{}", quality.to_table_string(db.world_table())?);

    // Decision: accept the maximum-confidence repair per customer.
    println!("== Accepted golden records (argmax over confidence) ==");
    db.run(
        "create table scored as
         select R.cust, R.name, R.city, conf() as p
         from (repair key cust in staging weight by trust) R
         group by R.cust, R.name, R.city",
    )?;
    let accepted = db.query(
        "select cust, argmax(name || ' @ ' || city, p) as golden
         from scored group by cust order by cust",
    )?;
    println!("{}", accepted.to_table_string(db.world_table())?);

    Ok(())
}
