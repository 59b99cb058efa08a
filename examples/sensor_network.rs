//! §1 motivation: "Sensor and RFID data are inherently uncertain." A small
//! sensor-network monitoring scenario: noisy temperature readings carry
//! per-reading reliabilities; repair-key models mutually-exclusive
//! calibration hypotheses; queries compute alarm confidences and expected
//! aggregate load.
//!
//! Run with: `cargo run --example sensor_network`

use maybms::MayBms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = MayBms::new();

    // Readings: each row is one sensor's reported temperature with the
    // probability that the report is genuine (link quality).
    db.run(
        "create table readings (sensor bigint, room text, temp double precision, reliability double precision)",
    )?;
    db.run(
        "insert into readings values
           (1, 'server_room', 41.0, 0.95),
           (2, 'server_room', 39.5, 0.70),
           (3, 'lobby',       22.0, 0.99),
           (4, 'lobby',       35.0, 0.20),
           (5, 'lab',         30.5, 0.80),
           (6, 'lab',         29.0, 0.60)",
    )?;

    println!("== Raw readings ==");
    println!(
        "{}",
        db.query("select * from readings order by sensor")?
            .to_table_string(db.world_table())?
    );

    // The *true* set of readings is a random subset: a reading exists iff
    // it was genuine.
    db.run(
        "create table genuine as
         select * from (pick tuples from readings
                        independently with probability reliability) r",
    )?;

    // Alarm: P(some genuine reading in the room exceeds 38°C).
    println!("== Overheating alarms: P(any genuine reading > 38) per room ==");
    let alarms = db.query(
        "select room, conf() as p_alarm
         from genuine
         where temp > 38.0
         group by room
         order by p_alarm desc",
    )?;
    println!("{}", alarms.to_table_string(db.world_table())?);

    // Expected number of genuine readings per room (network health).
    println!("== Expected genuine readings per room ==");
    let health = db.query(
        "select room, ecount() as expected_readings
         from genuine group by room order by room",
    )?;
    println!("{}", health.to_table_string(db.world_table())?);

    // Expected heat load: esum of temperatures per room.
    println!("== Expected sum of genuine temperatures per room ==");
    let load = db.query(
        "select room, esum(temp) as expected_heat
         from genuine group by room order by room",
    )?;
    println!("{}", load.to_table_string(db.world_table())?);

    // Calibration hypotheses: sensor 5 is drifting by one of three offsets,
    // mutually exclusive — a repair-key space joined with the readings.
    db.run("create table drift (sensor bigint, offset_c double precision, w double precision)")?;
    db.run("insert into drift values (5, 0.0, 1), (5, 1.5, 2), (5, 3.0, 1)")?;
    println!("== Corrected lab estimate under drift hypotheses ==");
    let corrected = db.query(
        "select esum(r.temp - d.offset_c) as expected_corrected_sum
         from genuine r, (repair key sensor in drift weight by w) d
         where r.sensor = d.sensor",
    )?;
    println!("{}", corrected.to_table_string(db.world_table())?);

    // Which sensor most likely produced the lab's hottest genuine reading?
    println!("== Most likely hottest lab sensor ==");
    db.run(
        "create table lab_max as
         select r.sensor, tconf() as p
         from genuine r
         where r.room = 'lab'",
    )?;
    let hottest = db.query("select argmax(sensor, p) as sensor from lab_max")?;
    println!("{}", hottest.to_table_string(db.world_table())?);

    Ok(())
}
