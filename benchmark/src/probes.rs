//! Direct calls into single layer functions, on inputs of the benchmark's
//! own making: what `repair key`, `pick tuples` and the two confidence
//! engines cost without SQL, joins or the store around them.

use std::collections::BTreeMap;
use std::time::Instant;

use maybms_conf::{confidence_with_effort, ConfMethod, Dnf};
use maybms_core::MayBms;
use maybms_engine::Expr;
use maybms_urel::{pick_tuples, repair_key, PickTuplesOptions, RepairKeyOptions, WorldTable};

use crate::data;
use crate::rng::Rng;
use crate::workloads::{scaled, stream};

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `urel.*` and `conf.probe_*` metrics. The inputs have the sizes of
/// `conf_exact`'s tables, whatever workload the run is for.
pub fn run(seed: u64, divisor: usize) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut rng = Rng::new(seed, stream::DATA);
    let players = scaled(2000, divisor, 100);
    let weights = data::transition_weights(&mut rng, players);
    let start: Vec<usize> = (0..players)
        .map(|_| rng.below(data::STATES as u64) as usize)
        .collect();
    let readings = data::readings(&mut rng, scaled(50_000, divisor, 2500), 200);

    let mut db = MayBms::new();
    let mut load = data::walk_sql(&weights, &start);
    load.extend(data::readings_sql(&readings));
    for k in 1..=3 {
        load.push(format!(
            "create table step{k} as select * from (repair key player, init in ft weight by p) r"
        ));
    }
    for sql in &load {
        db.run(sql).map_err(|e| format!("probe load: {e}"))?;
    }
    let ft = db.query("select * from ft").map_err(|e| e.to_string())?;
    let rows = db
        .query("select * from readings")
        .map_err(|e| e.to_string())?;

    let mut out = BTreeMap::new();
    let mut wt = WorldTable::new();
    let t0 = Instant::now();
    let options = RepairKeyOptions {
        weight: Some(Expr::col("p")),
    };
    let repaired = repair_key(
        &ft,
        &[Expr::col("player"), Expr::col("init")],
        &options,
        &mut wt,
    )
    .map_err(|e| e.to_string())?;
    let repair_ms = ms_since(t0);
    let t0 = Instant::now();
    let options = PickTuplesOptions {
        probability: Some(Expr::col("rel")),
    };
    let picked = pick_tuples(&rows, &options, &mut wt).map_err(|e| e.to_string())?;
    let pick_ms = ms_since(t0);
    std::hint::black_box((repaired.len(), picked.len()));
    out.insert("urel.repair_key_ms", repair_ms);
    out.insert("urel.pick_tuples_ms", pick_ms);
    out.insert(
        "urel.ns_per_input_row",
        (repair_ms + pick_ms) * 1e6 / (ft.len() + rows.len()) as f64,
    );
    out.insert("urel.vars_created", wt.num_vars() as f64);

    // The lineage of one ten-player walk3 window as a single DNF: 640
    // three-variable clauses that share variables within a player.
    let lineage = db
        .query_uncertain(
            "select s.player, r3.final from start s, step1 r1, step2 r2, step3 r3 \
             where s.player >= 0 and s.player < 10 and r1.player = s.player and r1.init = s.state \
             and r2.player = r1.player and r2.init = r1.final and r3.player = r2.player and r3.init = r2.final",
        )
        .map_err(|e| e.to_string())?;
    let dnf = Dnf::from_wsds(lineage.tuples().iter().map(|t| &t.wsd));
    for (name, method) in [
        ("conf.probe_exact_ms", ConfMethod::Exact),
        (
            "conf.probe_approx_ms",
            ConfMethod::Approx {
                epsilon: 0.1,
                delta: 0.05,
                seed,
            },
        ),
    ] {
        let t0 = Instant::now();
        let (p, _) =
            confidence_with_effort(&dnf, db.world_table(), method).map_err(|e| e.to_string())?;
        out.insert(name, ms_since(t0));
        std::hint::black_box(p);
    }
    Ok(out)
}
