//! `--quick` end to end, in process: answers are right, every metric the
//! contract names is printed with its unit, and the result digest is a
//! function of the seed alone.

use maybms_benchmark::json::Json;
use maybms_benchmark::workloads::SPECS;
use maybms_benchmark::{metrics, run_suite, Size};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn field<'a>(metric: &'a Json, key: &str) -> &'a str {
    metric
        .get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("metric without {key}"))
}

#[test]
fn quick_suite_is_correct_complete_and_repeatable() {
    let first = run_suite(11, Size::quick()).expect("quick suite");
    let again = run_suite(11, Size::quick()).expect("quick suite");
    let other = run_suite(12, Size::quick()).expect("quick suite");

    for (e2e, layers) in &first.workloads {
        assert_eq!(
            e2e.failed + layers.failed,
            0,
            "{}: fail_ratio must be 0",
            e2e.workload
        );
        assert!(e2e.attempted > 0 && e2e.samples > 0);
        let fail_ratio = layers
            .metrics
            .iter()
            .find(|(d, _)| d.name == "fail_ratio")
            .expect("fail_ratio")
            .1;
        assert_eq!(fail_ratio, 0.0);
        assert_eq!(
            e2e.digest, layers.digest,
            "{}: the passes of one seed agree",
            e2e.workload
        );
    }
    for ((a, _), ((b, _), (c, _))) in first
        .workloads
        .iter()
        .zip(again.workloads.iter().zip(&other.workloads))
    {
        assert_eq!(
            a.digest, b.digest,
            "{}: same seed, same answers",
            a.workload
        );
        assert_ne!(
            a.digest, c.digest,
            "{}: another seed, other answers",
            a.workload
        );
    }

    let contract = contract();
    let names: Vec<&str> = contract
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
    let table = first.table();
    for (key, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let listed = contract.get(key).unwrap().items();
        assert_eq!(
            listed.len(),
            defs.len(),
            "{key}: BENCHMARK.json and metrics.rs list the same metrics"
        );
        for (metric, def) in listed.iter().zip(&defs) {
            let (name, unit) = (field(metric, "name"), field(metric, "unit"));
            assert_eq!(
                (name, unit, field(metric, "better")),
                (def.name.as_str(), def.unit, def.better)
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                table.lines().any(|l| {
                    let mut words = l.split_whitespace().skip(2);
                    words.next() == Some(name) && words.nth(1) == Some(unit)
                }),
                "{name} is not printed with unit {unit}"
            );
        }
    }
}
