//! `--compare A.json B.json`: the regression gate. Each side is one file or
//! a comma-separated list of files written by `--out` at one commit.

use std::path::Path;

use crate::json::Json;
use crate::stats::{median, spread};

struct Side {
    quick: bool,
    runs: Vec<Json>,
}

fn load(list: &str) -> Result<Side, String> {
    let mut runs = Vec::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        runs.push(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let sizes: Vec<bool> = runs
        .iter()
        .map(|r| r.get("quick") == Some(&Json::Bool(true)))
        .collect();
    match sizes.first() {
        None => Err(format!("no files in '{list}'")),
        Some(first) if sizes.iter().any(|q| q != first) => {
            Err(format!("'{list}' mixes --quick and full-size runs"))
        }
        Some(first) => Ok(Side {
            quick: *first,
            runs,
        }),
    }
}

impl Side {
    fn workload<'a>(run: &'a Json, workload: &str) -> Option<&'a Json> {
        run.get("workloads").and_then(|w| w.get(workload))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| {
                Side::workload(r, workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .num()
            })
            .collect()
    }

    fn fail_ratio(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> f64 {
            self.runs
                .iter()
                .filter_map(|r| Side::workload(r, workload)?.get(key)?.num())
                .sum()
        };
        sum("failed") / sum("attempted").max(1.0)
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a: &str, b: &str, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    if a.quick != b.quick {
        return Err(
            "one side is --quick and the other full size: their numbers are never compared".into(),
        );
    }
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let contract = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let mut passed = true;
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound"
    );
    for workload in contract.get("workloads").map_or(&[][..], Json::items) {
        let workload = workload
            .get("name")
            .and_then(Json::str)
            .ok_or("workload without a name")?;
        for metric in contract.get("end_to_end").map_or(&[][..], Json::items) {
            let field = |k: &str| {
                metric
                    .get(k)
                    .and_then(Json::str)
                    .ok_or(format!("metric without '{k}'"))
            };
            let (name, unit, better) = (field("name")?, field("unit")?, field("better")?);
            let bound = metric
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without a bound")?;
            let (va, vb) = (a.values(workload, name), b.values(workload, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{name} is missing from one side"));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if spread(&va).max(spread(&vb)) > bound {
                "unresolved"
            } else if worse > bound {
                passed = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {name:<26} {ma:>14.6} {mb:>14.6} {:>9.4} {bound:>7.2}  {verdict}  [{unit}, base A, n={}+{}]",
                mb / ma,
                va.len(),
                vb.len()
            );
        }
        let (fa, fb) = (a.fail_ratio(workload), b.fail_ratio(workload));
        let verdict = if fb > fa {
            passed = false;
            "regressed"
        } else {
            "ok"
        };
        println!(
            "{workload:<18} {:<26} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {verdict}",
            "fail_ratio", "-", "0"
        );
    }
    Ok(passed)
}
