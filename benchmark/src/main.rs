//! The one command. See `README.md`.

use std::process::ExitCode;

use maybms_benchmark::workloads::{spec, SPECS};
use maybms_benchmark::{
    compare, driver_line, pinned_env_violation, run, run_suite, Env, Kind, Size,
};

const USAGE: &str = "usage:
  maybms-benchmark [--seed N] [--seconds S] [--quick] [--out FILE]
      all four workloads: end-to-end and per-layer metrics, one row each
  maybms-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of output is its JSON result
  maybms-benchmark --compare A.json[,A2.json…] B.json[,B2.json…]
      the regression gate over files written by --out";

struct Args {
    seed: u64,
    seconds: f64,
    quick: bool,
    out: Option<String>,
    workload: Option<String>,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 20.0,
        quick: false,
        out: None,
        workload: None,
        trace: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--workload" => args.workload = Some(value()?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        // From the repository root, or from wherever this was built.
        let contract = [
            "BENCHMARK.json",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
        ]
        .into_iter()
        .map(std::path::Path::new)
        .find(|p| p.exists())
        .unwrap_or(std::path::Path::new("BENCHMARK.json"));
        return match compare::compare(a, b, contract) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(var) = pinned_env_violation() {
        eprintln!("{var} is set: the benchmark measures the default configuration only; unset it");
        return ExitCode::from(2);
    }
    let size = if args.quick {
        Size::quick()
    } else {
        Size::full(args.seconds)
    };
    let env = Env::capture();
    println!("{}", env.line(args.seed));

    let outcome = match &args.workload {
        Some(name) => match spec(name) {
            None => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                eprintln!("no workload {name}; there are {names:?}");
                return ExitCode::from(2);
            }
            Some(spec) => run(
                spec,
                args.seed,
                size,
                if args.trace {
                    Kind::PerLayer
                } else {
                    Kind::EndToEnd
                },
            )
            .map(|report| {
                println!(
                    "workload={} result_digest={:016x} latency_samples={}",
                    spec.name, report.digest, report.samples
                );
                println!("{}", driver_line(&report));
            }),
        },
        None => run_suite(args.seed, size).and_then(|suite| {
            print!("{}", suite.table());
            if let Some(path) = &args.out {
                std::fs::write(path, suite.json(&env)).map_err(|e| format!("write {path}: {e}"))?;
            }
            Ok(())
        }),
    };
    match outcome {
        // Wrong answers are reported in the result, not by the exit code:
        // the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
