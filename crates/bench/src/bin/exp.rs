//! Experiment driver: regenerate any table/figure of the reproduction,
//! or any gated `BENCH_*.json` artifact (`tahoe_bench::ARTIFACTS`).
//!
//! ```sh
//! cargo run -p tahoe-bench --release --bin exp -- all
//! cargo run -p tahoe-bench --release --bin exp -- e4 e7
//! cargo run -p tahoe-bench --release --bin exp -- obs    # CI smoke artifact
//! cargo run -p tahoe-bench --release --bin exp -- real --smoke --out /tmp/real
//! cargo run -p tahoe-bench --release --bin exp -- bless  # re-bless baselines/
//! ```

use std::process::ExitCode;

/// Remove `flag` and the value after it from `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires an argument"));
    }
    Ok(args.drain(i..=i + 1).nth(1))
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    // `--tiers 3` turns `real` into the DRAM/CXL/NVM sweep (`real3`).
    let tiers = take_value(&mut args, "--tiers")?;
    // `--out DIR` replaces the default `target/<kind>-artifact`.
    let out = take_value(&mut args, "--out")?;
    if args.is_empty() {
        let kinds: Vec<&str> = tahoe_bench::ARTIFACTS.iter().map(|a| a.0).collect();
        return Err(format!(
            "usage: exp <all|e1..e13|{}|bless [kind...]> [--smoke] [--tiers N] [--out DIR] [more experiments]",
            kinds.join("|")
        ));
    }
    if args[0] == "bless" {
        return tahoe_bench::bless(&args[1..]);
    }
    for arg in &args {
        let table = tahoe_bench::EXPERIMENTS.iter().find(|e| e.0 == arg);
        match (arg.as_str(), tiers.as_deref(), table) {
            (_, _, Some((_, run))) => run(),
            ("all", ..) => tahoe_bench::all(),
            ("real", Some("3"), _) => drop(tahoe_bench::produce("real3", smoke, out.as_deref())?),
            ("real", Some(n), _) if n != "2" => {
                return Err(format!("exp real supports --tiers 2 or 3, got {n}"))
            }
            (kind, ..) => drop(tahoe_bench::produce(kind, smoke, out.as_deref())?),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
