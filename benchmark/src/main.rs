//! The repository's benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark [one] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run      [--runs 3] [--seconds S] [--seed 1] [--out FILE]
//! benchmark aa       [--sets 2] [--runs 5] [--seconds S] [--seed 1] [--out FILE]
//! benchmark compare  <a> <b>
//! benchmark manifest [--json]
//! ```

mod batch;
mod gen;
mod json;
mod manifest;
mod probes;
mod run;
mod serve;
mod settle;
mod spans;
mod stats;
mod suite;
#[cfg(test)]
mod tests;

use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark [one] --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run      [--runs N] [--seconds S] [--seed N] [--out FILE]
  benchmark aa       [--sets N] [--runs N] [--seconds S] [--seed N] [--out FILE]
  benchmark compare  <a> <b>      (suite files, or NOISE.json#<set>)
  benchmark manifest [--json]";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("expected a --flag, got {k:?}"))?;
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or(format!("--{key} is required"))
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn one(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    f.only(&["workload", "seed", "seconds", "trace"])?;
    let cfg = run::RunConfig {
        workload: f.need("workload")?,
        seed: f.need("seed")?,
        seconds: f.need("seconds")?,
        trace: match f.need::<u8>("trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace is 0 or 1, got {t}")),
        },
    };
    let outcome = run::run_one(&cfg)?;
    outcome.print_table();
    run::write_files(&outcome).map_err(|e| format!("writing results: {e}"))?;
    // The contract's result: the last line of standard output.
    println!("{}", outcome.result_line());
    Ok(())
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let noise = concat!(env!("CARGO_MANIFEST_DIR"), "/NOISE.json");
    match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") && flag != "--help" => one(args)?,
        Some("one") => one(&args[1..])?,
        Some("run") => {
            let f = Flags::parse(&args[1..])?;
            f.only(&["runs", "seconds", "seed", "out"])?;
            let default_out = run::out_dir().join("suite.json").display().to_string();
            std::fs::create_dir_all(run::out_dir()).map_err(|e| e.to_string())?;
            suite::run(
                f.get("runs")?.unwrap_or(3),
                f.get("seconds")?.unwrap_or(manifest::RUN_SECONDS),
                f.get("seed")?.unwrap_or(1),
                &f.get("out")?.unwrap_or(default_out),
            )?
        }
        Some("aa") => {
            let f = Flags::parse(&args[1..])?;
            f.only(&["sets", "runs", "seconds", "seed", "out"])?;
            suite::aa(
                f.get("sets")?.unwrap_or(2),
                f.get("runs")?.unwrap_or(5),
                f.get("seconds")?.unwrap_or(manifest::RUN_SECONDS),
                f.get("seed")?.unwrap_or(1),
                &f.get("out")?.unwrap_or(noise.to_string()),
            )?
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                if suite::compare(a, b)? {
                    return Ok(ExitCode::from(1));
                }
            }
            _ => return Err("compare takes two files".into()),
        },
        Some("manifest") => match &args[1..] {
            [] => print!("{}", manifest::describe()),
            [j] if j == "--json" => print!("{}", manifest::benchmark_json().pretty()),
            _ => return Err("manifest takes only --json".into()),
        },
        _ => {
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
