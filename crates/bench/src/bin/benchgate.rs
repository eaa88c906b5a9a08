//! Regression gate CLI: judge a fresh `BENCH_*.json` artifact against
//! its committed baseline by the band table (`tahoe_bench::gate::BANDS`),
//! one line per row.
//!
//! ```sh
//! cargo run -p tahoe-bench --release --bin benchgate -- \
//!     baselines/BENCH_real.smoke.json target/real-artifact/BENCH_real.json
//! ```
//!
//! Exit status: 0 when no row fails (vacuous rows are reported, not
//! failed), 1 on violations or structural errors (missing files,
//! malformed JSON, schema mismatch).

use std::process::ExitCode;

use tahoe_bench::gate::{self, Verdict};
use tahoe_obs::json;

fn run(baseline_path: &str, fresh_path: &str) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (baseline, fresh) = (read(baseline_path)?, read(fresh_path)?);
    let mut pass = true;
    for (band, verdict) in gate::check(Some(&baseline), &fresh)? {
        match verdict {
            Verdict::Pass => println!("  pass     {}", band.label()),
            Verdict::Vacuous(why) => println!("  vacuous  {} ({why})", band.label()),
            Verdict::Fail(messages) => {
                pass = false;
                println!("  FAIL     {}", band.label());
                for m in messages {
                    println!("           - {m}");
                }
            }
        }
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: benchgate <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    match run(baseline_path, fresh_path) {
        Ok(true) => {
            println!("benchgate: PASS ({fresh_path} vs {baseline_path})");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("benchgate: FAIL ({fresh_path} vs {baseline_path})");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchgate: error: {e}");
            ExitCode::FAILURE
        }
    }
}
