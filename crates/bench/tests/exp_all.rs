//! `baselines/exp_all.txt` is what `exp all` prints: the log README and
//! EXPERIMENTS.md cite is compared here, byte for byte, so it cannot go
//! stale. The experiments run in virtual time and are deterministic.
//! Re-bless with `cargo run --release --bin exp -- all > baselines/exp_all.txt`.

use std::process::Command;

#[test]
fn exp_all_prints_the_committed_log() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("all")
        .output()
        .expect("run exp");
    assert!(out.status.success(), "exp all failed: {out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8 tables");
    let blessed = include_str!("../../../baselines/exp_all.txt");
    for (n, (got, want)) in printed.lines().zip(blessed.lines()).enumerate() {
        assert_eq!(got, want, "line {} of `exp all` drifted", n + 1);
    }
    assert_eq!(
        printed, blessed,
        "`exp all` drifted from baselines/exp_all.txt"
    );
}
