//! The command line's error contract: bad arguments and malformed inputs
//! print `error: …` and exit 1 — never a panic (exit 101) from deep
//! inside a workload.

use std::io::Read as _;
use std::process::{Command, Output, Stdio};

fn machtlb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_machtlb"))
        .args(args)
        .output()
        .expect("the machtlb binary runs")
}

fn assert_usage_error(args: &[&str]) -> String {
    let out = machtlb(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// Every subcommand refuses a machine too small for its workload up
/// front, instead of asserting inside the catalog, the simulator, or the
/// workload.
#[test]
fn undersized_machines_are_usage_errors_not_panics() {
    for args in [
        &["chaos", "--cpus", "3"][..],
        &["fig2", "--cpus", "0"],
        &["trace", "--cpus", "0"],
        &["trace", "--workload", "tester", "--cpus", "1"],
        &["trace", "--workload", "camelot", "--cpus", "4"],
        &["app", "mach", "--cpus", "0"],
        &["app", "mach", "--cpus", "1"],
        &["app", "camelot", "--cpus", "4"],
        &["storm", "--cpus", "0"],
        &["tester", "--children", "0", "--cpus", "1"],
        &["soak", "--cpus", "3"],
    ] {
        assert_usage_error(args);
    }
}

/// Numeric flags are never truncated or allowed to exhaust memory: a
/// child or sweep count past `u32` once ran as 1, a sweep wider than the
/// machine panicked in the tester, a huge shard count or machine size
/// aborted in the allocator, and `app mach --cpus 100000` ran until
/// killed.
#[test]
fn out_of_range_numbers_are_usage_errors() {
    for args in [
        &["tester", "--children", "4294967297"][..],
        &["fig2", "--max-k", "4294967297"],
        &["fig2", "--max-k", "16"],
        &["tester", "--shards", "100000000000"],
        &["tester", "--shards", "16385"],
        &["tester", "--cpus", "5000000000"],
        &["app", "mach", "--cpus", "100000"],
        &["scaling", "--upto", "4097"],
        &["fuzz", "--cpus", "5000000000"],
    ] {
        assert_usage_error(args);
    }
}

/// Every on/off flag refuses any other value: `soak --smoke yes` once
/// ran the full soak and `fuzz --shrink maybe` once shrank.
#[test]
fn on_off_flags_refuse_other_values() {
    for args in [
        &["tester", "--batch", "yes"][..],
        &["tester", "--residency", "1"],
        &["app", "mach", "--lazy", "no"],
        &["storm", "--cross", "sideways"],
        &["soak", "--smoke", "yes"],
        &["soak", "--inject-exhaustion", "true"],
        &["fuzz", "--smoke", "On"],
        &["fuzz", "--shrink", "maybe"],
    ] {
        assert_usage_error(args);
    }
}

/// A flag the subcommand does not take is refused instead of ignored:
/// `chaos --seed 3` once ran the default seeds (the flag is `--seeds`),
/// and `fig2 --cpu 4` once ran 16 processors.
#[test]
fn unknown_flags_are_usage_errors() {
    for (args, flag) in [
        (&["chaos", "--seed", "3"][..], "chaos does not take --seed"),
        (&["fig2", "--cpu", "4"], "fig2 does not take --cpu"),
    ] {
        let stderr = assert_usage_error(args);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// A verdict over nothing is not green: zero seeds, rounds or cycles are
/// refused instead of reporting a vacuous success.
#[test]
fn vacuous_runs_are_usage_errors() {
    for args in [
        &["chaos", "--cpus", "4", "--seeds", "0"][..],
        &["chaos", "--cpus", "4", "--rounds", "0"],
        &["soak", "--rounds", "0"],
        &["soak", "--cycles", "0"],
        &["fuzz", "--rounds", "0"],
        &["fuzz", "--budget", "0"],
        &["fig2", "--max-k", "0"],
        &["fig2", "--runs", "0"],
    ] {
        assert_usage_error(args);
    }
}

/// A hand-edited schedule whose victim does not fit a processor id is
/// refused: `"cpu": 4294967297` once replayed green as a stall on cpu1.
#[test]
fn replay_refuses_an_out_of_range_cpu() {
    let text = include_str!("data/repro_attach_recheck.json");
    let edited = text.replace("\"cpu\": 6", "\"cpu\": 4294967297");
    assert_ne!(edited, text, "the repro stalls cpu6");
    let path = std::env::temp_dir().join(format!("machtlb-cli-{}.json", std::process::id()));
    std::fs::write(&path, edited).expect("write the edited schedule");
    let path_arg = path.to_str().expect("utf-8 temp path");
    assert_usage_error(&["replay", "--schedule", path_arg]);
    let _ = std::fs::remove_file(&path);
}

/// A failed verdict is not a usage error: a red replay prints its error
/// without the usage text, while a bad argument still gets it.
#[test]
fn failed_verdicts_do_not_print_usage() {
    let known_bad = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/known_bad_schedule.json"
    );
    let stderr = assert_usage_error(&["replay", "--schedule", known_bad]);
    assert!(stderr.contains("error: replay caught"), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    let stderr = assert_usage_error(&["chaos", "--seed", "3"]);
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

/// A reader that closes stdout early (`machtlb chaos | head -1`) ends
/// the run quietly: no panic from a failed print, and the exit code is
/// still the verdict's.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_machtlb"))
        .args(["chaos", "--cpus", "8", "--seeds", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the machtlb binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("the header line");
    drop(stdout);
    let out = child.wait_with_output().expect("the machtlb binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
