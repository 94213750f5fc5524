//! `mlpwin-figs --check` end to end: the binary, run in a scratch
//! directory holding copies of the goldens, must pass on faithful
//! copies and fail — naming the report and its first differing line —
//! on a tampered or missing one.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory with `results/` holding copies of the
/// named reports' goldens.
fn scratch_with_goldens(tag: &str, names: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpwin-figs-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("results")).expect("scratch results dir");
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in names {
        let file = format!("{name}.txt");
        fs::copy(repo_results.join(&file), dir.join("results").join(&file)).expect("copy golden");
    }
    dir
}

fn check(dir: &Path, names: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlpwin-figs"))
        .arg("--check")
        .args(names)
        .current_dir(dir)
        .output()
        .expect("mlpwin-figs runs")
}

#[test]
fn check_passes_on_faithful_goldens() {
    let dir = scratch_with_goldens("ok", &["table1", "table2"]);
    let out = check(&dir, &["table1", "table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout, "table1: ok\ntable2: ok\n");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_names_a_tampered_report_and_its_first_differing_line() {
    let dir = scratch_with_goldens("tampered", &["table1", "table2"]);
    let golden = dir.join("results/table2.txt");
    let text = fs::read_to_string(&golden).expect("golden");
    let tampered = text.replacen("ROB", "R0B", 1);
    assert_ne!(text, tampered, "table2 names the ROB");
    fs::write(&golden, tampered).expect("tamper");

    let out = check(&dir, &["table1", "table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a tampered golden must fail: {stdout}"
    );
    assert!(stdout.contains("table1: ok\n"), "{stdout}");
    let line = text
        .lines()
        .position(|l| l.contains("ROB"))
        .expect("ROB row")
        + 1;
    assert!(
        stdout.contains(&format!("table2: MISMATCH at line {line}\n")),
        "{stdout}"
    );
    assert!(stdout.contains("R0B") && stdout.contains("ROB"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_fails_on_a_missing_golden() {
    let dir = scratch_with_goldens("missing", &["table1"]);
    let out = check(&dir, &["table1", "table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("table2: MISSING golden"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_report_exits_non_zero_listing_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_mlpwin-figs"))
        .arg("fig99")
        .output()
        .expect("mlpwin-figs runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown report fig99"), "{stderr}");
    assert!(stderr.contains("ablate_prefetcher"), "{stderr}");
}
