//! CLI-contract tests for the `repro` binary: exit codes, usage text, and
//! the envelopes the campaign benchmarks write.

use std::path::Path;
use std::process::Command;

use muml_obs::json::{parse, Json};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Runs `repro` in `dir` and asserts it exits 0.
fn repro_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The counter `key` of the envelope cell `cell` in `dir/BENCH_<artefact>.json`.
fn counter(dir: &Path, artefact: &str, cell: &str, key: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("BENCH_{artefact}.json"))).unwrap();
    let doc = parse(&text).expect("the envelope is valid JSON");
    assert_eq!(doc.get("artefact").and_then(Json::as_str), Some(artefact));
    let Some(Json::Array(cells)) = doc.get("cells") else {
        panic!("no cells: {text}")
    };
    cells
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(cell))
        .and_then(|c| c.get("counters")?.get(key))
        .unwrap_or_else(|| panic!("no counter {cell}.{key}: {text}"))
        .clone()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-{tag}-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_artefact_exits_2_and_lists_every_benchmark() {
    let out = repro(&["no-such-artefact"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artefact"), "{stderr}");
    for name in ["fleet", "check", "storm", "tables", "--store"] {
        assert!(stderr.contains(name), "{name}: {stderr}");
    }
}

#[test]
fn unknown_flag_exits_2() {
    for flag in ["--frobnicate", "--jobs", "--clients"] {
        let out = repro(&["fleet", flag, "4"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{flag}"
        );
    }
}

#[test]
fn json_flag_is_rejected_for_unsupported_artefacts() {
    let out = repro(&["fig3", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--json is only supported"), "{stderr}");
    assert!(stderr.contains("fleet"), "{stderr}");
    assert!(stderr.contains("storm"), "{stderr}");
}

#[test]
fn store_flag_is_warm_only() {
    let out = repro(&["fleet", "--store", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store is only supported for `warm`"));
    let out = repro(&["warm", "--store"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--store requires"));
}

#[test]
fn warm_runs_clean_twice_and_writes_the_envelope() {
    // First run against a persistent store: cold, must show the seeded
    // run's ≥2× step reduction (the assertion is built in — a regression
    // panics). Second run against the same store is the cache-poisoning
    // guard: every cell now seeds from the first run's snapshots, and any
    // flipped verdict panics inside warm_campaign.
    let dir = scratch("warm");
    let store = dir.join("store");
    for prewarmed in [false, true] {
        let stdout = repro_in(
            &dir,
            &["warm", "--json", "--store", store.to_str().unwrap()],
        );
        assert!(stdout.contains("verdicts identical"), "{stdout}");
        let total = |key| counter(&dir, "warm", "total", key);
        assert_eq!(total("verdicts_identical"), Json::Bool(true));
        assert_eq!(total("store_prewarmed"), Json::Bool(prewarmed));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storm_runs_clean_and_writes_the_envelope() {
    // The full sweep runs in a few seconds; `--json` must exit 0 (the
    // soundness assertion is built in — a flipped verdict panics) and
    // write BENCH_storm.json into the working directory.
    let dir = scratch("storm");
    repro_in(&dir, &["storm", "--json"]);
    assert_eq!(
        counter(&dir, "storm", "total", "verdicts_sound"),
        Json::Bool(true)
    );
    assert_eq!(
        counter(&dir, "storm", "rate=0.00", "inconclusive"),
        Json::Int(0)
    );
    std::fs::remove_dir_all(&dir).ok();
}
