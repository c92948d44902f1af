//! End-to-end warm-start scenarios: a second run against the same
//! component seeds its abstraction from the content-addressed store and
//! reaches the identical verdict with (far) less rig work, while any store
//! damage or component drift degrades to a cold start — never to a wrong
//! verdict or an error.

use muml_automata::{Automaton, AutomatonBuilder, Universe};
use muml_core::store::ComponentSignature;
use muml_core::{IntegrationReport, IntegrationSession, LegacyUnit};
use muml_legacy::{HiddenMealy, MealyBuilder, PortMap};
use muml_obs::Collector;
use muml_testkit::TempDir;

fn controller(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "ctx")
        .output("cmd")
        .input("ack")
        .state("send")
        .initial("send")
        .state("wait")
        .transition("send", [], ["cmd"], "wait")
        .transition("wait", ["ack"], [], "send")
        .build()
        .unwrap()
}

fn good_component(u: &Universe) -> HiddenMealy {
    MealyBuilder::new(u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], [], "got")
        .rule("got", [], ["ack"], "idle")
        .build()
        .unwrap()
}

/// Runs the controller/good-component scenario against `store_dir`,
/// returning the report and the collected event kinds.
fn run_once(store_dir: &std::path::Path) -> (IntegrationReport, Vec<String>) {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let sig = ComponentSignature::of_component(&c, &u);
    let mut sink = Collector::new();
    let report = IntegrationSession::new(&u, &ctx)
        .unit(LegacyUnit::new(&mut c, PortMap::with_default("port")).with_signature(sig))
        .with_store(store_dir)
        .sink(&mut sink)
        .run()
        .unwrap();
    let kinds = sink.events.iter().map(|e| e.kind().to_owned()).collect();
    (report, kinds)
}

#[test]
fn second_run_seeds_from_store_and_proves_without_testing() {
    let tmp = TempDir::new("warm-seed");
    let dir = tmp.path();
    let (first, first_kinds) = run_once(dir);
    assert!(first.verdict.proven(), "{:?}", first.verdict);
    assert!(first_kinds.iter().any(|k| k == "store_miss"));
    assert!(first.stats.driven_steps > 0);

    let (second, second_kinds) = run_once(dir);
    assert!(second.verdict.proven(), "{:?}", second.verdict);
    assert!(second_kinds.iter().any(|k| k == "store_hit"));
    // The seeded model is the first run's final learned model, so the very
    // first check proves the integration: no counterexamples, no rig work.
    assert_eq!(second.stats.tests_executed, 0);
    assert_eq!(second.stats.driven_steps, 0);
    assert_eq!(second.stats.iterations, 1);
}

#[test]
fn corrupt_snapshot_degrades_to_cold_start_with_identical_verdict() {
    let tmp = TempDir::new("warm-corrupt");
    let dir = tmp.path();
    let (first, _) = run_once(dir);
    assert!(first.verdict.proven());
    // Truncate every snapshot in the store (the index survives).
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json")
            && path.file_name().is_some_and(|n| n != "index.json")
        {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        }
    }
    let (second, kinds) = run_once(dir);
    assert!(second.verdict.proven(), "{:?}", second.verdict);
    assert!(kinds.iter().any(|k| k == "store_miss"));
    assert!(!kinds.iter().any(|k| k == "store_hit"));
    // Cold start: the rig was driven again, and the repaired snapshot is
    // back in place for the next run.
    assert!(second.stats.driven_steps > 0);
    let (third, third_kinds) = run_once(dir);
    assert!(third.verdict.proven());
    assert!(third_kinds.iter().any(|k| k == "store_hit"));
}

#[test]
fn rule_change_invalidates_instead_of_blindly_hitting() {
    let tmp = TempDir::new("warm-drift");
    let dir = tmp.path();
    let (first, _) = run_once(dir);
    assert!(first.verdict.proven());

    // Same boundary (name, interface, initial state), different rule set:
    // the ack is never sent, so the integration deadlocks for real.
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], [], "got")
        .rule("got", [], [], "idle")
        .build()
        .unwrap();
    let sig = ComponentSignature::of_component(&c, &u);
    let mut sink = Collector::new();
    let report = IntegrationSession::new(&u, &ctx)
        .unit(LegacyUnit::new(&mut c, PortMap::with_default("port")).with_signature(sig))
        .with_store(dir)
        .sink(&mut sink)
        .run()
        .unwrap();
    let kinds: Vec<&str> = sink.events.iter().map(|e| e.kind()).collect();
    assert!(
        kinds.contains(&"store_invalidated"),
        "expected dirty-cone invalidation, got {kinds:?}"
    );
    // The stale transitions were dropped, so the changed behaviour is
    // re-tested and the real deadlock found — not masked by the cache.
    assert!(
        matches!(
            report.verdict,
            muml_core::IntegrationVerdict::RealFault { .. }
        ),
        "{:?}",
        report.verdict
    );
}

#[test]
fn unsigned_units_ignore_the_store() {
    let tmp = TempDir::new("warm-unsigned");
    let dir = tmp.path();
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut sink = Collector::new();
    let report = IntegrationSession::new(&u, &ctx)
        .unit(LegacyUnit::new(&mut c, PortMap::with_default("port")))
        .with_store(dir)
        .sink(&mut sink)
        .run()
        .unwrap();
    assert!(report.verdict.proven());
    assert!(!sink.events.iter().any(|e| e.kind().starts_with("store_")));
    // Nothing persisted either.
    let snapshots = std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(snapshots, 0, "unsigned unit must not write snapshots");
}
