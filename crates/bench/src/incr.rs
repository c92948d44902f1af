//! `repro incr`: the loop's compose and check phases — the product spliced
//! from each learn delta and checked by a fresh checker — over the RailCab
//! walkthroughs, scalable counter loops, and the `full`-variant fault
//! campaign at zero harness latency. The splice's equivalence to a cold
//! rebuild is checked where it is made
//! (`crates/logic/tests/incremental_differential.rs`) and the loop's
//! verdicts against ground truth (`tests/cross_validation.rs`); this
//! benchmark measures the one loop (DESIGN.md §12).

use muml_automata::Universe;
use muml_core::{
    verify_integration, IntegrationConfig, IntegrationReport, IntegrationStats, LegacyUnit,
};
use muml_legacy::{fault_matrix, inject, Fault, HiddenMealy, PortMap};
use muml_railcab::{correct_shuttle, faulty_shuttle, front_context, scenario, shuttle_variants};

use crate::envelope::Cell;
use crate::workload::{counter_workload, seed_fault, ticker_counter_workload, CounterWorkload};

fn railcab_run(build: fn(&Universe) -> HiddenMealy, fault: Option<&Fault>) -> IntegrationReport {
    let u = Universe::new();
    let context = front_context(&u);
    let mut shuttle = build(&u);
    if let Some(f) = fault {
        inject(&mut shuttle, &u, f).expect("fault targets an existing rule");
    }
    let props = vec![scenario::pattern_constraint(&u)];
    let mut units = [LegacyUnit::new(&mut shuttle, scenario::rear_port_map(&u))];
    verify_integration(
        &u,
        &context,
        &props,
        &mut units,
        &IntegrationConfig::default(),
    )
    .expect("walkthrough terminates")
}

fn counter_run(mut w: CounterWorkload, fault_depth: Option<usize>) -> IntegrationReport {
    if let Some(d) = fault_depth {
        seed_fault(&mut w, d);
    }
    let mut units = [LegacyUnit::new(
        &mut w.component,
        PortMap::with_default("p"),
    )];
    verify_integration(
        &w.universe,
        &w.context,
        &[],
        &mut units,
        &IntegrationConfig::default(),
    )
    .expect("counter loop terminates")
}

/// The compose+check time of a run.
fn compose_check_ns(stats: &IntegrationStats) -> u64 {
    stats.timings.compose_ns + stats.timings.check_ns
}

/// One workload's cell: its loop counters and compose+check time.
fn cell(name: String, report: &IntegrationReport) -> Cell {
    let stats = &report.stats;
    Cell::new(name)
        .counter("iterations", stats.iterations)
        .counter(
            "outcome",
            if report.verdict.proven() {
                "proven"
            } else {
                "real_fault"
            },
        )
        .counter("incremental_recomposes", stats.recompose_incremental)
        .counter("checker_worklist_pops", stats.checker_worklist_pops)
        .counter("peak_product_bytes", stats.peak_product_bytes)
        .wall("compose_check", compose_check_ns(stats))
}

/// Every cell of `repro incr`, then a `total` cell summing the workload
/// cells' iterations, spliced recomposes and compose+check times.
pub fn incr_cells() -> Vec<Cell> {
    let mut runs = vec![
        (
            "fig2/correct".to_owned(),
            railcab_run(correct_shuttle, None),
        ),
        ("fig6/faulty".to_owned(), railcab_run(faulty_shuttle, None)),
    ];
    for (n, k) in [(16usize, 14usize), (32, 30), (48, 46)] {
        runs.push((
            format!("counter/n={n},k={k}"),
            counter_run(counter_workload(n, k), None),
        ));
    }
    runs.push((
        "counter/n=32,fault@24".to_owned(),
        counter_run(counter_workload(32, 30), Some(24)),
    ));
    // The compose-bound shape: a context of hundreds of states (the driver
    // with a ticker grid), where the splice, not the rig, is the loop's
    // cost.
    runs.push((
        "ticker/n=10,k=8".to_owned(),
        counter_run(ticker_counter_workload(10, 8), None),
    ));

    // The `full`-variant fault campaign at zero harness latency: baseline
    // plus every fault of its deterministic fault matrix.
    let full = shuttle_variants()
        .iter()
        .find(|v| v.name == "full")
        .expect("full variant exists");
    let faults = {
        let u = Universe::new();
        fault_matrix(&(full.build)(&u), &u)
    };
    runs.push((
        "campaign/full/baseline".to_owned(),
        railcab_run(full.build, None),
    ));
    for fault in &faults {
        runs.push((
            format!("campaign/full/{}", fault.describe()),
            railcab_run(full.build, Some(fault)),
        ));
    }

    let sum =
        |f: fn(&IntegrationStats) -> u64| -> u64 { runs.iter().map(|(_, r)| f(&r.stats)).sum() };
    let total = Cell::new("total")
        .counter("iterations", sum(|s| s.iterations as u64))
        .counter(
            "incremental_recomposes",
            sum(|s| s.recompose_incremental as u64),
        )
        .wall("compose_check", sum(compose_check_ns));
    runs.iter()
        .map(|(name, report)| cell(name.clone(), report))
        .chain([total])
        .collect()
}
