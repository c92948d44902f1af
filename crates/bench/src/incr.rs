//! `repro incr`: incremental recomposition and warm-started checking (the
//! `IntegrationConfig::incremental` default) against cold per-iteration
//! rebuilds, over the RailCab walkthroughs, scalable counter loops, and
//! the `full`-variant fault campaign at zero harness latency. Every
//! cold/incremental pair is asserted verdict-and-trace identical — the
//! differential oracle of DESIGN.md §12 — before its cell exists.

use muml_automata::Universe;
use muml_core::{verify_integration, IntegrationConfig, IntegrationReport, LegacyUnit};
use muml_legacy::{fault_matrix, inject, Fault, HiddenMealy, PortMap};
use muml_railcab::{correct_shuttle, faulty_shuttle, front_context, scenario, shuttle_variants};

use crate::envelope::Cell;
use crate::workload::{counter_workload, seed_fault, ticker_counter_workload, CounterWorkload};

/// The overall compose+check speedup the incremental mode aims for.
pub const TARGET_SPEEDUP: f64 = 2.0;

fn config(incremental: bool) -> IntegrationConfig {
    IntegrationConfig::default().with_incremental(incremental)
}

fn railcab_run(
    build: fn(&Universe) -> HiddenMealy,
    fault: Option<&Fault>,
    incremental: bool,
) -> IntegrationReport {
    let u = Universe::new();
    let context = front_context(&u);
    let mut shuttle = build(&u);
    if let Some(f) = fault {
        inject(&mut shuttle, &u, f).expect("fault targets an existing rule");
    }
    let props = vec![scenario::pattern_constraint(&u)];
    let mut units = [LegacyUnit::new(&mut shuttle, scenario::rear_port_map(&u))];
    verify_integration(&u, &context, &props, &mut units, &config(incremental))
        .expect("walkthrough terminates")
}

fn counter_run(
    mut w: CounterWorkload,
    fault_depth: Option<usize>,
    incremental: bool,
) -> IntegrationReport {
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
        &config(incremental),
    )
    .expect("counter loop terminates")
}

/// The differential oracle: the two modes must agree on everything an
/// observer can see — verdict, iteration count, per-iteration product
/// sizes, violated properties, rendered counterexample traces, outcomes,
/// and the learned-model sizes.
fn assert_equivalent(name: &str, cold: &IntegrationReport, incr: &IntegrationReport) {
    assert_eq!(
        cold.verdict.proven(),
        incr.verdict.proven(),
        "{name}: verdicts diverge between cold and incremental"
    );
    assert_eq!(
        cold.stats.iterations, incr.stats.iterations,
        "{name}: iteration counts diverge"
    );
    assert_eq!(
        cold.iterations.len(),
        incr.iterations.len(),
        "{name}: iteration-record counts diverge"
    );
    for (a, b) in cold.iterations.iter().zip(&incr.iterations) {
        let i = a.index;
        assert_eq!(
            a.composed_states, b.composed_states,
            "{name} iteration {i}: product sizes diverge"
        );
        assert_eq!(
            a.violated, b.violated,
            "{name} iteration {i}: violated properties diverge"
        );
        assert_eq!(
            a.counterexample, b.counterexample,
            "{name} iteration {i}: counterexample traces diverge"
        );
        assert_eq!(
            a.outcome, b.outcome,
            "{name} iteration {i}: outcomes diverge"
        );
        assert_eq!(
            a.knowledge, b.knowledge,
            "{name} iteration {i}: learned knowledge diverges"
        );
    }
    assert_eq!(
        cold.learned_sizes(),
        incr.learned_sizes(),
        "{name}: learned models diverge"
    );
}

/// Runs one workload cold and incrementally, asserts the pair equivalent,
/// and returns its cell: the incremental run's counters and both modes'
/// compose+check time.
fn pair(name: String, run: impl Fn(bool) -> IntegrationReport) -> Cell {
    let cold = run(false);
    let incr = run(true);
    assert_eq!(
        cold.stats.recompose_incremental, 0,
        "{name}: cold mode must never splice"
    );
    assert_equivalent(&name, &cold, &incr);
    let loop_ns = |r: &IntegrationReport| r.stats.timings.compose_ns + r.stats.timings.check_ns;
    Cell::new(name)
        .counter("iterations", incr.stats.iterations)
        .counter(
            "outcome",
            if incr.verdict.proven() {
                "proven"
            } else {
                "real_fault"
            },
        )
        .counter("incremental_recomposes", incr.stats.recompose_incremental)
        .counter("checker_warm_states", incr.stats.checker_warm_states)
        .counter("peak_product_bytes", incr.stats.peak_product_bytes)
        .wall("cold", loop_ns(&cold))
        .wall("incr", loop_ns(&incr))
}

/// Every cell of `repro incr`, then a `total` cell with the summed
/// compose+check times.
pub fn incr_cells() -> Vec<Cell> {
    let mut cells = vec![
        pair("fig2/correct".into(), |inc| {
            railcab_run(correct_shuttle, None, inc)
        }),
        pair("fig6/faulty".into(), |inc| {
            railcab_run(faulty_shuttle, None, inc)
        }),
    ];
    for (n, k) in [(16usize, 14usize), (32, 30), (48, 46)] {
        cells.push(pair(format!("counter/n={n},k={k}"), |inc| {
            counter_run(counter_workload(n, k), None, inc)
        }));
    }
    cells.push(pair("counter/n=32,fault@24".into(), |inc| {
        counter_run(counter_workload(32, 30), Some(24), inc)
    }));
    // The compose-bound shape: a context of hundreds of states (the driver
    // with a ticker grid), where the incremental splice, not the rig, is
    // the loop's cost.
    cells.push(pair("ticker/n=10,k=8".into(), |inc| {
        counter_run(ticker_counter_workload(10, 8), None, inc)
    }));

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
    cells.push(pair("campaign/full/baseline".into(), |inc| {
        railcab_run(full.build, None, inc)
    }));
    for fault in &faults {
        cells.push(pair(format!("campaign/full/{}", fault.describe()), |inc| {
            railcab_run(full.build, Some(fault), inc)
        }));
    }

    let sum = |key: &str| -> u64 {
        cells
            .iter()
            .flat_map(|c| &c.wall_ns)
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let total = Cell::new("total")
        // Reaching this point means every pair passed the differential
        // oracle: an assertion failure aborts before the envelope exists.
        .counter("verdicts_match", true)
        .counter("target", TARGET_SPEEDUP)
        .wall("cold", sum("cold"))
        .wall("incr", sum("incr"));
    cells.push(total);
    cells
}
