//! `IntegrationStats::driven_steps` is the loop's rig-cost counter. This
//! test checks that it counts what the rig really did: every component is
//! wrapped in a rig whose clones (the trace cache's checkpoints and
//! verification drives, the pool's parallel instances) all share one step
//! counter, and the stats must equal that counter exactly — with the trace
//! cache on and off, serially and on the pool, for honest rigs and for a
//! rig whose replays fail the determinism cross-check. The same rig counts
//! resets, which pins the serial cost of a test attempt: one record drive
//! and one replay, each from its own reset.

use muml_bench::experiments::CountingRig;
use muml_bench::workload::{counter_workload, seed_fault, ticker_counter_workload};
use muml_integration::automata::{Automaton, SignalSet, Universe};
use muml_integration::core::{
    verify_integration, IntegrationConfig, IntegrationReport, LegacyUnit,
};
use muml_integration::legacy::{
    fault_matrix, inject, HiddenMealy, LegacyComponent, PortMap, RetryPolicy, StateObservable,
};
use muml_integration::logic::Formula;
use muml_integration::railcab::{front_context, scenario, shuttle_variants};

/// The four harness modes: trace cache on/off × serial/pooled.
fn modes() -> Vec<(String, IntegrationConfig)> {
    let mut out = Vec::new();
    for cache in [true, false] {
        for parallelism in [1usize, 4] {
            out.push((
                format!("cache={cache} parallelism={parallelism}"),
                IntegrationConfig::default()
                    .with_trace_cache(cache)
                    .with_test_parallelism(parallelism),
            ));
        }
    }
    out
}

/// A clonable determinism liar: it claims `deterministic_rig()` (the trait
/// default) but, after every even-numbered reset, adds the counter's output
/// to each answer. Every test execution resets it twice (record drive,
/// replay), so its replays keep failing the cross-check.
#[derive(Clone)]
struct ResetParityLiar {
    inner: HiddenMealy,
    lie: SignalSet,
    resets: u64,
}

impl LegacyComponent for ResetParityLiar {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }
    fn reset(&mut self) {
        self.resets += 1;
        self.inner.reset();
    }
    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        let out = self.inner.step(inputs);
        if self.resets.is_multiple_of(2) {
            out.union(self.lie)
        } else {
            out
        }
    }
    fn period(&self) -> u64 {
        self.inner.period()
    }
}

impl StateObservable for ResetParityLiar {
    fn observable_state(&self) -> String {
        self.inner.observable_state()
    }
    fn initial_state_name(&self) -> String {
        self.inner.initial_state_name()
    }
    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// One integration cell: a component and the context it is integrated
/// into.
struct Cell<C> {
    tag: String,
    universe: Universe,
    context: Automaton,
    props: Vec<Formula>,
    component: C,
    ports: PortMap,
}

/// What a counting rig saw during one run: the run's report, and the steps
/// and resets taken by the rig and all its clones.
struct Counted {
    report: IntegrationReport,
    steps: usize,
    resets: usize,
}

/// Runs one cell on a counting rig.
fn run_counted<C: StateObservable + Clone + Send + 'static>(
    cell: Cell<C>,
    tag: &str,
    config: &IntegrationConfig,
) -> Counted {
    let mut rig = CountingRig::new(cell.component);
    let report = {
        let mut units = [LegacyUnit::new(&mut rig, cell.ports)];
        verify_integration(
            &cell.universe,
            &cell.context,
            &cell.props,
            &mut units,
            config,
        )
        .unwrap_or_else(|e| panic!("{tag}: {e}"))
    };
    Counted {
        report,
        steps: rig.steps(),
        resets: rig.resets(),
    }
}

/// Runs one cell and asserts the counter equals the shared step count.
fn assert_counted<C: StateObservable + Clone + Send + 'static>(
    cell: Cell<C>,
    mode: &str,
    config: &IntegrationConfig,
) {
    let tag = format!("{} {mode}", cell.tag);
    let run = run_counted(cell, &tag, config);
    assert!(run.steps > 0, "{tag}: the rig was never driven");
    assert_eq!(
        run.report.stats.driven_steps, run.steps,
        "{tag}: driven_steps must equal the rig's own step count"
    );
}

/// Counter and ticker-counter cells, correct and fault-seeded, and every
/// RailCab shuttle variant, plain and with each of its first two faults.
fn honest_cells() -> Vec<Cell<HiddenMealy>> {
    let mut cells = Vec::new();
    for (n, k, fault, ticker) in [
        (10usize, 8usize, None, false),
        (12, 10, Some(6usize), false),
        (8, 6, Some(3), true),
        (10, 8, None, true),
    ] {
        let mut w = if ticker {
            ticker_counter_workload(n, k)
        } else {
            counter_workload(n, k)
        };
        if let Some(d) = fault {
            seed_fault(&mut w, d);
        }
        cells.push(Cell {
            tag: format!("counter n={n} k={k} fault={fault:?} ticker={ticker}"),
            universe: w.universe,
            context: w.context,
            props: Vec::new(),
            component: w.component,
            ports: PortMap::with_default("p"),
        });
    }
    let u = Universe::new();
    let context = front_context(&u);
    let props = vec![scenario::pattern_constraint(&u)];
    for variant in shuttle_variants() {
        let faults = fault_matrix(&(variant.build)(&u), &u);
        for fault in std::iter::once(None).chain(faults.iter().take(2).map(Some)) {
            let mut shuttle = (variant.build)(&u);
            if let Some(f) = fault {
                inject(&mut shuttle, &u, f).expect("fault targets an existing rule");
            }
            cells.push(Cell {
                tag: format!(
                    "railcab {} fault={:?}",
                    variant.name,
                    fault.map(|f| f.describe())
                ),
                universe: u.clone(),
                context: context.clone(),
                props: props.clone(),
                component: shuttle,
                ports: scenario::rear_port_map(&u),
            });
        }
    }
    cells
}

#[test]
fn driven_steps_equal_the_rigs_own_step_count() {
    for (mode, config) in modes() {
        for cell in honest_cells() {
            assert_counted(cell, &mode, &config);
        }
    }
}

/// With the cache off every test attempt is the serial executor:
/// one record drive and one replay, each from its own reset — serially and
/// on the pool, whose parallel frontier probes run full attempts on clones.
#[test]
fn every_uncached_attempt_resets_the_rig_twice() {
    for parallelism in [1usize, 4] {
        let config = IntegrationConfig::default()
            .with_trace_cache(false)
            .with_test_parallelism(parallelism);
        for cell in honest_cells() {
            let tag = format!("{} cache=false parallelism={parallelism}", cell.tag);
            let run = run_counted(cell, &tag, &config);
            let attempts = run.report.stats.test_attempts;
            assert!(attempts > 0, "{tag}: no test attempt ran");
            assert_eq!(run.resets, 2 * attempts, "{tag}: resets per attempt");
            assert_eq!(run.report.stats.driven_steps, run.steps, "{tag}");
        }
    }
}

/// Failed attempts drive the rig too: every replay of the reset-parity liar
/// fails the cross-check, and the steps each failed attempt drove (the
/// record drive and the replay up to the mismatch) must be booked —
/// through the serial retry loop, the speculative parallel quorum (quorum
/// 2, no cache, four workers) and the trace cache's validation run.
#[test]
fn failed_replays_book_the_steps_they_drove() {
    for (mode, config) in modes() {
        let w = counter_workload(10, 8);
        let liar = ResetParityLiar {
            lie: w.component.interface().1,
            inner: w.component,
            resets: 0,
        };
        let retry = RetryPolicy::default().with_quorum(2).with_max_attempts(4);
        let cell = Cell {
            tag: "reset-parity liar".to_owned(),
            universe: w.universe,
            context: w.context,
            props: Vec::new(),
            component: liar,
            ports: PortMap::with_default("p"),
        };
        assert_counted(cell, &mode, &config.with_retry_policy(retry));
    }
}
