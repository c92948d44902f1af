//! `IntegrationStats::driven_steps` is the loop's rig-cost counter. This
//! test checks that it counts what the rig really did: every component is
//! wrapped in a rig whose clones (the trace cache's checkpoints and
//! verification drives, the pool's parallel instances) all share one step
//! counter, and the stats must equal that counter exactly — with the trace
//! cache on and off, serially and on the pool, for honest rigs and for a
//! rig whose replays fail the determinism cross-check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use muml_bench::workload::{counter_workload, seed_fault, ticker_counter_workload};
use muml_integration::automata::{Automaton, SignalSet, Universe};
use muml_integration::core::{verify_integration, IntegrationConfig, LegacyUnit};
use muml_integration::legacy::{
    fault_matrix, inject, HiddenMealy, LegacyComponent, PortMap, RetryPolicy, StateObservable,
};
use muml_integration::logic::Formula;
use muml_integration::railcab::{front_context, scenario, shuttle_variants};

/// Counts every `step` on itself and on all of its clones.
#[derive(Clone)]
struct CountingRig<C> {
    inner: C,
    steps: Arc<AtomicUsize>,
}

impl<C: LegacyComponent> LegacyComponent for CountingRig<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(inputs)
    }
    fn period(&self) -> u64 {
        self.inner.period()
    }
}

impl<C: StateObservable + Clone + Send + 'static> StateObservable for CountingRig<C> {
    fn observable_state(&self) -> String {
        self.inner.observable_state()
    }
    fn initial_state_name(&self) -> String {
        self.inner.initial_state_name()
    }
    fn deterministic_rig(&self) -> bool {
        self.inner.deterministic_rig()
    }
    fn rig_token(&self) -> String {
        self.inner.rig_token()
    }
    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        self.inner.try_clone_boxed()?;
        Some(Box::new(self.clone()))
    }
}

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
/// to each answer. Every test execution resets it three times (live run,
/// re-record, replay), so its replays keep failing the cross-check.
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

/// Runs one cell and asserts the counter equals the shared step count.
fn assert_counted<C: StateObservable + Clone + Send + 'static>(
    tag: &str,
    u: &Universe,
    context: &Automaton,
    props: &[Formula],
    component: C,
    ports: PortMap,
    config: &IntegrationConfig,
) {
    let steps = Arc::new(AtomicUsize::new(0));
    let mut rig = CountingRig {
        inner: component,
        steps: Arc::clone(&steps),
    };
    let mut units = [LegacyUnit::new(&mut rig, ports)];
    let report = verify_integration(u, context, props, &mut units, config)
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let driven = steps.load(Ordering::Relaxed);
    assert!(driven > 0, "{tag}: the rig was never driven");
    assert_eq!(
        report.stats.driven_steps, driven,
        "{tag}: driven_steps must equal the rig's own step count"
    );
}

#[test]
fn driven_steps_equal_the_rigs_own_step_count() {
    for (mode, config) in modes() {
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
            assert_counted(
                &format!("counter n={n} k={k} fault={fault:?} ticker={ticker} {mode}"),
                &w.universe,
                &w.context,
                &[],
                w.component.clone(),
                PortMap::with_default("p"),
                &config,
            );
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
                assert_counted(
                    &format!(
                        "railcab {} fault={:?} {mode}",
                        variant.name,
                        fault.map(|f| f.describe())
                    ),
                    &u,
                    &context,
                    &props,
                    shuttle,
                    scenario::rear_port_map(&u),
                    &config,
                );
            }
        }
    }
}

/// Failed attempts drive the rig too: every replay of the reset-parity liar
/// fails the cross-check, and the steps each failed attempt drove (live
/// run, re-record, and the replay up to the mismatch) must be booked —
/// through the serial retry loop, the speculative parallel quorum (quorum
/// 2, no cache, four workers) and the trace cache's validation run.
#[test]
fn failed_replays_book_the_steps_they_drove() {
    for (mode, config) in modes() {
        let w = counter_workload(10, 8);
        let liar = ResetParityLiar {
            lie: w.component.interface().1,
            inner: w.component.clone(),
            resets: 0,
        };
        let retry = RetryPolicy::default().with_quorum(2).with_max_attempts(4);
        assert_counted(
            &format!("reset-parity liar {mode}"),
            &w.universe,
            &w.context,
            &[],
            liar,
            PortMap::with_default("p"),
            &config.with_retry_policy(retry),
        );
    }
}
