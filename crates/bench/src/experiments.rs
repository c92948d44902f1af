//! Experiment runners for the tables T-A … T-F of DESIGN.md, and the
//! `repro tables` envelope that carries them.
//!
//! Every runner measures all methods with the *same* cost metric: rig
//! resets and symbols driven. The baselines drive the component itself;
//! the paper's loop drives it through a [`CountingRig`], because its trace
//! cache runs most of its steps on checkpoint and witness clones, and
//! reports the clones it took. The paper's claims under test:
//!
//! * **C3 — fast conflict detection**: a fault reachable under the context
//!   is found after few iterations/steps, with no false negatives.
//! * **C4 — partial learning**: the paper's approach learns only the
//!   context-relevant fraction of the component; full regular inference
//!   (`L*` + conformance) always learns everything and pays the
//!   Vasilevskii/Chow suite, exponential in the state-bound gap.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use muml_automata::SignalSet;
use muml_core::{verify_integration, IntegrationConfig, IntegrationVerdict, LegacyUnit};
use muml_inference::{
    black_box_check, learn, BbcConfig, BbcVerdict, CexProcessing, ComponentOracle, LstarLimits,
    WMethodOracle,
};
use muml_legacy::{LegacyComponent, PortMap, StateObservable};
use muml_logic::{check_all, Formula, Verdict};

use crate::envelope::{timed, Cell};
use crate::workload::{
    counter_alphabet, counter_workload, seed_fault, twin_workload, CounterWorkload,
};

/// A rig that counts every `step` and `reset` on itself and on all of its
/// clones, and the clones taken ([`StateObservable::try_clone_boxed`]).
#[derive(Clone)]
pub struct CountingRig<C> {
    inner: C,
    counts: Arc<Counts>,
}

#[derive(Default)]
struct Counts {
    steps: AtomicUsize,
    resets: AtomicUsize,
    clones: AtomicUsize,
}

impl<C> CountingRig<C> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: C) -> Self {
        CountingRig {
            inner,
            counts: Arc::default(),
        }
    }

    /// Steps driven on this rig and every clone of it.
    pub fn steps(&self) -> usize {
        self.counts.steps.load(Ordering::Relaxed)
    }

    /// Resets of this rig and every clone of it.
    pub fn resets(&self) -> usize {
        self.counts.resets.load(Ordering::Relaxed)
    }

    /// Clones taken of this rig and of its clones.
    pub fn clones(&self) -> usize {
        self.counts.clones.load(Ordering::Relaxed)
    }
}

impl<C: LegacyComponent> LegacyComponent for CountingRig<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }
    fn reset(&mut self) {
        self.counts.resets.fetch_add(1, Ordering::Relaxed);
        self.inner.reset();
    }
    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        self.counts.steps.fetch_add(1, Ordering::Relaxed);
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
        self.counts.clones.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(self.clone()))
    }
}

/// The cost of one method on one workload.
#[derive(Debug, Clone)]
pub struct MethodCost {
    /// Method name.
    pub method: &'static str,
    /// Outcome summary (`proven`, `fault`, `verified`, …).
    pub outcome: String,
    /// Component resets performed.
    pub resets: u64,
    /// Input symbols driven into the component.
    pub steps: u64,
    /// Rig clones taken (checkpoints, witnesses, parallel instances); the
    /// baselines never clone.
    pub clones: u64,
    /// States of the final learned model / hypothesis.
    pub learned_states: usize,
    /// Verification iterations (ours) or refinement rounds (baselines).
    pub rounds: usize,
    /// Wall-clock nanoseconds of the run.
    pub nanos: u64,
}

impl MethodCost {
    /// The envelope cell `<prefix>/<method>`.
    pub fn cell(&self, prefix: &str) -> Cell {
        Cell::new(format!("{prefix}/{}", self.method))
            .counter("outcome", self.outcome.as_str())
            .counter("resets", self.resets)
            .counter("steps", self.steps)
            .counter("clones", self.clones)
            .counter("learned_states", self.learned_states)
            .counter("rounds", self.rounds)
            .wall("run", self.nanos)
    }
}

fn outcome(verdict: &IntegrationVerdict) -> String {
    match verdict {
        IntegrationVerdict::Proven => "proven",
        IntegrationVerdict::RealFault { .. } => "fault",
        IntegrationVerdict::Inconclusive { .. } => "inconclusive",
    }
    .to_owned()
}

/// Runs the paper's approach on a counter workload.
pub fn run_ours(w: &CounterWorkload) -> MethodCost {
    run_ours_with(w, &IntegrationConfig::default())
}

/// Runs the paper's approach on a counter workload under `config`.
pub fn run_ours_with(w: &CounterWorkload, config: &IntegrationConfig) -> MethodCost {
    let mut rig = CountingRig::new(w.component.clone());
    let (report, nanos) = timed(|| {
        let mut units = [LegacyUnit::new(&mut rig, PortMap::with_default("port"))];
        verify_integration(&w.universe, &w.context, &[], &mut units, config)
            .expect("integration terminates")
    });
    MethodCost {
        method: "ours",
        outcome: outcome(&report.verdict),
        resets: rig.resets() as u64,
        steps: rig.steps() as u64,
        clones: rig.clones() as u64,
        learned_states: report.learned_sizes()[0].0,
        rounds: report.stats.iterations,
        nanos,
    }
}

/// Runs plain `L*` with a W-method equivalence oracle (bound = true state
/// count), then model checks the learned model against the context —
/// "learn everything, then verify".
pub fn run_lstar_then_check(w: &CounterWorkload) -> MethodCost {
    run_lstar_variant(w, CexProcessing::AddAllPrefixes, "lstar+check")
}

/// Like [`run_lstar_then_check`] with Rivest–Schapire counterexample
/// processing — the query-optimized `L*` variant.
pub fn run_lstar_rs_then_check(w: &CounterWorkload) -> MethodCost {
    run_lstar_variant(w, CexProcessing::RivestSchapire, "lstar-rs+check")
}

fn run_lstar_variant(
    w: &CounterWorkload,
    cex_processing: CexProcessing,
    method: &'static str,
) -> MethodCost {
    let mut component = w.component.clone();
    let u = &w.universe;
    let interface = component.interface();
    let alphabet = counter_alphabet(u);
    let ((hypothesis, rounds, outcome), nanos) = timed(|| {
        let mut oracle = ComponentOracle::new(&mut component);
        let mut eq = WMethodOracle::new(w.n);
        let res = learn(
            &mut oracle,
            alphabet,
            &mut eq,
            &LstarLimits {
                cex_processing,
                ..LstarLimits::default()
            },
        );
        let hyp_auto = res.hypothesis.to_automaton(u, "hypothesis", interface);
        let comp = muml_automata::compose2(&w.context, &hyp_auto).expect("composes");
        let verdict = check_all(&comp.automaton, &[Formula::deadlock_free()]).expect("checkable");
        let outcome = match verdict {
            Verdict::Holds => "verified",
            Verdict::Violated(_) => "fault",
        };
        (res.hypothesis, res.rounds, outcome.to_owned())
    });
    MethodCost {
        method,
        outcome,
        resets: component.resets(),
        steps: component.total_steps(),
        clones: 0,
        learned_states: hypothesis.state_count,
        rounds,
        nanos,
    }
}

/// Runs black-box checking (adaptive model checking).
pub fn run_bbc(w: &CounterWorkload) -> MethodCost {
    let mut component = w.component.clone();
    let u = &w.universe;
    let alphabet = counter_alphabet(u);
    let (res, nanos) = timed(|| {
        black_box_check(
            u,
            &w.context,
            &[],
            &mut component,
            alphabet,
            &BbcConfig {
                max_states: w.n,
                max_rounds: 500,
            },
        )
        .expect("bbc runs")
    });
    let outcome = match res.verdict {
        BbcVerdict::Verified => "verified".to_owned(),
        BbcVerdict::RealFault { .. } => "fault".to_owned(),
        BbcVerdict::Inconclusive => "inconclusive".to_owned(),
    };
    MethodCost {
        method: "bbc",
        outcome,
        resets: component.resets(),
        steps: component.total_steps(),
        clones: 0,
        learned_states: res.hypothesis_states,
        rounds: res.rounds,
        nanos,
    }
}

/// Runs the paper's approach on twin counters learned in parallel under
/// one context (the Section-7 multi-legacy extension).
pub fn run_twin(n: usize, k: usize) -> MethodCost {
    let w = twin_workload(n, k);
    let mut left = CountingRig::new(w.left.clone());
    let mut right = CountingRig::new(w.right.clone());
    let (report, nanos) = timed(|| {
        let mut units = [
            LegacyUnit::new(&mut left, PortMap::with_default("p1")),
            LegacyUnit::new(&mut right, PortMap::with_default("p2")),
        ];
        verify_integration(
            &w.universe,
            &w.context,
            &[],
            &mut units,
            &IntegrationConfig::default(),
        )
        .expect("twin integration terminates")
    });
    MethodCost {
        method: "ours-twin",
        outcome: outcome(&report.verdict),
        resets: (left.resets() + right.resets()) as u64,
        steps: (left.steps() + right.steps()) as u64,
        clones: (left.clones() + right.clones()) as u64,
        learned_states: report.learned_sizes().iter().map(|(s, _)| s).sum(),
        rounds: report.stats.iterations,
        nanos,
    }
}

/// Every cell of the paper's tables (`repro tables`): T-A to T-C and T-E
/// compare the loop with `L*` and black-box checking in resets, steps and
/// clones; T-D times the kernels; T-F the counterexample batching.
pub fn table_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // T-A: growing component under a moderately restrictive context
    // (k = n / 2 pushes).
    for n in [4, 6, 8, 10] {
        let w = counter_workload(n, n / 2);
        for cost in [
            run_ours(&w),
            run_lstar_then_check(&w),
            run_lstar_rs_then_check(&w),
            run_bbc(&w),
        ] {
            cells.push(cost.cell(&format!("T-A/n={n}")));
        }
    }
    // T-B: context restrictiveness for a fixed component size — the
    // learned fraction of the paper's approach tracks k, L*'s does not.
    for k in [1, 2, 4, 6, 8] {
        let w = counter_workload(10, k);
        for cost in [run_ours(&w), run_lstar_then_check(&w)] {
            cells.push(cost.cell(&format!("T-B/k={k}")));
        }
    }
    // T-C: cost until a seeded fault at depth d is confirmed; every method
    // must report it (no false negatives).
    for d in [1, 2, 3, 4, 5] {
        let mut w = counter_workload(8, 6);
        seed_fault(&mut w, d);
        for cost in [run_ours(&w), run_lstar_then_check(&w), run_bbc(&w)] {
            assert_eq!(cost.outcome, "fault", "T-C d={d}: {cost:?}");
            cells.push(cost.cell(&format!("T-C/d={d}")));
        }
    }
    cells.extend(crate::kernel::table_d(&[8, 16, 32, 64]));
    // T-E: two legacy units against one with the same push budget.
    cells.push(run_ours(&counter_workload(4, 2)).cell("T-E"));
    cells.push(run_twin(4, 2).cell("T-E"));
    // T-F: the Section-7 "multiple counterexamples per check" ablation.
    for batch in [1, 4, 16] {
        let config = IntegrationConfig::default().with_batch_counterexamples(batch);
        let cost = run_ours_with(&counter_workload(8, 5), &config);
        assert_eq!(cost.outcome, "proven", "T-F batch {batch}");
        cells.push(cost.cell(&format!("T-F/batch={batch}")));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_proves_restricted_counter_with_partial_learning() {
        let w = counter_workload(8, 3);
        let cost = run_ours(&w);
        assert_eq!(cost.outcome, "proven");
        // Only the context-reachable prefix is learned.
        assert!(cost.learned_states <= 5, "{cost:?}");
        assert!(cost.learned_states < w.n);
    }

    #[test]
    fn lstar_learns_everything() {
        let w = counter_workload(6, 2);
        let cost = run_lstar_then_check(&w);
        assert_eq!(cost.outcome, "verified");
        assert_eq!(cost.learned_states, 6); // the whole component
    }

    #[test]
    fn rivest_schapire_variant_agrees_and_is_no_costlier() {
        let w = counter_workload(8, 4);
        let plain = run_lstar_then_check(&w);
        let rs = run_lstar_rs_then_check(&w);
        assert_eq!(plain.outcome, rs.outcome);
        assert_eq!(plain.learned_states, rs.learned_states);
        assert!(
            rs.steps <= plain.steps,
            "rs {} vs plain {}",
            rs.steps,
            plain.steps
        );
    }

    #[test]
    fn all_methods_confirm_reachable_fault() {
        let mut w = counter_workload(6, 4);
        seed_fault(&mut w, 2);
        for cost in [run_ours(&w), run_lstar_then_check(&w), run_bbc(&w)] {
            assert_eq!(cost.outcome, "fault", "{cost:?}");
        }
    }

    #[test]
    fn ours_is_cheaper_under_restrictive_context() {
        // claim C4, quantified: with k ≪ n the paper's approach drives far
        // fewer symbols than full learning. The loop's steps run on rig
        // clones too, and they count.
        let w = counter_workload(10, 2);
        let ours = run_ours(&w);
        let lstar = run_lstar_then_check(&w);
        assert_eq!(ours.outcome, "proven");
        assert_eq!(lstar.outcome, "verified");
        assert!(ours.steps > 0, "the loop's rig work was not counted");
        assert!(
            ours.steps < lstar.steps,
            "ours {} vs lstar {}",
            ours.steps,
            lstar.steps
        );
        assert!(ours.learned_states < lstar.learned_states);
    }

    #[test]
    fn twin_integration_terminates() {
        let (single, twin) = (run_ours(&counter_workload(4, 2)), run_twin(4, 2));
        assert_eq!(single.outcome, "proven");
        assert_eq!(twin.outcome, "proven");
        assert!(twin.learned_states >= single.learned_states);
    }
}
