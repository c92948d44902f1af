//! The iterative behaviour synthesis loop (Section 4, Figure 2).
//!
//! ```text
//!          ┌─────────────────────────────────────────────┐
//!          │ 1. synthesize initial behaviour M_a^0       │
//!          └─────────────────────────────────────────────┘
//!                             │
//!          ┌──────────────────▼──────────────────────────┐
//!   ┌──────│ 2. model check  M_a^c ∥ M_a^i ⊨ φ ∧ ¬δ      │──── holds ──▶ PROVEN
//!   │      └─────────────────────────────────────────────┘               (Lemma 5)
//!   │  counterexample π
//!   │      ┌─────────────────────────────────────────────┐
//!   │      │ 3. test legacy component along π|legacy     │── confirmed ─▶ REAL FAULT
//!   │      │    (record + deterministic replay)          │               (Lemma 6)
//!   │      └─────────────────────────────────────────────┘
//!   │  diverged (observation π′, refusal)
//!   │      ┌─────────────────────────────────────────────┐
//!   └──────│ 4. learn π′ into M_l, M_a^{i+1}=chaos(M_l)  │  (Lemma 7)
//!          └─────────────────────────────────────────────┘
//! ```
//!
//! One refinement over the paper's prose is needed for *deadlock*
//! counterexamples: a trace ending in the chaotic `s_δ` can be fully
//! realizable by the component without any real deadlock existing (the
//! deadlock is an artefact of the closure). After a confirmed deadlock
//! trace the driver therefore **probes the frontier**: for every input the
//! context can offer in its final state, it drives the component one step
//! further and checks whether the context accepts the observed response.
//! Either some probe succeeds (fresh knowledge, the loop continues) or
//! every context offer is genuinely refused (a real deadlock, reported as a
//! fault). This preserves Theorem 2's termination argument: every
//! non-terminal iteration strictly grows `|T| + |T̄|`.
//!
//! Multiple legacy components (the extension sketched in Section 7) are
//! supported: each component gets its own incomplete automaton, all
//! closures are composed with the context, counterexamples are projected
//! onto and tested against each component, and frontier probing checks each
//! component against the sub-composition of everything else.
//!
//! Every phase of the loop reports a [`muml_obs::LoopEvent`] to an
//! [`muml_obs::EventSink`] — see [`crate::IntegrationSession`] for the
//! instrumented entry point; [`verify_integration`] runs with a null sink.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use muml_automata::{
    Automaton, ComposeOptions, CompositionCache, IncompleteAutomaton, Label, LearnDelta,
    RecomposeMode, SignalSet, Universe, CHAOS_PROP,
};
use muml_legacy::{
    execute_with_retry_cached, probe_offers_pooled, CacheStats, PortMap, RetryPolicy, RetryReport,
    SimClock, StateObservable, TraceCache,
};
use muml_logic::{check_all_with, CheckSeed, Checker, Formula, Verdict};
use muml_obs::{EventSink, LoopEvent, NullSink, Phase, PhaseTimer, PhaseTimings, RunOutcome};
use muml_store::{ComponentSignature, DeltaRecord, Snapshot, Store, StoreLookup};

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::initial::{apply_props, initial_knowledge, StatePropMapper};
use crate::probe::{probe_frontier, FrontierResult, RestProducts};
use crate::report::render_listing;

/// One legacy component under integration, with its monitoring
/// configuration.
pub struct LegacyUnit<'a> {
    /// The black-box component (with replay-only state probes).
    pub component: &'a mut dyn StateObservable,
    /// Signal → port mapping for the `[Message]` monitor records.
    pub ports: PortMap,
    /// Maps monitored state names to the atomic propositions they fulfil.
    pub prop_mapper: Box<StatePropMapper<'a>>,
    /// Content signature of the component's interface + rule set, used to
    /// key the warm-start store (see [`IntegrationConfig::with_store`]).
    /// `None` (the default) makes the unit invisible to the store: no
    /// lookup on entry, no snapshot persisted on exit.
    pub signature: Option<ComponentSignature>,
}

impl<'a> LegacyUnit<'a> {
    /// Creates a unit with the default proposition mapper (state `s` of
    /// component `c` fulfils `c.s`).
    pub fn new(component: &'a mut dyn StateObservable, ports: PortMap) -> Self {
        let name = component.name().to_owned();
        LegacyUnit {
            component,
            ports,
            prop_mapper: Box::new(move |state: &str| {
                let mut props = vec![format!("{name}.{state}")];
                if let Some((outer, _)) = state.split_once("::") {
                    props.push(format!("{name}.{outer}"));
                }
                props
            }),
            signature: None,
        }
    }

    /// Replaces the proposition mapper.
    #[must_use]
    pub fn with_mapper(mut self, mapper: impl Fn(&str) -> Vec<String> + 'a) -> Self {
        self.prop_mapper = Box::new(mapper);
        self
    }

    /// Attaches the component's content signature, enabling warm-start
    /// lookups and snapshot persistence when the session carries a store.
    #[must_use]
    pub fn with_signature(mut self, signature: ComponentSignature) -> Self {
        self.signature = Some(signature);
        self
    }
}

/// Configuration of the synthesis loop.
///
/// The struct is `#[non_exhaustive]`; construct it with
/// [`IntegrationConfig::default`] and refine via the chainable `with_*`
/// setters:
///
/// ```
/// use muml_core::IntegrationConfig;
/// let config = IntegrationConfig::default()
///     .with_max_iterations(500)
///     .with_batch_counterexamples(4);
/// assert_eq!(config.max_iterations, 500);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IntegrationConfig {
    /// Safety cap on iterations (Theorem 2 guarantees termination for
    /// finite deterministic components; the cap guards misuse).
    pub max_iterations: usize,
    /// Composition options.
    pub compose: ComposeOptions,
    /// How many distinct deadlock counterexamples to derive (and test) per
    /// verification run. `1` reproduces the paper's base scheme; larger
    /// values implement the Section-7 improvement of learning from several
    /// counterexamples per check.
    pub batch_counterexamples: usize,
    /// Cooperative cancellation signal. Polled at iteration boundaries and
    /// before each counterexample test; once cancelled (explicitly or past
    /// its deadline) the run ends with [`CoreError::Cancelled`]. `None`
    /// (the default) runs to a verdict or the iteration cap.
    pub cancel: Option<CancelToken>,
    /// Retry policy for counterexample tests and frontier probes. The
    /// default (`quorum` 1, a few attempts) behaves exactly like single-shot
    /// execution on a reliable rig; raise the quorum when the rig is known
    /// to be flaky.
    pub retry: RetryPolicy,
    /// How many *stalled* iterations (no knowledge growth, at least one
    /// quarantined counterexample) to tolerate before ending the run with
    /// an honest [`IntegrationVerdict::Inconclusive`]. `0` is strict mode:
    /// the first inconclusive test raises
    /// [`CoreError::Nondeterministic`] instead of degrading.
    pub flake_budget: usize,
    /// Content-addressed warm-start store. When set, every unit carrying a
    /// [`ComponentSignature`] is looked up before iteration 0: a hit seeds
    /// the learned abstraction from the persisted snapshot instead of the
    /// chaotic initial one, and the final learned state is persisted back
    /// on every terminal verdict. Store problems (corrupt files, version
    /// skew, I/O errors) degrade to a cold start — they never fail the
    /// run. `None` (the default) keeps the loop fully stateless.
    pub store: Option<Arc<Store>>,
    /// Scoped-thread pool width for frontier-probe batches: each offer a
    /// probe still has to drive steps its own checkpoint and witness
    /// clones, concurrently, and the results merge in offer order. `1`
    /// (the default) keeps everything on the calling thread; verdicts and
    /// learned models are identical for any width.
    pub test_parallelism: usize,
}

impl Default for IntegrationConfig {
    fn default() -> Self {
        IntegrationConfig {
            max_iterations: 10_000,
            compose: ComposeOptions::default(),
            batch_counterexamples: 1,
            cancel: None,
            retry: RetryPolicy::default(),
            flake_budget: 2,
            store: None,
            test_parallelism: 1,
        }
    }
}

impl IntegrationConfig {
    /// Sets the iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the composition options.
    #[must_use]
    pub fn with_compose(mut self, compose: ComposeOptions) -> Self {
        self.compose = compose;
        self
    }

    /// Sets how many deadlock counterexamples to derive per check.
    #[must_use]
    pub fn with_batch_counterexamples(mut self, batch: usize) -> Self {
        self.batch_counterexamples = batch;
        self
    }

    /// Attaches a cooperative cancellation token (deadline and/or explicit
    /// shutdown).
    #[must_use]
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the retry policy for counterexample tests and frontier probes.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the flake budget (stalled, quarantine-only iterations tolerated
    /// before the run ends inconclusive; `0` = strict mode).
    #[must_use]
    pub fn with_flake_budget(mut self, flake_budget: usize) -> Self {
        self.flake_budget = flake_budget;
        self
    }

    /// Opens (or creates) the warm-start store rooted at `path` and
    /// attaches it to the loop.
    #[must_use]
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(Arc::new(Store::open(path)));
        self
    }

    /// Attaches an already-open store shared with other sessions (e.g. a
    /// fleet's workers or a resident daemon).
    #[must_use]
    pub fn with_shared_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the scoped-thread pool width for frontier-probe batches
    /// (clamped to at least 1; `1` = fully serial).
    #[must_use]
    pub fn with_test_parallelism(mut self, test_parallelism: usize) -> Self {
        self.test_parallelism = test_parallelism.max(1);
        self
    }
}

/// How one iteration ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterationOutcome {
    /// The check succeeded — integration proven correct.
    Proven,
    /// The counterexample was refuted by testing; the named component
    /// diverged and its model was refined.
    Refuted {
        /// The component that diverged.
        component: String,
        /// The step index of the divergence.
        divergence: usize,
    },
    /// A confirmed deadlock trace was probed at the frontier and new
    /// behaviour was learned (the deadlock was an artefact).
    FrontierLearned {
        /// The component that was probed.
        component: String,
        /// Number of probe executions.
        probes: usize,
    },
    /// The counterexample (or probed deadlock) is real — a genuine
    /// integration fault.
    Fault,
    /// Every counterexample the iteration could test ended inconclusive
    /// under the unreliable rig and was quarantined; nothing was learned.
    Quarantined {
        /// The first component whose test was inconclusive (`"-"` when the
        /// iteration had only already-quarantined counterexamples left).
        component: String,
    },
}

/// Statistics of one iteration.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub index: usize,
    /// Per-component `(states, transitions, refusals)` of the learned
    /// models at the *start* of the iteration.
    pub knowledge: Vec<(usize, usize, usize)>,
    /// Reachable states of `M_a^c ∥ M_a^i`.
    pub composed_states: usize,
    /// The property the model checker reported violated, if any.
    pub violated: Option<String>,
    /// The counterexample of this iteration, rendered in the paper's
    /// listing style (None when the check held).
    pub counterexample: Option<String>,
    /// How the iteration ended.
    pub outcome: IterationOutcome,
}

/// Final verdict of the integration check.
#[derive(Debug, Clone)]
pub enum IntegrationVerdict {
    /// `M_r^c ∥ M_r ⊨ φ ∧ ¬δ` — proven via Lemma 5 without executing the
    /// component along every behaviour.
    Proven,
    /// A real integration fault, witnessed by an executed trace (Lemma 6).
    RealFault {
        /// The violated property (rendered).
        property: String,
        /// The confirmed counterexample trace (composed labels).
        trace: Vec<Label>,
        /// Listing-1.1-style rendering of the counterexample.
        rendered: String,
    },
    /// The rig was too flaky to reach a verdict: the flake budget was
    /// exhausted with every remaining counterexample quarantined. An honest
    /// "cannot tell" — never a fabricated `Proven` or `RealFault`.
    Inconclusive {
        /// Counterexamples quarantined over the run.
        quarantined: usize,
        /// Total test attempts executed over the run.
        attempts: usize,
    },
}

impl IntegrationVerdict {
    /// `true` for [`IntegrationVerdict::Proven`].
    pub fn proven(&self) -> bool {
        matches!(self, IntegrationVerdict::Proven)
    }

    /// `true` unless the verdict is [`IntegrationVerdict::Inconclusive`].
    pub fn conclusive(&self) -> bool {
        !matches!(self, IntegrationVerdict::Inconclusive { .. })
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct IntegrationStats {
    /// Number of verification iterations performed.
    pub iterations: usize,
    /// Largest composed state space encountered.
    pub peak_composed_states: usize,
    /// Largest heap footprint of a checked product over the run, in bytes
    /// ([`Composition::heap_bytes`](muml_automata::Composition::heap_bytes):
    /// row buffer, guard table, names, labelling, tuples and CSR).
    pub peak_product_bytes: usize,
    /// Number of test executions (component resets driven by the harness).
    pub tests_executed: usize,
    /// Total component steps driven.
    pub test_steps: usize,
    /// Raw component steps across all test drives (record drive +
    /// instrumented replay) — the true harness cost.
    pub driven_steps: usize,
    /// Test attempts executed by the retrying executor (≥
    /// `tests_executed`; equal on a reliable rig).
    pub test_attempts: usize,
    /// Attempts beyond each test's first — the retry overhead.
    pub test_retries: usize,
    /// Attempts rejected as suspected rig faults (replay cross-check
    /// failures plus internally inconsistent outcomes).
    pub suspected_rig_faults: usize,
    /// Tests that exhausted their attempt budget without a conclusive
    /// verdict.
    pub inconclusive_tests: usize,
    /// Counterexamples quarantined because their test was inconclusive.
    pub quarantined_tests: usize,
    /// Retry backoff charged to the simulated clock, in ticks.
    pub backoff_ticks: u64,
    /// Tests served entirely from the trace cache: the verdict was
    /// synthesized from memoized responses with zero rig steps.
    pub trace_cache_hits: usize,
    /// Tests resumed from a trie checkpoint instead of replaying their
    /// prefix from a reset.
    pub trace_cache_resumes: usize,
    /// Rig steps the uncached serial executor would have driven minus the
    /// steps actually driven — the trace cache's counterfactual saving.
    pub trace_cache_saved_steps: usize,
    /// Counterexample projections skipped by the dedup guard because an
    /// identical projection already diverged earlier in this run.
    pub dedup_skipped: usize,
    /// Frontier-probe batches dispatched to the scoped-thread pool.
    pub parallel_batches: usize,
    /// Fixpoint / backward-induction iterations of the model checker,
    /// summed over all verification runs.
    pub checker_fixpoint_iterations: u64,
    /// `(state, subformula)` labelings computed by the model checker,
    /// summed over all verification runs.
    pub checker_labeled_states: u64,
    /// Satisfaction-set words read or written by the model checker, summed
    /// over all verification runs.
    pub checker_words_touched: u64,
    /// States popped off the checker's unbounded-operator worklists,
    /// summed over all verification runs.
    pub checker_worklist_pops: u64,
    /// Fixpoint memberships the checker carried over from previous
    /// iterations' seeds instead of re-deriving.
    pub checker_warm_states: u64,
    /// Seed satisfaction-set words translated while warm-starting.
    pub checker_reseeded_words: u64,
    /// Compose-phase nanoseconds spent in cold (full) rebuilds.
    pub compose_cold_ns: u64,
    /// Compose-phase nanoseconds spent splicing incrementally.
    pub compose_incr_ns: u64,
    /// Iterations whose product was rebuilt cold.
    pub recompose_cold: usize,
    /// Iterations whose product was spliced incrementally.
    pub recompose_incremental: usize,
    /// Concrete labels enumerated during composition (free-signal subset
    /// expansion), summed over all compositions.
    pub expanded_labels: u64,
    /// Symbolic guard families emitted un-expanded during composition,
    /// summed over all compositions.
    pub family_guards: u64,
    /// Rows of the rest-of-system products the frontier probe expanded,
    /// summed over the run. The probe keeps those products across the run,
    /// so with one legacy unit this is at most the context's reachable
    /// state count however many probes run.
    pub probe_rows_expanded: usize,
    /// Wall-clock time per loop phase.
    pub timings: PhaseTimings,
}

/// The full result of [`verify_integration`].
#[derive(Debug)]
pub struct IntegrationReport {
    /// The verdict.
    pub verdict: IntegrationVerdict,
    /// Per-iteration records (the Figure-2 narrative).
    pub iterations: Vec<IterationRecord>,
    /// The final learned models, one per component.
    pub learned: Vec<IncompleteAutomaton>,
    /// Aggregate statistics.
    pub stats: IntegrationStats,
}

impl IntegrationReport {
    /// Fraction of each component's knowledge that was required:
    /// `(learned states, learned transitions)` per component. The headline
    /// claim C4 — correctness provable *without* learning the whole
    /// component — is measured against the component's true size by the
    /// benchmarks.
    pub fn learned_sizes(&self) -> Vec<(usize, usize)> {
        self.learned
            .iter()
            .map(|m| (m.state_count(), m.transition_count()))
            .collect()
    }
}

/// Runs the combined verification/testing loop of Section 4.
///
/// `context` is the abstract context `M_a^c` (e.g. from
/// `muml_arch::CoordinationPattern::context_for`), `properties` the
/// required timed-ACTL constraints (deadlock freedom `¬δ` is always checked
/// in addition).
///
/// This is the un-instrumented entry point (events are discarded). To
/// observe the loop — or to use the builder-style API — go through
/// [`crate::IntegrationSession`].
///
/// # Errors
///
/// * [`CoreError::NotCompositional`] for properties outside the fragment.
/// * [`CoreError::Nondeterministic`] if a component test cannot conclude in
///   strict mode (`flake_budget == 0`); with a non-zero flake budget the
///   run degrades to [`IntegrationVerdict::Inconclusive`] instead.
/// * [`CoreError::IterationLimit`] if the cap is hit (should not happen for
///   finite deterministic components).
/// * Kernel/model-checking failures.
#[doc(alias = "IntegrationSession")]
pub fn verify_integration(
    u: &Universe,
    context: &Automaton,
    properties: &[Formula],
    units: &mut [LegacyUnit<'_>],
    config: &IntegrationConfig,
) -> Result<IntegrationReport, CoreError> {
    let mut sink = NullSink;
    run_loop(u, context, properties, units, config, &mut sink)
}

/// The instrumented loop body shared by [`verify_integration`] and
/// [`crate::IntegrationSession`].
pub(crate) fn run_loop(
    u: &Universe,
    context: &Automaton,
    properties: &[Formula],
    units: &mut [LegacyUnit<'_>],
    config: &IntegrationConfig,
    sink: &mut dyn EventSink,
) -> Result<IntegrationReport, CoreError> {
    assert!(!units.is_empty(), "at least one legacy component required");
    for f in properties {
        if !f.is_compositional() {
            return Err(CoreError::NotCompositional { formula: f.show(u) });
        }
    }
    let run_start = Instant::now();
    sink.emit(&LoopEvent::RunStarted {
        components: units
            .iter()
            .map(|unit| unit.component.name().to_owned())
            .collect(),
        properties: properties.len(),
    });
    let chaos = u.prop(CHAOS_PROP);
    let deadlock_free = Formula::deadlock_free();
    // Property ordering matters for soundness of the "confirmed ⇒ real
    // fault" step (Lemma 6):
    //  1. state-local invariants — a realized trace to a violating state is
    //     conclusive on its own, so checking them first gives the paper's
    //     fast conflict detection;
    //  2. deadlock freedom — its counterexamples drive the learning;
    //  3. path-dependent properties (deadlines, nested temporal operators) —
    //     their violations also depend on behaviour *after* the witness
    //     trace, which is only faithful once no deadlock (and hence no
    //     chaos state and no unlearned stutter) is reachable; checking them
    //     after ¬δ guarantees every abstract path is a real path.
    let mut checked: Vec<Formula> = Vec::with_capacity(properties.len() + 1);
    for f in properties.iter().filter(|f| f.is_state_local_invariant()) {
        checked.push(f.weaken_for_chaos(chaos));
    }
    checked.push(deadlock_free.clone());
    for f in properties.iter().filter(|f| !f.is_state_local_invariant()) {
        checked.push(f.weaken_for_chaos(chaos));
    }

    let mut learned: Vec<IncompleteAutomaton> = units
        .iter()
        .map(|unit| {
            let mut m = initial_knowledge(u, unit.component, &unit.prop_mapper);
            apply_props(u, &mut m, &unit.prop_mapper);
            m
        })
        .collect();
    for (unit, m) in units.iter().zip(&learned) {
        sink.emit(&LoopEvent::InitialAbstraction {
            component: unit.component.name().to_owned(),
            states: m.state_count(),
            transitions: m.transition_count(),
            refusals: m.refusal_count(),
        });
    }

    // Flake tolerance: counterexamples whose test ended inconclusive are
    // quarantined (keyed by their rendered listing) so the checker is asked
    // for alternates instead. Declared before the warm-start block because
    // a store hit re-seeds the quarantine of the previous run.
    let mut quarantined: std::collections::HashSet<String> = std::collections::HashSet::new();
    // Warm start (store-backed): replace the chaotic initial abstraction of
    // every signed unit with its persisted learned model. The seeded model
    // is observation-conforming by construction (every snapshot is a final
    // learned state of a previous run against the *same* rule set — the
    // fingerprint guarantees that), so Lemmas 5–7 apply unchanged: the loop
    // merely starts from a later point of the same monotone chain. Any
    // store problem degrades to the cold start above.
    let mut store_history: Vec<Vec<DeltaRecord>> = vec![Vec::new(); units.len()];
    if let Some(store) = config.store.as_deref() {
        for (i, unit) in units.iter().enumerate() {
            let Some(sig) = unit.signature.as_ref() else {
                continue;
            };
            let name = unit.component.name().to_owned();
            let seeded = match store.lookup(sig) {
                StoreLookup::Hit { snapshot } => Some((snapshot, None)),
                StoreLookup::Invalidated {
                    snapshot,
                    touched_states,
                    ..
                } => Some((snapshot, Some(touched_states))),
                StoreLookup::Miss { reason } => {
                    sink.emit(&LoopEvent::StoreMiss {
                        component: name.clone(),
                        reason: reason.describe(),
                    });
                    None
                }
            };
            if let Some((snapshot, touched)) = seeded {
                match IncompleteAutomaton::from_snapshot(u, &snapshot.automaton) {
                    Ok(mut m) => {
                        apply_props(u, &mut m, &unit.prop_mapper);
                        let event = match touched {
                            None => LoopEvent::StoreHit {
                                component: name,
                                fingerprint: sig.fingerprint(),
                                states: m.state_count(),
                                transitions: m.transition_count(),
                                refusals: m.refusal_count(),
                                quarantined: snapshot.quarantined.len(),
                            },
                            Some(touched_states) => LoopEvent::StoreInvalidated {
                                component: name,
                                fingerprint: sig.fingerprint(),
                                touched_states,
                                states: m.state_count(),
                                transitions: m.transition_count(),
                                refusals: m.refusal_count(),
                            },
                        };
                        sink.emit(&event);
                        quarantined.extend(snapshot.quarantined.iter().cloned());
                        store_history[i] = snapshot.history;
                        learned[i] = m;
                    }
                    Err(e) => {
                        sink.emit(&LoopEvent::StoreMiss {
                            component: name,
                            reason: format!("restore failed: {e}"),
                        });
                    }
                }
            }
        }
    }
    // Per-unit learn deltas accumulated over the whole run, merged with the
    // still-pending delta at persistence time to append one history record.
    let mut run_delta: Vec<LearnDelta> = vec![LearnDelta::default(); units.len()];

    let mut iterations = Vec::new();
    let mut stats = IntegrationStats::default();
    // The composition cache owns the chaotic closures and the product and
    // splices each iteration's learn delta into them; the seed carries the
    // previous iteration's satisfaction sets into the next check. The
    // frontier probe's rest-of-system products live for the run as well.
    let mut cache = CompositionCache::new(context);
    let mut rest = RestProducts::new(context, units.len());
    let mut prev_seed: Option<CheckSeed> = None;
    // `stalled` counts consecutive iterations that quarantined without
    // learning anything, bounded by the flake budget.
    let mut stalled = 0usize;
    // All test executions (counterexample tests, frontier probes, frontier
    // read-backs) go through the harness: one trace cache per unit (scoped
    // to the signature fingerprint + rig token) plus the shared retry
    // clock and thread-pool width.
    let mut harness = TestHarness::new(units, config);
    // Dedup guard: projection tuples whose test already *diverged* this
    // run, mapped to the recorded divergence. Confirmed traces are never
    // deduplicated — frontier probing after a confirmed deadlock is
    // control flow the loop must not skip.
    let mut tested_diverged: std::collections::HashMap<String, (String, usize)> =
        std::collections::HashMap::new();

    for index in 0..config.max_iterations {
        check_cancel(config.cancel.as_ref(), index, run_start, sink)?;
        stats.iterations = index + 1;
        sink.emit(&LoopEvent::IterationStarted { iteration: index });
        let knowledge: Vec<(usize, usize, usize)> = learned
            .iter()
            .map(|m| (m.state_count(), m.transition_count(), m.refusal_count()))
            .collect();
        let knowledge_sum_before: usize = knowledge.iter().map(|k| k.0 + k.1 + k.2).sum();

        // Compose M_a^c ∥ chaos(M_l^i) — spliced from the learn delta when
        // it permits, rebuilt cold otherwise (the cache's own fallback).
        // The spliced product is the cold rebuild up to a renaming of
        // states, and nothing downstream (checking, counterexamples,
        // projections) reads state numbers, so everything downstream is
        // mode-agnostic. Sizes are reported over the reachable part.
        let compose_timer = PhaseTimer::start(Phase::Compose);
        let deltas: Vec<LearnDelta> = learned.iter_mut().map(|m| m.take_delta()).collect();
        for (acc, d) in run_delta.iter_mut().zip(&deltas) {
            acc.merge(d);
        }
        let (info, carry) = cache.recompose(&learned, &deltas, Some(chaos), &config.compose)?;
        let comp = cache.composition();
        let compose_ns = compose_timer.stop(&mut stats.timings);
        match info.mode {
            RecomposeMode::Cold => {
                stats.compose_cold_ns += compose_ns;
                stats.recompose_cold += 1;
            }
            RecomposeMode::Incremental => {
                stats.compose_incr_ns += compose_ns;
                stats.recompose_incremental += 1;
            }
        }
        stats.peak_composed_states = stats.peak_composed_states.max(comp.reachable_state_count());
        stats.peak_product_bytes = stats.peak_product_bytes.max(comp.heap_bytes());
        stats.expanded_labels += comp.stats.expanded_labels;
        stats.family_guards += comp.stats.family_guards;
        sink.emit(&LoopEvent::Composed {
            iteration: index,
            product_states: comp.reachable_state_count(),
            transitions: comp.automaton.transition_count(),
            expanded_labels: comp.stats.expanded_labels,
            family_guards: comp.stats.family_guards,
            nanos: compose_ns,
        });
        sink.emit(&LoopEvent::Recomposed {
            iteration: index,
            mode: info.mode.as_str().to_owned(),
            dirty_states: info.dirty_states,
            reused_states: info.reused_states,
            spliced_transitions: info.spliced_transitions,
        });

        // …and check φ ∧ ¬δ.
        let check_timer = PhaseTimer::start(Phase::Check);
        // The composition already carries the CSR relation; borrowing it
        // keeps adjacency construction out of the timed check phase. When
        // the recompose spliced, warm-start from the previous iteration's
        // satisfaction sets restricted to the carried (clean) states.
        let mut checker = match (prev_seed.take(), &carry) {
            (Some(seed), Some(carry)) => {
                Checker::with_csr_seeded(&comp.automaton, &comp.csr, seed, carry)
            }
            _ => Checker::with_csr(&comp.automaton, &comp.csr),
        };
        let verdict = check_all_with(&mut checker, &checked)?;
        let check_ns = check_timer.stop(&mut stats.timings);
        let cstats = checker.stats;
        prev_seed = Some(checker.into_seed());
        stats.checker_fixpoint_iterations += cstats.fixpoint_iterations;
        stats.checker_labeled_states += cstats.labeled_states;
        stats.checker_words_touched += cstats.words_touched;
        stats.checker_worklist_pops += cstats.worklist_pops;
        stats.checker_warm_states += cstats.warm_states;
        stats.checker_reseeded_words += cstats.reseeded_words;
        sink.emit(&LoopEvent::ModelChecked {
            iteration: index,
            holds: matches!(verdict, Verdict::Holds),
            violated: match &verdict {
                Verdict::Holds => None,
                Verdict::Violated(c) => Some(c.violated.show(u)),
            },
            fixpoint_iterations: cstats.fixpoint_iterations,
            labeled_states: cstats.labeled_states,
            words_touched: cstats.words_touched,
            worklist_pops: cstats.worklist_pops,
            peak_resident_sets: cstats.peak_resident_sets,
            warm_states: cstats.warm_states,
            reseeded_words: cstats.reseeded_words,
            nanos: check_ns,
        });
        let cex = match verdict {
            Verdict::Holds => {
                iterations.push(IterationRecord {
                    index,
                    knowledge,
                    composed_states: comp.reachable_state_count(),
                    violated: None,
                    counterexample: None,
                    outcome: IterationOutcome::Proven,
                });
                persist_learned(
                    config,
                    units,
                    &learned,
                    &quarantined,
                    &store_history,
                    &run_delta,
                );
                sink.emit(&LoopEvent::RunFinished {
                    iterations: stats.iterations,
                    outcome: RunOutcome::Proven,
                    nanos: run_start.elapsed().as_nanos() as u64,
                });
                return Ok(IntegrationReport {
                    verdict: IntegrationVerdict::Proven,
                    iterations,
                    learned,
                    stats,
                });
            }
            Verdict::Violated(c) => c,
        };

        // Section-7 improvement: for deadlock violations, derive a *batch*
        // of distinct counterexamples (one per reachable deadlock state) so
        // a single verification run feeds several tests. With quarantined
        // traces present we over-fetch so filtering them still leaves a
        // full batch of untested alternates.
        let batch = config.batch_counterexamples.max(1);
        let primary_head = (cex.violated.show(u), render_listing(comp, &cex.run, u));
        let mut cexs: Vec<muml_logic::Counterexample> = if cex.violated == deadlock_free
            && (batch > 1 || !quarantined.is_empty())
        {
            let v =
                muml_logic::deadlock_counterexamples(&comp.automaton, batch + quarantined.len());
            if v.is_empty() {
                vec![cex]
            } else {
                v
            }
        } else {
            vec![cex]
        };
        cexs.retain(|cx| !quarantined.contains(&render_listing(comp, &cx.run, u)));
        cexs.truncate(batch);

        let mut record_outcome: Option<IterationOutcome> = None;
        let mut record_head: Option<(String, String)> = None; // (violated, listing)
        let mut iteration_quarantines = 0usize;
        if cexs.is_empty() {
            // Every counterexample the checker can currently produce is
            // quarantined — nothing left to test this iteration.
            iteration_quarantines += 1;
            record_outcome = Some(IterationOutcome::Quarantined {
                component: "-".to_owned(),
            });
        }

        for cx in &cexs {
            check_cancel(config.cancel.as_ref(), index, run_start, sink)?;
            let violated_str = cx.violated.show(u);
            let cex_listing = render_listing(comp, &cx.run, u);
            if record_head.is_none() {
                record_head = Some((violated_str.clone(), cex_listing.clone()));
            }
            sink.emit(&LoopEvent::CounterexampleExtracted {
                iteration: index,
                property: violated_str.clone(),
                length: cx.run.labels.len(),
                deadlock: cx.violated == deadlock_free,
            });

            // Test every component along its projection of the
            // counterexample, through the flake-tolerant executor. An
            // inconclusive verdict quarantines the counterexample: its
            // trace never reaches the learner (a corrupted observation
            // would poison the Defs. 11/12 soundness argument).
            let projections: Vec<Vec<Label>> = (0..units.len())
                .map(|i| comp.project_run(&cx.run, i + 1).labels) // component 0 is the context
                .collect();
            // Dedup guard: an identical projection tuple that already
            // diverged this run would re-learn the same observation and
            // re-derive the same refutation — skip the rig entirely.
            let dedup_key = format!("{projections:?}");
            if let Some((component, divergence)) = tested_diverged.get(&dedup_key) {
                stats.dedup_skipped += 1;
                sink.emit(&LoopEvent::CexDeduped {
                    iteration: index,
                    component: component.clone(),
                    divergence: *divergence,
                });
                record_outcome.get_or_insert(IterationOutcome::Refuted {
                    component: component.clone(),
                    divergence: *divergence,
                });
                continue;
            }
            let mut diverged: Option<(String, usize)> = None;
            let mut inconclusive: Option<String> = None;
            for (i, unit) in units.iter_mut().enumerate() {
                let name = unit.component.name().to_owned();
                let expected = &projections[i];
                let test_timer = PhaseTimer::start(Phase::Test);
                let rr = harness.execute(
                    i,
                    unit.component,
                    expected,
                    u,
                    &unit.ports,
                    &config.retry,
                    &mut stats,
                    sink,
                    index,
                );
                let test_ns = test_timer.stop(&mut stats.timings);
                if !rr.verdict.is_conclusive() {
                    if config.flake_budget == 0 {
                        // Strict mode: a rig this unreliable (or a
                        // nondeterministic component) is an error.
                        return Err(CoreError::Nondeterministic {
                            component: name,
                            period: rr.last_replay_period.unwrap_or(0),
                        });
                    }
                    inconclusive = Some(name);
                    break;
                }
                let outcome = rr.outcome.expect("conclusive verdict carries its outcome");
                stats.test_steps += outcome.observation.labels.len();
                sink.emit(&LoopEvent::ReplayExecuted {
                    iteration: index,
                    component: name.clone(),
                    steps: outcome.observation.labels.len(),
                    driven_steps: outcome.driven_steps,
                    divergence: outcome.divergence,
                    nanos: test_ns,
                });
                let learn_timer = PhaseTimer::start(Phase::Learn);
                let before = (
                    learned[i].state_count(),
                    learned[i].transition_count(),
                    learned[i].refusal_count(),
                );
                learned[i]
                    .learn(&outcome.observation)
                    .map_err(CoreError::Learning)?;
                if let Some(refusal) = &outcome.refusal {
                    learned[i].learn(refusal).map_err(CoreError::Learning)?;
                }
                apply_props(u, &mut learned[i], &unit.prop_mapper);
                learn_timer.stop(&mut stats.timings);
                sink.emit(&LoopEvent::LearnStep {
                    iteration: index,
                    component: name.clone(),
                    delta_states: learned[i].state_count() - before.0,
                    delta_transitions: learned[i].transition_count() - before.1,
                    delta_refusals: learned[i].refusal_count() - before.2,
                });
                if let Some(t) = outcome.divergence {
                    diverged.get_or_insert((name, t));
                }
            }

            if let Some(component) = inconclusive {
                quarantined.insert(cex_listing.clone());
                stats.quarantined_tests += 1;
                iteration_quarantines += 1;
                sink.emit(&LoopEvent::Quarantined {
                    iteration: index,
                    component: component.clone(),
                    property: violated_str.clone(),
                    quarantined_total: quarantined.len(),
                });
                record_outcome.get_or_insert(IterationOutcome::Quarantined { component });
                continue; // ask the checker for an alternate counterexample
            }

            if let Some((component, divergence)) = diverged {
                tested_diverged.insert(dedup_key, (component.clone(), divergence));
                record_outcome.get_or_insert(IterationOutcome::Refuted {
                    component,
                    divergence,
                });
                continue; // next counterexample of the batch
            }

            // The counterexample is fully realized by every component.
            if cx.violated != deadlock_free {
                // A property violation inside the synthesized/concrete part —
                // chaos states satisfy the weakened property, so the
                // violating state is concrete: a real fault (Lemma 6).
                iterations.push(IterationRecord {
                    index,
                    knowledge,
                    composed_states: comp.reachable_state_count(),
                    violated: Some(violated_str.clone()),
                    counterexample: Some(cex_listing.clone()),
                    outcome: IterationOutcome::Fault,
                });
                persist_learned(
                    config,
                    units,
                    &learned,
                    &quarantined,
                    &store_history,
                    &run_delta,
                );
                sink.emit(&LoopEvent::RunFinished {
                    iterations: stats.iterations,
                    outcome: RunOutcome::RealFault,
                    nanos: run_start.elapsed().as_nanos() as u64,
                });
                return Ok(IntegrationReport {
                    verdict: IntegrationVerdict::RealFault {
                        property: violated_str,
                        trace: cx.run.labels.clone(),
                        rendered: cex_listing,
                    },
                    iterations,
                    learned,
                    stats,
                });
            }

            // Confirmed *deadlock* trace: probe the frontier. Snapshot the
            // per-component knowledge first so probe-learned knowledge is
            // attributed to this iteration's learn telemetry (instead of
            // silently widening the next iteration's baseline).
            let probe_before: Vec<(usize, usize, usize)> = learned
                .iter()
                .map(|m| (m.state_count(), m.transition_count(), m.refusal_count()))
                .collect();
            let probe_timer = PhaseTimer::start(Phase::Probe);
            let frontier = probe_frontier(
                u,
                &mut rest,
                &cache.closures(),
                comp,
                &cx.run,
                &projections,
                units,
                &mut learned,
                &mut stats,
                config,
                sink,
                index,
                &mut harness,
            )?;
            let probe_ns = probe_timer.stop(&mut stats.timings);
            match frontier {
                FrontierResult::Progress { component, probes } => {
                    sink.emit(&LoopEvent::FrontierProbed {
                        iteration: index,
                        component: component.clone(),
                        probes,
                        learned: true,
                        nanos: probe_ns,
                    });
                    for (i, unit) in units.iter().enumerate() {
                        let after = (
                            learned[i].state_count(),
                            learned[i].transition_count(),
                            learned[i].refusal_count(),
                        );
                        if after != probe_before[i] {
                            sink.emit(&LoopEvent::LearnStep {
                                iteration: index,
                                component: unit.component.name().to_owned(),
                                delta_states: after.0 - probe_before[i].0,
                                delta_transitions: after.1 - probe_before[i].1,
                                delta_refusals: after.2 - probe_before[i].2,
                            });
                        }
                    }
                    record_outcome
                        .get_or_insert(IterationOutcome::FrontierLearned { component, probes });
                }
                FrontierResult::Inconclusive { component, probes } => {
                    sink.emit(&LoopEvent::FrontierProbed {
                        iteration: index,
                        component: component.clone(),
                        probes,
                        learned: false,
                        nanos: probe_ns,
                    });
                    if config.flake_budget == 0 {
                        return Err(CoreError::Nondeterministic {
                            component,
                            period: 0,
                        });
                    }
                    quarantined.insert(cex_listing.clone());
                    stats.quarantined_tests += 1;
                    iteration_quarantines += 1;
                    sink.emit(&LoopEvent::Quarantined {
                        iteration: index,
                        component: component.clone(),
                        property: violated_str.clone(),
                        quarantined_total: quarantined.len(),
                    });
                    record_outcome.get_or_insert(IterationOutcome::Quarantined { component });
                }
                FrontierResult::RealDeadlock { probes } => {
                    sink.emit(&LoopEvent::FrontierProbed {
                        iteration: index,
                        component: "-".to_owned(),
                        probes,
                        learned: false,
                        nanos: probe_ns,
                    });
                    iterations.push(IterationRecord {
                        index,
                        knowledge,
                        composed_states: comp.reachable_state_count(),
                        violated: Some(violated_str.clone()),
                        counterexample: Some(cex_listing.clone()),
                        outcome: IterationOutcome::Fault,
                    });
                    persist_learned(
                        config,
                        units,
                        &learned,
                        &quarantined,
                        &store_history,
                        &run_delta,
                    );
                    sink.emit(&LoopEvent::RunFinished {
                        iterations: stats.iterations,
                        outcome: RunOutcome::RealFault,
                        nanos: run_start.elapsed().as_nanos() as u64,
                    });
                    return Ok(IntegrationReport {
                        verdict: IntegrationVerdict::RealFault {
                            property: violated_str,
                            trace: cx.run.labels.clone(),
                            rendered: cex_listing,
                        },
                        iterations,
                        learned,
                        stats,
                    });
                }
            }
        }

        // All counterexamples of the batch were processed without a fault;
        // record the iteration and continue with the refined models.
        let (violated, listing) = record_head.unwrap_or(primary_head);
        iterations.push(IterationRecord {
            index,
            knowledge,
            composed_states: comp.reachable_state_count(),
            violated: Some(violated),
            counterexample: Some(listing),
            outcome: record_outcome.unwrap_or(IterationOutcome::FrontierLearned {
                component: "?".to_owned(),
                probes: 0,
            }),
        });

        // Graceful degradation: an iteration that only quarantined (no
        // knowledge growth) burns one unit of flake budget; learning
        // anything resets the counter. An exhausted budget ends the run
        // with an honest Inconclusive rather than looping forever on a rig
        // too flaky to test.
        let knowledge_sum_after: usize = learned
            .iter()
            .map(|m| m.state_count() + m.transition_count() + m.refusal_count())
            .sum();
        if knowledge_sum_after > knowledge_sum_before {
            stalled = 0;
        } else if iteration_quarantines > 0 {
            stalled += 1;
            if stalled > config.flake_budget {
                persist_learned(
                    config,
                    units,
                    &learned,
                    &quarantined,
                    &store_history,
                    &run_delta,
                );
                sink.emit(&LoopEvent::RunFinished {
                    iterations: stats.iterations,
                    outcome: RunOutcome::Inconclusive,
                    nanos: run_start.elapsed().as_nanos() as u64,
                });
                return Ok(IntegrationReport {
                    verdict: IntegrationVerdict::Inconclusive {
                        quarantined: quarantined.len(),
                        attempts: stats.test_attempts,
                    },
                    iterations,
                    learned,
                    stats,
                });
            }
        }
    }
    sink.emit(&LoopEvent::RunFinished {
        iterations: config.max_iterations,
        outcome: RunOutcome::IterationLimit,
        nanos: run_start.elapsed().as_nanos() as u64,
    });
    Err(CoreError::IterationLimit(config.max_iterations))
}

/// Persists every signed unit's final learned model back into the
/// warm-start store, appending one [`DeltaRecord`] for this run's growth
/// (the accumulated drained deltas merged with the still-pending one) to
/// the snapshot's history. Called once per terminal verdict; a run that
/// learned nothing still refreshes the snapshot (the quarantine list may
/// have changed). Save failures are deliberately ignored — the store has
/// cache semantics, and a full disk must not flip a sound verdict into an
/// error.
fn persist_learned(
    config: &IntegrationConfig,
    units: &[LegacyUnit<'_>],
    learned: &[IncompleteAutomaton],
    quarantined: &std::collections::HashSet<String>,
    store_history: &[Vec<DeltaRecord>],
    run_delta: &[LearnDelta],
) {
    let Some(store) = config.store.as_deref() else {
        return;
    };
    for (i, unit) in units.iter().enumerate() {
        let Some(sig) = unit.signature.as_ref() else {
            continue;
        };
        let m = &learned[i];
        let mut delta = run_delta[i].clone();
        delta.merge(m.pending_delta());
        let mut history = store_history[i].clone();
        let record = DeltaRecord {
            new_states: delta.new_states,
            new_transitions: delta.new_transitions,
            new_refusals: delta.new_refusals,
            initial_changed: delta.initial_changed,
            dirty: delta
                .dirty
                .iter()
                .map(|s| m.state_name(*s).to_owned())
                .collect(),
        };
        if !record.is_empty() {
            history.push(record);
        }
        let mut quarantined: Vec<String> = quarantined.iter().cloned().collect();
        quarantined.sort();
        let snapshot = Snapshot {
            signature: sig.clone(),
            automaton: m.to_snapshot(),
            history,
            quarantined,
        };
        let _ = store.save(&snapshot);
    }
}

/// Books one retried test execution into the stats and emits the
/// rig-health telemetry (`RigFault` when attempts were rejected,
/// `TestRetried` when more than one attempt ran). Shared by the
/// counterexample tests and the frontier probes.
pub(crate) fn note_retry(
    stats: &mut IntegrationStats,
    sink: &mut dyn EventSink,
    iteration: usize,
    component: &str,
    rr: &RetryReport,
) {
    stats.tests_executed += 1;
    stats.test_attempts += rr.attempts;
    stats.test_retries += rr.attempts.saturating_sub(1);
    stats.suspected_rig_faults += rr.suspected_rig_faults();
    // Saturate: a pathological backoff schedule can legitimately report
    // `u64::MAX` ticks per test; the run aggregate must not wrap.
    stats.backoff_ticks = stats.backoff_ticks.saturating_add(rr.backoff_ticks);
    stats.driven_steps += rr.driven_steps;
    if !rr.verdict.is_conclusive() {
        stats.inconclusive_tests += 1;
    }
    if rr.suspected_rig_faults() > 0 {
        sink.emit(&LoopEvent::RigFault {
            iteration,
            component: component.to_owned(),
            suspected: rr.suspected_rig_faults(),
        });
    }
    if rr.attempts > 1 {
        sink.emit(&LoopEvent::TestRetried {
            iteration,
            component: component.to_owned(),
            attempts: rr.attempts,
            replay_errors: rr.replay_errors,
            inconsistent: rr.inconsistent_attempts,
            backoff_ticks: rr.backoff_ticks,
        });
    }
}

/// The shared test-execution front end of the loop: one prefix-sharing
/// [`TraceCache`] per unit (scoped to the unit's signature fingerprint plus
/// rig token), the retry [`SimClock`], and the probe pool width. Every rig
/// interaction of the run — counterexample tests, frontier probe batches,
/// frontier read-backs — goes through it, so the cache sees every executed
/// word and the stats see every cache delta.
pub(crate) struct TestHarness {
    caches: Vec<TraceCache>,
    baselines: Vec<CacheStats>,
    clock: SimClock,
    parallelism: usize,
}

impl TestHarness {
    pub(crate) fn new(units: &[LegacyUnit<'_>], config: &IntegrationConfig) -> Self {
        let caches: Vec<TraceCache> = units
            .iter()
            .map(|unit| {
                let fp = unit
                    .signature
                    .as_ref()
                    .map(|s| s.fingerprint())
                    .unwrap_or_default();
                TraceCache::new(format!("{fp}+{}", unit.component.rig_token()))
            })
            .collect();
        let baselines = vec![CacheStats::default(); caches.len()];
        TestHarness {
            caches,
            baselines,
            clock: SimClock::new(),
            parallelism: config.test_parallelism.max(1),
        }
    }

    /// One flake-tolerant test execution for unit `i`, through its cache,
    /// with retry + cache telemetry booked into `stats`/`sink`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &mut self,
        i: usize,
        component: &mut dyn StateObservable,
        expected: &[Label],
        u: &Universe,
        ports: &PortMap,
        retry: &RetryPolicy,
        stats: &mut IntegrationStats,
        sink: &mut dyn EventSink,
        iteration: usize,
    ) -> RetryReport {
        let name = component.name().to_owned();
        let rr = execute_with_retry_cached(
            component,
            expected,
            u,
            ports,
            retry,
            &mut self.clock,
            &mut self.caches[i],
        );
        note_retry(stats, sink, iteration, &name, &rr);
        self.book(i, stats, sink, iteration, &name);
        rr
    }

    /// The frontier-probe batch for unit `i`: one verdict per offered
    /// input (in offer order), resumed from the prefix checkpoint and run
    /// on the pool where sound; semantically identical to one
    /// [`TestHarness::execute`] per offer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe(
        &mut self,
        i: usize,
        component: &mut dyn StateObservable,
        prefix: &[Label],
        offers: &[SignalSet],
        u: &Universe,
        ports: &PortMap,
        retry: &RetryPolicy,
        stats: &mut IntegrationStats,
        sink: &mut dyn EventSink,
        iteration: usize,
    ) -> Vec<RetryReport> {
        let name = component.name().to_owned();
        let reports = probe_offers_pooled(
            component,
            prefix,
            offers,
            u,
            ports,
            retry,
            &mut self.clock,
            &mut self.caches[i],
            self.parallelism,
        );
        for rr in &reports {
            note_retry(stats, sink, iteration, &name, rr);
        }
        self.book(i, stats, sink, iteration, &name);
        reports
    }

    /// Books the cache-stat delta since the last call for unit `i` into
    /// the run stats and emits `TraceCacheUsed` when anything was saved.
    fn book(
        &mut self,
        i: usize,
        stats: &mut IntegrationStats,
        sink: &mut dyn EventSink,
        iteration: usize,
        component: &str,
    ) {
        let s = self.caches[i].stats();
        let b = self.baselines[i];
        self.baselines[i] = s;
        let hits = s.hits - b.hits;
        let resumes = s.resumes - b.resumes;
        let saved = s.saved_steps - b.saved_steps;
        stats.trace_cache_hits += hits;
        stats.trace_cache_resumes += resumes;
        stats.trace_cache_saved_steps += saved;
        stats.parallel_batches += s.parallel_batches - b.parallel_batches;
        if hits > 0 || resumes > 0 || saved > 0 {
            sink.emit(&LoopEvent::TraceCacheUsed {
                iteration,
                component: component.to_owned(),
                hits,
                resumes,
                saved_steps: saved,
            });
        }
    }
}

/// Polls the cancellation token at a loop boundary; a cancelled run emits
/// its terminal telemetry event here so every run — including interrupted
/// ones — ends with exactly one `RunFinished`.
fn check_cancel(
    cancel: Option<&CancelToken>,
    iterations_done: usize,
    run_start: Instant,
    sink: &mut dyn EventSink,
) -> Result<(), CoreError> {
    match cancel {
        Some(token) if token.is_cancelled() => {
            sink.emit(&LoopEvent::RunFinished {
                iterations: iterations_done,
                outcome: RunOutcome::Cancelled,
                nanos: run_start.elapsed().as_nanos() as u64,
            });
            Err(CoreError::Cancelled {
                iterations: iterations_done,
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_setters_chain() {
        let c = IntegrationConfig::default()
            .with_max_iterations(7)
            .with_batch_counterexamples(3)
            .with_test_parallelism(0)
            .with_compose(ComposeOptions::default());
        assert_eq!(c.max_iterations, 7);
        assert_eq!(c.batch_counterexamples, 3);
        assert_eq!(c.test_parallelism, 1, "a zero width is clamped to serial");
    }
}
