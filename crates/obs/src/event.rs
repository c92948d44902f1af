//! The event vocabulary of the synthesis loop.

use crate::json::Json;

/// Final outcome of a synthesis-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// `M_r^c ∥ M_r ⊨ φ ∧ ¬δ` — the integration is proven correct.
    Proven,
    /// A confirmed counterexample — a real integration fault.
    RealFault,
    /// The iteration cap was hit (should not happen for finite
    /// deterministic components).
    IterationLimit,
    /// The run was cooperatively cancelled (explicit cancellation or a
    /// wall-clock deadline) before reaching a verdict.
    Cancelled,
    /// The flake budget was exhausted: too many counterexample tests ended
    /// inconclusive under an unreliable rig, and no verdict could be
    /// reached honestly.
    Inconclusive,
}

impl RunOutcome {
    /// Stable lower-case name (used by the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::Proven => "proven",
            RunOutcome::RealFault => "real_fault",
            RunOutcome::IterationLimit => "iteration_limit",
            RunOutcome::Cancelled => "cancelled",
            RunOutcome::Inconclusive => "inconclusive",
        }
    }
}

/// One observable step of the verify → test → learn loop (Figure 2).
///
/// Every variant that belongs to an iteration carries its 0-based
/// `iteration` index; durations are monotonic nanoseconds. The mapping to
/// the paper's artefacts is documented per variant (and summarized in
/// DESIGN.md §Observability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopEvent {
    /// The loop started: which components are being integrated against how
    /// many properties (besides the always-checked deadlock freedom).
    RunStarted {
        /// Names of the legacy components under integration.
        components: Vec<String>,
        /// Number of user-supplied properties.
        properties: usize,
    },
    /// Initial behaviour synthesis (Section 3): the trivial incomplete
    /// automaton `M_l^0` was built for a component.
    InitialAbstraction {
        /// The component.
        component: String,
        /// `|Q|` of `M_l^0` (1 for the trivial automaton).
        states: usize,
        /// `|T|` — known transitions.
        transitions: usize,
        /// `|T̄|` — known refusals.
        refusals: usize,
    },
    /// The persistent model store seeded the initial abstraction: a
    /// snapshot learned in an earlier run matched the component's
    /// content-address exactly, replacing the trivial automaton.
    StoreHit {
        /// The component.
        component: String,
        /// The matching content-address (16 hex digits).
        fingerprint: String,
        /// States seeded from the snapshot.
        states: usize,
        /// Transitions seeded.
        transitions: usize,
        /// Refusals seeded.
        refusals: usize,
        /// Quarantined trace listings carried over.
        quarantined: usize,
    },
    /// The persistent model store had nothing usable for the component;
    /// the run cold-starts from the trivial abstraction.
    StoreMiss {
        /// The component.
        component: String,
        /// Why (stable slug from `muml-store`'s `MissReason::describe`).
        reason: String,
    },
    /// The component changed since its snapshot was learned: the store
    /// diffed the rule sets and dropped the dirty cone, seeding only the
    /// knowledge of untouched states.
    StoreInvalidated {
        /// The component.
        component: String,
        /// The *new* content-address the patched snapshot was re-keyed to.
        fingerprint: String,
        /// States whose learned knowledge was dropped.
        touched_states: usize,
        /// States seeded from the patched snapshot.
        states: usize,
        /// Transitions seeded (after the drop).
        transitions: usize,
        /// Refusals seeded (after the drop).
        refusals: usize,
    },
    /// A verification iteration began.
    IterationStarted {
        /// 0-based iteration index.
        iteration: usize,
    },
    /// `M_a^c ∥ chaos(M_l^i)` was computed (Definition 3).
    Composed {
        /// Iteration index.
        iteration: usize,
        /// Reachable product states.
        product_states: usize,
        /// Transitions of the product.
        transitions: usize,
        /// Concrete labels enumerated while expanding free-signal subsets.
        expanded_labels: u64,
        /// Symbolic guard families emitted un-expanded (the closure's `*`
        /// transitions the context did not pin down).
        family_guards: u64,
        /// Wall-clock nanoseconds spent composing.
        nanos: u64,
    },
    /// How the iteration's product was obtained: spliced incrementally
    /// from the previous iteration's cached product (only the learn
    /// delta's dirty cone re-explored) or rebuilt cold (see
    /// `muml_automata::CompositionCache`).
    Recomposed {
        /// Iteration index.
        iteration: usize,
        /// `"incremental"` or `"cold"`.
        mode: String,
        /// Product rows re-explored (dirty rows plus newly discovered
        /// states; equals the product size on a cold rebuild).
        dirty_states: usize,
        /// Product rows reused untouched from the cache (0 on a cold
        /// rebuild).
        reused_states: usize,
        /// Transitions written while re-expanding the dirty rows (the
        /// full transition count on a cold rebuild).
        spliced_transitions: usize,
    },
    /// The model checker ran on the composition (Section 4.1).
    ModelChecked {
        /// Iteration index.
        iteration: usize,
        /// `true` iff all properties hold — the run ends `Proven`.
        holds: bool,
        /// The violated property (rendered), if any.
        violated: Option<String>,
        /// Fixpoint / backward-induction iterations performed.
        fixpoint_iterations: u64,
        /// `(state, subformula)` labelings computed.
        labeled_states: u64,
        /// `u64` words of satisfaction-set data read or written — the
        /// kernel's memory-traffic measure.
        words_touched: u64,
        /// States popped off the unbounded-operator worklists.
        worklist_pops: u64,
        /// Peak satisfaction sets resident in the checker's interned
        /// subformula table.
        peak_resident_sets: u64,
        /// Fixpoint memberships carried over from the previous
        /// iteration's seed (0 for a cold check).
        warm_states: u64,
        /// Seed satisfaction-set words translated while warm-starting.
        reseeded_words: u64,
        /// Wall-clock nanoseconds spent checking.
        nanos: u64,
    },
    /// A counterexample was extracted (the test input of Section 4.2;
    /// Listings 1.1/1.4 are renderings of these).
    CounterexampleExtracted {
        /// Iteration index.
        iteration: usize,
        /// The violated property (rendered).
        property: String,
        /// Steps in the counterexample run.
        length: usize,
        /// `true` for deadlock (¬δ) counterexamples — these drive learning.
        deadlock: bool,
    },
    /// The counterexample projection was executed against a real component
    /// with record + deterministic replay (Listings 1.2/1.3).
    ReplayExecuted {
        /// Iteration index.
        iteration: usize,
        /// The component driven.
        component: String,
        /// Steps of the resulting observation.
        steps: usize,
        /// Raw component steps driven by the harness (record drive +
        /// replay).
        driven_steps: usize,
        /// Step index of the first output divergence, if the component
        /// refuted the counterexample.
        divergence: Option<usize>,
        /// Wall-clock nanoseconds spent executing.
        nanos: u64,
    },
    /// Observations were merged into `M_l^{i+1}` (Definitions 11/12,
    /// Listing 1.5). Deltas are against the start of the learn step; every
    /// non-terminal iteration strictly grows `|T| + |T̄|` (Theorem 2).
    LearnStep {
        /// Iteration index.
        iteration: usize,
        /// The component whose model was refined.
        component: String,
        /// Δ|Q| — newly discovered states.
        delta_states: usize,
        /// Δ|T| — newly learned transitions.
        delta_transitions: usize,
        /// Δ|T̄| — newly learned refusals.
        delta_refusals: usize,
    },
    /// A confirmed deadlock trace was probed at the frontier (the driver's
    /// refinement of the paper's prose; see `muml_core::probe`).
    FrontierProbed {
        /// Iteration index.
        iteration: usize,
        /// The component probed.
        component: String,
        /// Probe executions against this component.
        probes: usize,
        /// Whether probing this component produced new knowledge.
        learned: bool,
        /// Wall-clock nanoseconds spent probing.
        nanos: u64,
    },
    /// A counterexample test needed more than one attempt under an
    /// unreliable rig (`muml_legacy::execute_with_retry`).
    TestRetried {
        /// Iteration index.
        iteration: usize,
        /// The component under test.
        component: String,
        /// Attempts executed.
        attempts: usize,
        /// Attempts that failed the replay cross-check.
        replay_errors: usize,
        /// Attempts whose outcome was internally inconsistent.
        inconsistent: usize,
        /// Backoff charged to the simulated clock, in ticks.
        backoff_ticks: u64,
    },
    /// A rig fault is suspected: one or more attempts were rejected by the
    /// replay cross-check or the internal consistency check.
    RigFault {
        /// Iteration index.
        iteration: usize,
        /// The component under test.
        component: String,
        /// Rejected attempts (replay errors plus inconsistencies).
        suspected: usize,
    },
    /// The prefix-sharing trace cache served test executions without
    /// re-driving the rig (`muml_legacy::TraceCache`). Counters are deltas
    /// since the last report for this component.
    TraceCacheUsed {
        /// Iteration index.
        iteration: usize,
        /// The component under test.
        component: String,
        /// Full hits: verdicts synthesized with zero rig steps.
        hits: usize,
        /// Partial hits resumed from a trie checkpoint.
        resumes: usize,
        /// Rig steps avoided versus the uncached serial executor.
        saved_steps: usize,
    },
    /// A counterexample projection was skipped because an identical
    /// projection already diverged earlier in this run (the dedup guard);
    /// the recorded divergence is reused instead of re-driving the rig.
    CexDeduped {
        /// Iteration index.
        iteration: usize,
        /// The component that diverged when the projection was first tested.
        component: String,
        /// The recorded divergence step.
        divergence: usize,
    },
    /// A counterexample was quarantined: its test ended inconclusive, so
    /// its trace must not feed the learner; the checker will be asked for
    /// an alternate counterexample instead.
    Quarantined {
        /// Iteration index.
        iteration: usize,
        /// The component whose test was inconclusive.
        component: String,
        /// The violated property (rendered).
        property: String,
        /// Quarantined counterexamples so far, this run.
        quarantined_total: usize,
    },
    /// The loop finished.
    RunFinished {
        /// Total verification iterations.
        iterations: usize,
        /// The verdict.
        outcome: RunOutcome,
        /// Wall-clock nanoseconds for the whole run.
        nanos: u64,
    },
}

impl LoopEvent {
    /// Stable snake_case tag of the variant (the `event` field of the JSON
    /// encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            LoopEvent::RunStarted { .. } => "run_started",
            LoopEvent::InitialAbstraction { .. } => "initial_abstraction",
            LoopEvent::StoreHit { .. } => "store_hit",
            LoopEvent::StoreMiss { .. } => "store_miss",
            LoopEvent::StoreInvalidated { .. } => "store_invalidated",
            LoopEvent::IterationStarted { .. } => "iteration_started",
            LoopEvent::Composed { .. } => "composed",
            LoopEvent::Recomposed { .. } => "recomposed",
            LoopEvent::ModelChecked { .. } => "model_checked",
            LoopEvent::CounterexampleExtracted { .. } => "counterexample_extracted",
            LoopEvent::ReplayExecuted { .. } => "replay_executed",
            LoopEvent::LearnStep { .. } => "learn_step",
            LoopEvent::FrontierProbed { .. } => "frontier_probed",
            LoopEvent::TestRetried { .. } => "test_retried",
            LoopEvent::RigFault { .. } => "rig_fault",
            LoopEvent::TraceCacheUsed { .. } => "trace_cache_used",
            LoopEvent::CexDeduped { .. } => "cex_deduped",
            LoopEvent::Quarantined { .. } => "quarantined",
            LoopEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// The iteration this event belongs to, if any.
    pub fn iteration(&self) -> Option<usize> {
        match self {
            LoopEvent::IterationStarted { iteration }
            | LoopEvent::Composed { iteration, .. }
            | LoopEvent::Recomposed { iteration, .. }
            | LoopEvent::ModelChecked { iteration, .. }
            | LoopEvent::CounterexampleExtracted { iteration, .. }
            | LoopEvent::ReplayExecuted { iteration, .. }
            | LoopEvent::LearnStep { iteration, .. }
            | LoopEvent::FrontierProbed { iteration, .. }
            | LoopEvent::TestRetried { iteration, .. }
            | LoopEvent::RigFault { iteration, .. }
            | LoopEvent::TraceCacheUsed { iteration, .. }
            | LoopEvent::CexDeduped { iteration, .. }
            | LoopEvent::Quarantined { iteration, .. } => Some(*iteration),
            LoopEvent::RunStarted { .. }
            | LoopEvent::InitialAbstraction { .. }
            | LoopEvent::StoreHit { .. }
            | LoopEvent::StoreMiss { .. }
            | LoopEvent::StoreInvalidated { .. }
            | LoopEvent::RunFinished { .. } => None,
        }
    }

    /// The JSON object encoding of the event (field `event` carries
    /// [`LoopEvent::kind`]; remaining fields mirror the variant's).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![("event".to_owned(), Json::Str(self.kind().to_owned()))];
        match self {
            LoopEvent::RunStarted {
                components,
                properties,
            } => {
                obj.push((
                    "components".into(),
                    Json::Array(components.iter().map(|c| Json::Str(c.clone())).collect()),
                ));
                obj.push(("properties".into(), Json::from_usize(*properties)));
            }
            LoopEvent::InitialAbstraction {
                component,
                states,
                transitions,
                refusals,
            } => {
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("states".into(), Json::from_usize(*states)));
                obj.push(("transitions".into(), Json::from_usize(*transitions)));
                obj.push(("refusals".into(), Json::from_usize(*refusals)));
            }
            LoopEvent::StoreHit {
                component,
                fingerprint,
                states,
                transitions,
                refusals,
                quarantined,
            } => {
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("fingerprint".into(), Json::Str(fingerprint.clone())));
                obj.push(("states".into(), Json::from_usize(*states)));
                obj.push(("transitions".into(), Json::from_usize(*transitions)));
                obj.push(("refusals".into(), Json::from_usize(*refusals)));
                obj.push(("quarantined".into(), Json::from_usize(*quarantined)));
            }
            LoopEvent::StoreMiss { component, reason } => {
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("reason".into(), Json::Str(reason.clone())));
            }
            LoopEvent::StoreInvalidated {
                component,
                fingerprint,
                touched_states,
                states,
                transitions,
                refusals,
            } => {
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("fingerprint".into(), Json::Str(fingerprint.clone())));
                obj.push(("touched_states".into(), Json::from_usize(*touched_states)));
                obj.push(("states".into(), Json::from_usize(*states)));
                obj.push(("transitions".into(), Json::from_usize(*transitions)));
                obj.push(("refusals".into(), Json::from_usize(*refusals)));
            }
            LoopEvent::IterationStarted { iteration } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
            }
            LoopEvent::Composed {
                iteration,
                product_states,
                transitions,
                expanded_labels,
                family_guards,
                nanos,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("product_states".into(), Json::from_usize(*product_states)));
                obj.push(("transitions".into(), Json::from_usize(*transitions)));
                obj.push(("expanded_labels".into(), Json::from_u64(*expanded_labels)));
                obj.push(("family_guards".into(), Json::from_u64(*family_guards)));
                obj.push(("nanos".into(), Json::from_u64(*nanos)));
            }
            LoopEvent::Recomposed {
                iteration,
                mode,
                dirty_states,
                reused_states,
                spliced_transitions,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("mode".into(), Json::Str(mode.clone())));
                obj.push(("dirty_states".into(), Json::from_usize(*dirty_states)));
                obj.push(("reused_states".into(), Json::from_usize(*reused_states)));
                obj.push((
                    "spliced_transitions".into(),
                    Json::from_usize(*spliced_transitions),
                ));
            }
            LoopEvent::ModelChecked {
                iteration,
                holds,
                violated,
                fixpoint_iterations,
                labeled_states,
                words_touched,
                worklist_pops,
                peak_resident_sets,
                warm_states,
                reseeded_words,
                nanos,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("holds".into(), Json::Bool(*holds)));
                obj.push((
                    "violated".into(),
                    match violated {
                        Some(v) => Json::Str(v.clone()),
                        None => Json::Null,
                    },
                ));
                obj.push((
                    "fixpoint_iterations".into(),
                    Json::from_u64(*fixpoint_iterations),
                ));
                obj.push(("labeled_states".into(), Json::from_u64(*labeled_states)));
                obj.push(("words_touched".into(), Json::from_u64(*words_touched)));
                obj.push(("worklist_pops".into(), Json::from_u64(*worklist_pops)));
                obj.push((
                    "peak_resident_sets".into(),
                    Json::from_u64(*peak_resident_sets),
                ));
                obj.push(("warm_states".into(), Json::from_u64(*warm_states)));
                obj.push(("reseeded_words".into(), Json::from_u64(*reseeded_words)));
                obj.push(("nanos".into(), Json::from_u64(*nanos)));
            }
            LoopEvent::CounterexampleExtracted {
                iteration,
                property,
                length,
                deadlock,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("property".into(), Json::Str(property.clone())));
                obj.push(("length".into(), Json::from_usize(*length)));
                obj.push(("deadlock".into(), Json::Bool(*deadlock)));
            }
            LoopEvent::ReplayExecuted {
                iteration,
                component,
                steps,
                driven_steps,
                divergence,
                nanos,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("steps".into(), Json::from_usize(*steps)));
                obj.push(("driven_steps".into(), Json::from_usize(*driven_steps)));
                obj.push((
                    "divergence".into(),
                    match divergence {
                        Some(d) => Json::from_usize(*d),
                        None => Json::Null,
                    },
                ));
                obj.push(("nanos".into(), Json::from_u64(*nanos)));
            }
            LoopEvent::LearnStep {
                iteration,
                component,
                delta_states,
                delta_transitions,
                delta_refusals,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("delta_states".into(), Json::from_usize(*delta_states)));
                obj.push((
                    "delta_transitions".into(),
                    Json::from_usize(*delta_transitions),
                ));
                obj.push(("delta_refusals".into(), Json::from_usize(*delta_refusals)));
            }
            LoopEvent::FrontierProbed {
                iteration,
                component,
                probes,
                learned,
                nanos,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("probes".into(), Json::from_usize(*probes)));
                obj.push(("learned".into(), Json::Bool(*learned)));
                obj.push(("nanos".into(), Json::from_u64(*nanos)));
            }
            LoopEvent::TestRetried {
                iteration,
                component,
                attempts,
                replay_errors,
                inconsistent,
                backoff_ticks,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("attempts".into(), Json::from_usize(*attempts)));
                obj.push(("replay_errors".into(), Json::from_usize(*replay_errors)));
                obj.push(("inconsistent".into(), Json::from_usize(*inconsistent)));
                obj.push(("backoff_ticks".into(), Json::from_u64(*backoff_ticks)));
            }
            LoopEvent::RigFault {
                iteration,
                component,
                suspected,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("suspected".into(), Json::from_usize(*suspected)));
            }
            LoopEvent::TraceCacheUsed {
                iteration,
                component,
                hits,
                resumes,
                saved_steps,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("hits".into(), Json::from_usize(*hits)));
                obj.push(("resumes".into(), Json::from_usize(*resumes)));
                obj.push(("saved_steps".into(), Json::from_usize(*saved_steps)));
            }
            LoopEvent::CexDeduped {
                iteration,
                component,
                divergence,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("divergence".into(), Json::from_usize(*divergence)));
            }
            LoopEvent::Quarantined {
                iteration,
                component,
                property,
                quarantined_total,
            } => {
                obj.push(("iteration".into(), Json::from_usize(*iteration)));
                obj.push(("component".into(), Json::Str(component.clone())));
                obj.push(("property".into(), Json::Str(property.clone())));
                obj.push((
                    "quarantined_total".into(),
                    Json::from_usize(*quarantined_total),
                ));
            }
            LoopEvent::RunFinished {
                iterations,
                outcome,
                nanos,
            } => {
                obj.push(("iterations".into(), Json::from_usize(*iterations)));
                obj.push(("outcome".into(), Json::Str(outcome.name().to_owned())));
                obj.push(("nanos".into(), Json::from_u64(*nanos)));
            }
        }
        Json::Object(obj)
    }
}
