//! The event vocabulary of the synthesis loop.

use crate::json::{Json, ToJson};

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

impl ToJson for RunOutcome {
    fn to_json(&self) -> Json {
        self.name().to_json()
    }
}

crate::json_codec! {
    /// One observable step of the verify → test → learn loop (Figure 2).
    ///
    /// Every variant that belongs to an iteration carries its 0-based
    /// `iteration` index; durations are monotonic nanoseconds. The mapping to
    /// the paper's artefacts is documented per variant (and summarized in
    /// DESIGN.md §Observability).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum LoopEvent tagged "event" {
        /// The loop started: which components are being integrated against how
        /// many properties (besides the always-checked deadlock freedom).
        RunStarted = "run_started" {
            /// Names of the legacy components under integration.
            components: Vec<String>,
            /// Number of user-supplied properties.
            properties: usize,
        },
        /// Initial behaviour synthesis (Section 3): the trivial incomplete
        /// automaton `M_l^0` was built for a component.
        InitialAbstraction = "initial_abstraction" {
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
        StoreHit = "store_hit" {
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
        StoreMiss = "store_miss" {
            /// The component.
            component: String,
            /// Why (stable slug from `muml-store`'s `MissReason::describe`).
            reason: String,
        },
        /// The component changed since its snapshot was learned: the store
        /// diffed the rule sets and dropped the dirty cone, seeding only the
        /// knowledge of untouched states.
        StoreInvalidated = "store_invalidated" {
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
        IterationStarted = "iteration_started" {
            /// 0-based iteration index.
            iteration: usize,
        },
        /// `M_a^c ∥ chaos(M_l^i)` was computed (Definition 3).
        Composed = "composed" {
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
        Recomposed = "recomposed" {
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
        ModelChecked = "model_checked" {
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
        CounterexampleExtracted = "counterexample_extracted" {
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
        ReplayExecuted = "replay_executed" {
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
        LearnStep = "learn_step" {
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
        FrontierProbed = "frontier_probed" {
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
        TestRetried = "test_retried" {
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
        RigFault = "rig_fault" {
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
        TraceCacheUsed = "trace_cache_used" {
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
        CexDeduped = "cex_deduped" {
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
        Quarantined = "quarantined" {
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
        RunFinished = "run_finished" {
            /// Total verification iterations.
            iterations: usize,
            /// The verdict.
            outcome: RunOutcome,
            /// Wall-clock nanoseconds for the whole run.
            nanos: u64,
        },
    }
}

impl LoopEvent {
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
}
