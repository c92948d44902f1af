//! Prefix-sharing trace cache with checkpointed resume and a scoped-thread
//! pool for independent rig executions.
//!
//! The integration loop re-drives the rig far more than it has to: a
//! counterexample trace is tested once per learn iteration it survives, and
//! a frontier probe replays the *same confirmed prefix* once per offered
//! input. Against a latency-weighted rig (the RailCab test stand, modelled
//! by [`LatentComponent`](crate::LatentComponent)) this is the dominant
//! loop cost. This module removes the redundancy:
//!
//! * [`TraceCache`] — a trie over executed input words. Each node memoizes
//!   the rig's full per-step response (outputs, observable state, period)
//!   plus two optional clones of the component positioned exactly after
//!   that step, each from its own from-reset drive: the *checkpoint* and
//!   the *witness*. A repeated test is synthesized from the trie with
//!   **zero** rig steps; testing `w·a` after `w` steps a clone of the
//!   checkpoint at `w` once and checks that output against one step of a
//!   clone of the witness at `w` — two steps instead of `2·(|w|+1)`.
//! * [`execute_with_retry_cached`] —
//!   [`execute_with_retry_on`](crate::execute_with_retry_on) through the
//!   cache. Verdicts and observations are bit-identical to that serial
//!   executor, which stays the cache's validation run and its oracle.
//! * [`probe_offers_pooled`] — the frontier-probe batch: `k` one-step
//!   extensions of a confirmed prefix, resumed from the prefix checkpoint
//!   and stepped concurrently on a scoped-thread pool, merged in offer
//!   order.
//!
//! **Flake-safety rule** (DESIGN.md §17): memoization and checkpointing
//! apply only to rigs reporting
//! [`deterministic_rig`](StateObservable::deterministic_rig). A faulty
//! [`UnreliableRig`](crate::UnreliableRig) is executed through the serial
//! retry quorum unchanged — its PRNG must consume one stream, so attempts
//! may be neither parallelized nor snapshotted — and its results enter the
//! trie only *after* quorum confirmation (the quorum-agreed observation is
//! the believed-true component behaviour, so replaying it later is exactly
//! as sound as the quorum that produced it).

use std::collections::HashMap;

use muml_automata::{Label, Observation, SignalSet, Universe};

use crate::component::StateObservable;
use crate::executor::TestOutcome;
use crate::monitor::{Direction, MonitorEvent, MonitorTrace, PortMap};
use crate::replay::{RecordedStep, Recording};
use crate::retry::{
    internally_consistent, retry_witnessed, RetryPolicy, RetryReport, SimClock, TestVerdict,
};

/// Counters describing what the cache did, cumulatively per instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache consultations (one per test execution routed through it).
    pub lookups: usize,
    /// Full hits: the verdict was synthesized from the trie, zero rig steps.
    pub hits: usize,
    /// Partial hits resumed from a trie checkpoint instead of a reset.
    pub resumes: usize,
    /// Partial hits positioned by reset-and-replay (no checkpoint
    /// available).
    pub prefix_replays: usize,
    /// Rig steps actually driven through the cache layer.
    pub driven_steps: usize,
    /// Rig steps the serial uncached executor would have driven minus the
    /// steps actually driven (the counterfactual saving).
    pub saved_steps: usize,
    /// Trie nodes inserted.
    pub insertions: usize,
    /// Frontier-probe batches dispatched to the scoped-thread pool.
    pub parallel_batches: usize,
    /// Probe offers stepped on the pool (one checkpoint-clone step and one
    /// witness-clone step each).
    pub parallel_tasks: usize,
}

/// One trie node: the rig's memoized response to the step reaching it.
struct Node {
    /// Outputs produced by the step into this node.
    outputs: SignalSet,
    /// Period counter reported after the step.
    period: u64,
    /// Observable state after the step.
    state: String,
    /// A component clone positioned exactly after this step; `None` for
    /// non-clonable components and for quorum-inserted (flaky-rig) entries.
    /// New words are memoized by stepping clones of it.
    checkpoint: Option<Box<dyn StateObservable + Send>>,
    /// A second clone positioned after this step, reached by a different
    /// from-reset drive than `checkpoint` (never the same one): new words
    /// are verified by stepping clones of it. `None` where no verification
    /// drive has passed yet.
    witness: Option<Box<dyn StateObservable + Send>>,
    /// Child nodes by input signal set.
    children: HashMap<SignalSet, usize>,
}

impl Node {
    /// A leaf holding response data only, no clones attached.
    fn new(outputs: SignalSet, period: u64, state: String) -> Node {
        Node {
            outputs,
            period,
            state,
            checkpoint: None,
            witness: None,
            children: HashMap::new(),
        }
    }
}

/// Whether the component's `deterministic_rig()` claim has been checked
/// against reality. Single-drive extension (no record/replay cross-check)
/// is only sound for a rig that really is deterministic — and real legacy
/// components cannot certify that themselves, so the first execution per
/// cache always runs through the full serial executor. A clean conclusive
/// result trusts the claim; any replay error or inconsistency refutes it
/// permanently, as does a later output mismatch on a cached prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validation {
    /// No execution yet: the next one must be the serial executor.
    Pending,
    /// The serial executor confirmed deterministic behaviour; single-drive
    /// extension and checkpoint resume are sound.
    Trusted,
    /// The rig contradicted its determinism claim; the cache falls back to
    /// the nondeterministic-rig rules (serial execution, quorum-confirmed
    /// data-only entries) forever.
    Distrusted,
}

/// A prefix-sharing trie over executed input words, scoped to one component
/// instance (signature fingerprint + rig seed/fault profile).
pub struct TraceCache {
    scope: String,
    /// Component name, for synthesized [`Recording`]s.
    component: Option<String>,
    /// `initial_state_name()` — `Observation.states[0]` of every replay.
    initial_state: Option<String>,
    /// `observable_state()` right after a reset — the first `CurrentState`
    /// monitor event of every replay.
    root_state: Option<String>,
    /// Node 0 is the root (the post-reset position).
    nodes: Vec<Node>,
    /// Status of the component's determinism claim (see [`Validation`]).
    validation: Validation,
    stats: CacheStats,
}

/// The trie walk outcome for an expected trace, mirroring the record drive
/// of [`execute_expected_trace`](crate::execute_expected_trace): stop at
/// the first output divergence.
enum Walk {
    /// The executed prefix is fully covered: the node path (one per
    /// executed step) and the divergence step, if any.
    Covered {
        path: Vec<usize>,
        divergence: Option<usize>,
    },
    /// The trie ends (no diverging output seen) after `path`; the record
    /// drive would have to drive the remaining inputs.
    Miss { path: Vec<usize> },
}

impl TraceCache {
    /// An empty cache scoped to `scope` (informational: the signature
    /// fingerprint plus [`StateObservable::rig_token`] of the component the
    /// cache is valid for).
    pub fn new(scope: impl Into<String>) -> Self {
        TraceCache {
            scope: scope.into(),
            component: None,
            initial_state: None,
            root_state: None,
            nodes: Vec::new(),
            validation: Validation::Pending,
            stats: CacheStats::default(),
        }
    }

    /// The scope string the cache was created with.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized steps (trie nodes excluding the root).
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Whether the trie holds no memoized steps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized data (keeps the stats).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.component = None;
        self.initial_state = None;
        self.root_state = None;
    }

    fn ensure_root(
        &mut self,
        component_name: &str,
        initial_state: String,
        root_state: String,
        checkpoint: Option<Box<dyn StateObservable + Send>>,
    ) {
        if self.nodes.is_empty() {
            let mut root = Node::new(SignalSet::EMPTY, 0, root_state.clone());
            root.checkpoint = checkpoint;
            self.nodes.push(root);
        } else if self.nodes[0].checkpoint.is_none() {
            self.nodes[0].checkpoint = checkpoint;
        }
        self.component
            .get_or_insert_with(|| component_name.to_owned());
        self.initial_state.get_or_insert(initial_state);
        self.root_state.get_or_insert(root_state);
    }

    /// Walks the trie along `expected`, stopping — like the record drive —
    /// at the first output divergence.
    fn walk(&self, expected: &[Label]) -> Walk {
        if self.nodes.is_empty() {
            return Walk::Miss { path: Vec::new() };
        }
        let mut at = 0usize;
        let mut path = Vec::with_capacity(expected.len());
        for (t, l) in expected.iter().enumerate() {
            match self.nodes[at].children.get(&l.inputs) {
                None => return Walk::Miss { path },
                Some(&child) => {
                    path.push(child);
                    if self.nodes[child].outputs != l.outputs {
                        return Walk::Covered {
                            path,
                            divergence: Some(t),
                        };
                    }
                    at = child;
                }
            }
        }
        Walk::Covered {
            path,
            divergence: None,
        }
    }

    /// Synthesizes the [`TestOutcome`] the serial executor would produce
    /// for `expected`, if the trie covers the executed prefix.
    /// Zero rig steps; `driven_steps` of the result is 0.
    fn synthesize(&self, expected: &[Label], u: &Universe, ports: &PortMap) -> Option<TestOutcome> {
        let (path, divergence) = match self.walk(expected) {
            Walk::Covered { path, divergence } => (path, divergence),
            Walk::Miss { .. } => return None,
        };
        let component = self.component.clone()?;
        let initial = self.initial_state.clone()?;
        let root = self.root_state.clone()?;

        // Reconstruct exactly what the record drive + `replay` would emit
        // for the executed (divergence-inclusive) prefix.
        let mut states = Vec::with_capacity(path.len() + 1);
        states.push(initial);
        let mut labels = Vec::with_capacity(path.len());
        let mut steps = Vec::with_capacity(path.len());
        let mut monitor = MonitorTrace::new();
        let mut pre_state = root;
        for (t, &n) in path.iter().enumerate() {
            let node = &self.nodes[n];
            monitor.push(MonitorEvent::CurrentState {
                name: pre_state.clone(),
            });
            for e in ports.message_events(u, node.outputs, Direction::Outgoing) {
                monitor.push(e);
            }
            for e in ports.message_events(u, expected[t].inputs, Direction::Incoming) {
                monitor.push(e);
            }
            monitor.push(MonitorEvent::Timing { count: node.period });
            labels.push(Label::new(expected[t].inputs, node.outputs));
            states.push(node.state.clone());
            steps.push(RecordedStep {
                period: node.period,
                inputs: expected[t].inputs,
                outputs: node.outputs,
            });
            pre_state = node.state.clone();
        }
        monitor.push(MonitorEvent::CurrentState { name: pre_state });

        let refusal = divergence.map(|t| {
            let ref_states = states[..=t].to_vec();
            let mut ref_labels = labels[..t].to_vec();
            ref_labels.push(expected[t]);
            Observation::blocked(ref_states, ref_labels)
        });
        Some(TestOutcome {
            confirmed: divergence.is_none() && path.len() == expected.len(),
            divergence,
            observation: Observation::regular(states, labels),
            refusal,
            recording: Recording { component, steps },
            monitor,
            driven_steps: 0,
        })
    }

    /// Extends the trie so it covers the executed prefix of `expected`,
    /// resuming from the deepest checkpoint (or reset-and-replaying the
    /// known prefix when no checkpoint exists), then verifies the new
    /// steps ([`TraceCache::verify`]). Deterministic rigs only. Returns the
    /// rig steps driven.
    fn extend(&mut self, component: &mut dyn StateObservable, expected: &[Label]) -> usize {
        let path = match self.walk(expected) {
            Walk::Covered { .. } => return 0,
            Walk::Miss { path } => path,
        };
        let miss_at = path.len();

        // First contact: capture the post-reset identity of the component.
        if self.nodes.is_empty() {
            component.reset();
            let checkpoint = component.try_clone_boxed();
            self.ensure_root(
                component.name(),
                component.initial_state_name(),
                component.observable_state(),
                checkpoint,
            );
        }

        // Deepest node on the path (including the root) with a checkpoint.
        let mut resume_at = 0usize; // depth
        let mut resume_node = 0usize;
        for (depth, &n) in path.iter().enumerate() {
            if self.nodes[n].checkpoint.is_some() {
                resume_at = depth + 1;
                resume_node = n;
            }
        }
        let mut driven = 0usize;
        let mut driver: Box<dyn StateObservable + Send>;
        if let Some(snap) = self.nodes[resume_node]
            .checkpoint
            .as_ref()
            .and_then(|c| c.try_clone_boxed())
        {
            driver = snap;
            if resume_at > 0 || miss_at > 0 {
                self.stats.resumes += 1;
            }
        } else {
            // No usable checkpoint anywhere (non-clonable component):
            // position by reset-and-replay of the known prefix.
            match component.try_clone_boxed() {
                Some(own) => driver = own,
                None => {
                    // Drive the original directly — it is reset anyway on
                    // every test execution.
                    return self.extend_in_place(component, expected, miss_at);
                }
            }
            driver.reset();
            resume_at = 0;
            resume_node = 0;
            if miss_at > 0 {
                self.stats.prefix_replays += 1;
            }
        }
        // Replay the cached-but-uncheckpointed part of the prefix, filling
        // checkpoints as we pass.
        let mut at = resume_node;
        for t in resume_at..miss_at {
            let out = driver.step(expected[t].inputs);
            driven += 1;
            let n = path[t];
            if out != self.nodes[n].outputs {
                // A deterministic rig never changes its response to the
                // same word: the determinism claim is refuted. Drop the
                // poisoned trie and distrust the claim permanently.
                self.clear();
                self.validation = Validation::Distrusted;
                self.stats.driven_steps += driven;
                return driven;
            }
            if self.nodes[n].checkpoint.is_none() {
                self.nodes[n].checkpoint = driver.try_clone_boxed();
            }
            at = n;
        }
        // Drive the genuinely new steps, memoizing each.
        let mut drove_new = false;
        for l in &expected[miss_at..] {
            let out = driver.step(l.inputs);
            driven += 1;
            drove_new = true;
            let mut node = Node::new(out, driver.period(), driver.observable_state());
            node.checkpoint = driver.try_clone_boxed();
            at = self.insert_node(at, l.inputs, node);
            if out != l.outputs {
                break; // record-drive semantics: stop at the divergence
            }
        }
        self.stats.driven_steps += driven;
        if drove_new {
            driven += self.verify(component, expected);
        }
        driven
    }

    /// [`TraceCache::extend`] driving the original (non-clonable)
    /// component: reset, replay the known prefix, continue into new steps.
    fn extend_in_place(
        &mut self,
        component: &mut dyn StateObservable,
        expected: &[Label],
        miss_at: usize,
    ) -> usize {
        component.reset();
        let mut driven = 0usize;
        let mut at = 0usize;
        if miss_at > 0 {
            self.stats.prefix_replays += 1;
        }
        for (t, l) in expected.iter().enumerate() {
            let out = component.step(l.inputs);
            driven += 1;
            if t < miss_at {
                let n = self.nodes[at].children[&l.inputs];
                if out != self.nodes[n].outputs {
                    // Same determinism refutation as in `extend`.
                    self.clear();
                    self.validation = Validation::Distrusted;
                    self.stats.driven_steps += driven;
                    return driven;
                }
                at = n;
                continue;
            }
            let node = Node::new(out, component.period(), component.observable_state());
            at = self.insert_node(at, l.inputs, node);
            if out != l.outputs {
                break;
            }
        }
        self.stats.driven_steps += driven;
        driven + self.verify(component, expected)
    }

    /// The verification drive of the executed word: a second observation
    /// of every newly memoized step, compared output by output against the
    /// trie — the cached analogue of the serial executor's record/replay
    /// cross-check. It resumes the witness lineage from the deepest witness
    /// on the word's path (the root included), so a word one step past a
    /// witnessed node costs one step; with no witness on the path it drives
    /// the whole word from a reset, as the serial cross-check does. Every
    /// node it passes without a witness keeps the drive's clone as one.
    /// The drive never starts from a checkpoint and never leaves one, so a
    /// node's checkpoint and witness always come from different from-reset
    /// drives, and the two observations of each new step are independent.
    /// A component whose behaviour varies across resets (a false
    /// `deterministic_rig()` claim) fails the comparison and is distrusted
    /// permanently, exactly as the serial executor would report it
    /// nondeterministic. Returns the steps driven.
    fn verify(&mut self, component: &mut dyn StateObservable, expected: &[Label]) -> usize {
        let path = match self.walk(expected) {
            Walk::Covered { path, .. } | Walk::Miss { path } => path,
        };
        let mut start = 0usize; // depth the drive resumes at
        let mut resume_node = 0usize;
        for (depth, &n) in path.iter().enumerate() {
            if self.nodes[n].witness.is_some() {
                start = depth + 1;
                resume_node = n;
            }
        }
        let mut clone = match self.nodes[resume_node].witness.as_ref() {
            Some(w) => w.try_clone_boxed(),
            None => {
                start = 0;
                component.try_clone_boxed()
            }
        };
        let driver: &mut dyn StateObservable = match clone.as_deref_mut() {
            Some(c) => c,
            // Non-clonable: drive the original — it is reset on every test
            // execution anyway, and consecutive resets are exactly the
            // record/replay pattern the serial cross-check relies on.
            None => component,
        };
        if start == 0 && self.nodes[0].witness.is_none() {
            driver.reset();
            self.nodes[0].witness = driver.try_clone_boxed();
        }
        let mut driven = 0usize;
        let mut ok = true;
        for (t, &n) in path.iter().enumerate().skip(start) {
            let out = driver.step(expected[t].inputs);
            driven += 1;
            if out != self.nodes[n].outputs {
                ok = false;
                break;
            }
            if self.nodes[n].witness.is_none() {
                self.nodes[n].witness = driver.try_clone_boxed();
            }
        }
        self.stats.driven_steps += driven;
        if !ok {
            self.clear();
            self.validation = Validation::Distrusted;
        }
        driven
    }

    fn insert_node(&mut self, parent: usize, inputs: SignalSet, node: Node) -> usize {
        if let Some(&existing) = self.nodes[parent].children.get(&inputs) {
            return existing;
        }
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.nodes[parent].children.insert(inputs, idx);
        self.stats.insertions += 1;
        idx
    }

    /// Inserts a conclusive outcome produced by the serial executor (the
    /// quorum-confirmed result of a flaky or distrusted rig, or the
    /// validation run of a deterministic one): response data only, never
    /// checkpoints (a faulty rig cannot be snapshotted; a trusted rig's
    /// checkpoints are filled in by later extensions). On any conflict with
    /// existing entries the insertion is abandoned — the cache must stay
    /// internally consistent.
    fn insert_quorum_confirmed(&mut self, component: &mut dyn StateObservable, o: &TestOutcome) {
        let labels = &o.observation.labels;
        if o.recording.steps.len() != labels.len() {
            return;
        }
        self.ensure_root(
            component.name(),
            component.initial_state_name(),
            o.observation.states[0].clone(),
            None,
        );
        let mut at = 0usize;
        for (i, l) in labels.iter().enumerate() {
            if let Some(&child) = self.nodes[at].children.get(&l.inputs) {
                if self.nodes[child].outputs != l.outputs {
                    return; // conflicting quorum results — keep the first
                }
                at = child;
                continue;
            }
            let node = Node::new(
                l.outputs,
                o.recording.steps[i].period,
                o.observation.states[i + 1].clone(),
            );
            at = self.insert_node(at, l.inputs, node);
        }
    }

    /// After a conclusive serial run of a *trusted* deterministic rig, the
    /// component sits exactly at the end of the executed word (the second
    /// drive of [`execute_expected_trace`](crate::execute_expected_trace)
    /// is the replay, which does not reset afterwards): snapshot it as the
    /// checkpoint of the word's final trie node, so the very next
    /// extension resumes instead of replaying.
    /// `witness` — the run's clone from between its record drive and
    /// replay, one reset apart from the checkpoint's drive — becomes that
    /// node's witness, so the next verification resumes as well.
    fn attach_terminal_clones(
        &mut self,
        component: &mut dyn StateObservable,
        witness: Option<Box<dyn StateObservable + Send>>,
        labels: &[Label],
    ) {
        if self.nodes.is_empty() {
            return;
        }
        let mut at = 0usize;
        for l in labels {
            match self.nodes[at].children.get(&l.inputs) {
                Some(&n) => at = n,
                None => return,
            }
        }
        if self.nodes[at].checkpoint.is_none() {
            self.nodes[at].checkpoint = component.try_clone_boxed();
        }
        if self.nodes[at].witness.is_none() {
            self.nodes[at].witness = witness;
        }
    }

    /// The batch half of [`probe_offers_pooled`] on a trusted cache: covers
    /// `prefix` once, then memoizes every offer the trie lacks by one
    /// checkpointed step plus its witness step, on the pool. Books the
    /// steps driven per offer into `extra`. Returns early, leaving the
    /// offers to the per-offer executor, when the prefix replay refutes
    /// the claim, the prefix diverges, or the rig cannot be cloned.
    fn step_offers(
        &mut self,
        component: &mut dyn StateObservable,
        prefix: &[Label],
        offers: &[SignalSet],
        extra: &mut [usize],
        parallelism: usize,
    ) {
        let prefix_driven = self.extend(component, prefix);
        if let Some(e0) = extra.first_mut() {
            *e0 += prefix_driven;
        }
        if self.validation != Validation::Trusted {
            return;
        }
        // A prefix that does not replay cleanly (confirmed against
        // different behaviour?) is left to the per-offer path, which
        // handles divergence.
        let Walk::Covered {
            path,
            divergence: None,
        } = self.walk(prefix)
        else {
            return;
        };
        let prefix_node = path.last().copied().unwrap_or(0);
        // Which offers still need a rig step?
        let missing: Vec<usize> = (0..offers.len())
            .filter(|&i| !self.nodes[prefix_node].children.contains_key(&offers[i]))
            .collect();
        if missing.is_empty() || self.nodes[prefix_node].checkpoint.is_none() {
            return;
        }
        // Both lineages must reach the prefix: a prefix without a witness
        // first gets one from a verification drive.
        if self.nodes[prefix_node].witness.is_none() {
            extra[0] += self.verify(component, prefix);
        }
        // Each missing offer steps a clone of the prefix checkpoint (the
        // extension) and a clone of the prefix witness (its verification —
        // see `verify`) once.
        let mut pairs = Vec::with_capacity(missing.len());
        if self.validation == Validation::Trusted {
            let node = &self.nodes[prefix_node];
            if let (Some(snap), Some(wit)) = (&node.checkpoint, &node.witness) {
                for _ in &missing {
                    match (snap.try_clone_boxed(), wit.try_clone_boxed()) {
                        (Some(c), Some(w)) => pairs.push((c, w)),
                        _ => break,
                    }
                }
            }
        }
        if pairs.len() != missing.len() {
            return;
        }
        let tasks: Vec<_> = missing
            .iter()
            .zip(pairs)
            .map(|(&i, (mut c, mut w))| {
                let a = offers[i];
                move || {
                    let out = c.step(a);
                    let seen = w.step(a);
                    (out, seen, c, w)
                }
            })
            .collect();
        let results = run_pooled(tasks, parallelism, &mut self.stats);
        self.stats.driven_steps += 2 * results.len();
        for (&i, (out, seen, c, w)) in missing.iter().zip(results) {
            extra[i] += 2;
            if self.validation != Validation::Trusted {
                continue; // already distrusted: count steps only
            }
            // The verification step must reproduce the extension's output;
            // any disagreement refutes the determinism claim (as the serial
            // cross-check would).
            if seen != out {
                self.clear();
                self.validation = Validation::Distrusted;
                continue;
            }
            let mut node = Node::new(out, c.period(), c.observable_state());
            node.checkpoint = Some(c);
            node.witness = Some(w);
            self.insert_node(prefix_node, offers[i], node);
        }
    }
}

/// Builds the [`RetryReport`] for a synthesized (zero-attempt) outcome.
fn synthesized_report(outcome: TestOutcome, expected: &[Label], driven: usize) -> RetryReport {
    debug_assert!(internally_consistent(&outcome, expected));
    let verdict = match outcome.divergence {
        None if outcome.confirmed => TestVerdict::Confirmed,
        None => TestVerdict::Inconclusive,
        Some(step) => TestVerdict::Diverged { step },
    };
    let conclusive = verdict.is_conclusive();
    RetryReport {
        verdict,
        outcome: conclusive.then_some(outcome),
        driven_steps: driven,
        ..RetryReport::empty()
    }
}

/// The rig steps the serial uncached executor would drive for this trace:
/// two drives (record and replay) per executed input, once per quorum
/// attempt (deterministic rigs repeat identically until the quorum is met).
fn serial_counterfactual(executed: usize, policy: &RetryPolicy) -> usize {
    let attempts = policy.quorum.max(1).min(policy.max_attempts.max(1));
    executed.saturating_mul(2).saturating_mul(attempts)
}

/// Runs `tasks` on scoped threads, at most `parallelism` at a time, and
/// returns the results in task order. A batch that reaches the pool is
/// counted in `stats`.
fn run_pooled<T, F>(tasks: Vec<F>, parallelism: usize, stats: &mut CacheStats) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let width = parallelism.max(1);
    if width <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    stats.parallel_batches += 1;
    stats.parallel_tasks += tasks.len();
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(tasks.len(), || None);
    let mut remaining: Vec<(usize, F)> = tasks.into_iter().enumerate().collect();
    while !remaining.is_empty() {
        let chunk: Vec<(usize, F)> = remaining.drain(..remaining.len().min(width)).collect();
        let results: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .into_iter()
                .map(|(i, f)| scope.spawn(move || (i, f())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pooled rig execution panicked"))
                .collect()
        });
        for (i, r) in results {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|o| o.expect("pooled task lost"))
        .collect()
}

/// [`execute_with_retry_on`](crate::execute_with_retry_on) through a trace
/// cache. Verdicts, observations, and learned evidence are bit-identical
/// to that serial executor:
///
/// * deterministic rig with a validated claim: the outcome is synthesized
///   from the trie (full hit: zero steps; partial: extend from the deepest
///   checkpoint and verify from its witness);
/// * the cache's first execution, a refuted claim, or a nondeterministic
///   rig: the serial retry loop runs unchanged (fault PRNG streams must not
///   be forked), and its conclusive outcomes are inserted into the cache
///   for later full-word hits.
pub fn execute_with_retry_cached(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
    policy: &RetryPolicy,
    clock: &mut SimClock,
    cache: &mut TraceCache,
) -> RetryReport {
    let deterministic = component.deterministic_rig();
    // Degenerate configuration (quorum can never be met): preserve the
    // serial executor's behaviour exactly rather than synthesizing a
    // conclusive verdict the serial path would not reach.
    let degenerate = policy.quorum.max(1) > policy.max_attempts.max(1);
    // Steps an extension drove before it refuted the determinism claim;
    // booked into the serial executor's report below.
    let mut refuted_steps = 0usize;

    cache.stats.lookups += 1;
    if deterministic && !degenerate && cache.validation == Validation::Trusted {
        if let Some(outcome) = cache.synthesize(expected, u, ports) {
            cache.stats.hits += 1;
            cache.stats.saved_steps +=
                serial_counterfactual(outcome.observation.labels.len(), policy);
            return synthesized_report(outcome, expected, 0);
        }
        let driven = cache.extend(component, expected);
        if cache.validation == Validation::Trusted {
            let mut outcome = cache
                .synthesize(expected, u, ports)
                .expect("extend must cover the executed prefix");
            outcome.driven_steps = driven;
            cache.stats.saved_steps +=
                serial_counterfactual(outcome.observation.labels.len(), policy)
                    .saturating_sub(driven);
            let mut report = synthesized_report(outcome, expected, driven);
            report.attempts = 1;
            return report;
        }
        // The extension refuted the determinism claim mid-replay: the
        // trie was dropped; fall through to the serial executor.
        refuted_steps = driven;
    }
    if !deterministic || cache.validation == Validation::Distrusted {
        if let Some(outcome) = cache.synthesize(expected, u, ports) {
            // Every trie entry for a flaky (or distrusted) rig was
            // quorum-confirmed when it was inserted; replaying the agreed
            // verdict is as sound as the quorum that produced it.
            cache.stats.hits += 1;
            cache.stats.saved_steps += expected.len().saturating_mul(2);
            return synthesized_report(outcome, expected, 0);
        }
    }

    // A `Trusted` cache returned above, so the executor runs when the
    // claim is pending (the validation run must be the serial executor
    // verbatim, and it hands over its witness clone) or refuted (clones
    // must not be used).
    let validating = deterministic && !degenerate && cache.validation == Validation::Pending;
    let mut witness = None;
    let mut report = retry_witnessed(
        component,
        expected,
        u,
        ports,
        policy,
        clock,
        validating.then_some(&mut witness),
    );
    report.driven_steps += refuted_steps;

    if validating {
        // The validation run: only a cleanly conclusive result — no replay
        // errors, no internally inconsistent attempts — is consistent with
        // the determinism claim.
        cache.validation = if report.verdict.is_conclusive()
            && report.replay_errors == 0
            && report.inconsistent_attempts == 0
        {
            Validation::Trusted
        } else {
            Validation::Distrusted
        };
    }
    if report.verdict.is_conclusive() {
        if let Some(outcome) = report.outcome.as_ref() {
            cache.insert_quorum_confirmed(component, outcome);
            if deterministic && cache.validation == Validation::Trusted {
                cache.attach_terminal_clones(component, witness, &outcome.observation.labels);
            }
        }
    }
    report
}

/// The frontier-probe batch: for each offered input `a`, the verdict of
/// testing `prefix·(a/∅)` — semantically identical to calling
/// [`execute_with_retry_cached`] per offer in order, but on a validated
/// deterministic rig each offer the trie lacks steps clones of the
/// checkpoint and of the witness at the end of `prefix` once each (two
/// steps instead of `2·(|w|+1)`), concurrently on the pool. Reports come
/// back in offer order; learned evidence is bit-identical to serial.
#[allow(clippy::too_many_arguments)]
pub fn probe_offers_pooled(
    component: &mut dyn StateObservable,
    prefix: &[Label],
    offers: &[SignalSet],
    u: &Universe,
    ports: &PortMap,
    policy: &RetryPolicy,
    clock: &mut SimClock,
    cache: &mut TraceCache,
    parallelism: usize,
) -> Vec<RetryReport> {
    let expected: Vec<Vec<Label>> = offers
        .iter()
        .map(|&a| {
            let mut w = prefix.to_vec();
            w.push(Label::new(a, SignalSet::EMPTY));
            w
        })
        .collect();
    // `extra` carries the rig steps the batch drove on behalf of each
    // offer, so the per-offer reports (which would otherwise be zero-step
    // cache hits) account for the true rig work.
    let mut extra = vec![0usize; offers.len()];
    let degenerate = policy.quorum.max(1) > policy.max_attempts.max(1);
    if component.deterministic_rig() && !degenerate && cache.validation == Validation::Trusted {
        cache.step_offers(component, prefix, offers, &mut extra, parallelism);
    }
    // Every offer is now either memoized or is driven by the per-offer
    // executor: an unvalidated claim validates serially there, and a
    // nondeterministic, refuted or non-clonable rig runs the serial path.
    expected
        .iter()
        .zip(extra)
        .map(|(e, extra)| {
            let mut rr = execute_with_retry_cached(component, e, u, ports, policy, clock, cache);
            if extra > 0 {
                rr.driven_steps += extra;
                if rr.attempts == 0 {
                    // A synthesized hit claimed the full serial cost as
                    // saved; the batch actually drove `extra` steps.
                    cache.stats.saved_steps = cache.stats.saved_steps.saturating_sub(extra);
                }
            }
            rr
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LegacyComponent;
    use crate::interpreter::{HiddenMealy, MealyBuilder};
    use crate::latency::LatentComponent;
    use crate::retry::execute_with_retry;
    use crate::rig::{RigFaultProfile, UnreliableRig};

    fn component(u: &Universe) -> HiddenMealy {
        MealyBuilder::new(u, "legacy")
            .input("start")
            .input("reject")
            .output("propose")
            .state("noConvoy")
            .initial("noConvoy")
            .state("wait")
            .state("convoy")
            .rule("noConvoy", [], ["propose"], "wait")
            .rule("wait", ["start"], [], "convoy")
            .rule("wait", ["reject"], [], "noConvoy")
            .build()
            .unwrap()
    }

    fn l(u: &Universe, ins: &[&str], outs: &[&str]) -> Label {
        Label::new(
            ins.iter().map(|n| u.signal(n)).collect(),
            outs.iter().map(|n| u.signal(n)).collect(),
        )
    }

    /// Everything the learner consumes must agree; only the driven-step
    /// accounting may differ.
    fn assert_equivalent(cached: &RetryReport, serial: &RetryReport) {
        assert_eq!(cached.verdict, serial.verdict);
        match (&cached.outcome, &serial.outcome) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.confirmed, b.confirmed);
                assert_eq!(a.divergence, b.divergence);
                assert_eq!(a.observation, b.observation);
                assert_eq!(a.refusal, b.refusal);
                assert_eq!(a.recording, b.recording);
                assert_eq!(a.monitor.to_string(), b.monitor.to_string());
            }
            _ => panic!("outcome presence differs"),
        }
    }

    #[test]
    fn full_hit_synthesizes_identical_outcome_with_zero_steps() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];

        let serial = execute_with_retry(&mut component(&u), &expected, &u, &ports, &policy);

        let mut cache = TraceCache::new("test");
        let mut clock = SimClock::new();
        let mut c = component(&u);
        let first = execute_with_retry_cached(
            &mut c, &expected, &u, &ports, &policy, &mut clock, &mut cache,
        );
        assert_equivalent(&first, &serial);
        assert_eq!(
            first.driven_steps, serial.driven_steps,
            "first contact is the serial validation run"
        );

        let second = execute_with_retry_cached(
            &mut c, &expected, &u, &ports, &policy, &mut clock, &mut cache,
        );
        assert_equivalent(&second, &serial);
        assert_eq!(second.driven_steps, 0, "repeat is a pure synthesis");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn divergence_synthesis_matches_serial_including_refusal() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let expected = vec![l(&u, &[], &[]), l(&u, &[], &["propose"])];

        let serial = execute_with_retry(&mut component(&u), &expected, &u, &ports, &policy);
        assert_eq!(serial.verdict, TestVerdict::Diverged { step: 0 });

        let mut cache = TraceCache::new("test");
        let mut clock = SimClock::new();
        let mut c = component(&u);
        for _ in 0..3 {
            let r = execute_with_retry_cached(
                &mut c, &expected, &u, &ports, &policy, &mut clock, &mut cache,
            );
            assert_equivalent(&r, &serial);
        }
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn prefix_resume_extends_instead_of_replaying() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let w = vec![l(&u, &[], &["propose"])];
        let wa = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];

        let mut cache = TraceCache::new("test");
        let mut clock = SimClock::new();
        let mut c = component(&u);
        let first =
            execute_with_retry_cached(&mut c, &w, &u, &ports, &policy, &mut clock, &mut cache);
        assert_eq!(first.driven_steps, 2, "first contact validates serially");
        // Extending w to w·a drives one new step from the checkpoint
        // captured at the end of the validation run, plus one verification
        // step from the witness it captured one reset earlier — 2 steps
        // against the serial executor's 2·|w·a| = 4.
        let ext =
            execute_with_retry_cached(&mut c, &wa, &u, &ports, &policy, &mut clock, &mut cache);
        assert_eq!(ext.driven_steps, 2);
        assert!(cache.stats().resumes >= 1);
        let serial = execute_with_retry(&mut component(&u), &wa, &u, &ports, &policy);
        assert_equivalent(&ext, &serial);
    }

    #[test]
    fn empty_trace_is_synthesized_after_first_contact() {
        let u = Universe::new();
        let ports = PortMap::with_default("p");
        let policy = RetryPolicy::default();
        let mut cache = TraceCache::new("test");
        let mut clock = SimClock::new();
        let mut c = component(&u);
        let serial = execute_with_retry(&mut component(&u), &[], &u, &ports, &policy);
        let r = execute_with_retry_cached(&mut c, &[], &u, &ports, &policy, &mut clock, &mut cache);
        assert_equivalent(&r, &serial);
        let again =
            execute_with_retry_cached(&mut c, &[], &u, &ports, &policy, &mut clock, &mut cache);
        assert_equivalent(&again, &serial);
    }

    #[test]
    fn flaky_rig_skips_cache_until_quorum_then_reuses_the_agreed_verdict() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default().with_max_attempts(24).with_quorum(2);
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];
        let profile = RigFaultProfile::uniform(0xFEED, 0.1);
        let mut rig = UnreliableRig::new(component(&u), profile);
        assert!(!rig.deterministic_rig());

        let mut cache = TraceCache::new("flaky");
        let mut clock = SimClock::new();
        let first = execute_with_retry_cached(
            &mut rig, &expected, &u, &ports, &policy, &mut clock, &mut cache,
        );
        if first.verdict.is_conclusive() {
            assert!(first.attempts >= 1, "flaky path must actually execute");
            assert!(!cache.is_empty(), "conclusive verdicts are memoized");
            let second = execute_with_retry_cached(
                &mut rig, &expected, &u, &ports, &policy, &mut clock, &mut cache,
            );
            assert_eq!(second.verdict, first.verdict);
            assert_eq!(second.attempts, 0, "repeat is served from the cache");
            assert_eq!(second.driven_steps, 0);
        } else {
            assert!(cache.is_empty(), "inconclusive runs must not be cached");
        }
    }

    #[test]
    fn probe_batch_matches_serial_per_offer_verdicts() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let prefix = vec![l(&u, &[], &["propose"])];
        let offers = vec![
            u.signals(["start"]),
            u.signals(["reject"]),
            u.signals(["start", "reject"]),
        ];

        // Serial reference: one retry execution per offer.
        let serial: Vec<RetryReport> = offers
            .iter()
            .map(|&a| {
                let mut e = prefix.clone();
                e.push(Label::new(a, SignalSet::EMPTY));
                execute_with_retry(&mut component(&u), &e, &u, &ports, &policy)
            })
            .collect();

        for parallelism in [1usize, 4] {
            let mut cache = TraceCache::new("probe");
            let mut clock = SimClock::new();
            let mut c = component(&u);
            let batch = probe_offers_pooled(
                &mut c,
                &prefix,
                &offers,
                &u,
                &ports,
                &policy,
                &mut clock,
                &mut cache,
                parallelism,
            );
            assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.iter().zip(&serial) {
                assert_equivalent(b, s);
            }
            // The first offer is the serial validation run (accounted to
            // the executor, not the cache); every further offer costs one
            // checkpointed step and one witness step, after a one-off
            // replay of the prefix on each lineage — 2·|w| + 2·(k-1), not
            // the serial 2·(|w|+1)·(k-1).
            let driven: usize = cache.stats().driven_steps;
            assert!(
                driven <= 2 * prefix.len() + 2 * (offers.len() - 1),
                "cache drove {driven} steps"
            );
            // A repeated batch is served entirely from the trie.
            let again = probe_offers_pooled(
                &mut c,
                &prefix,
                &offers,
                &u,
                &ports,
                &policy,
                &mut clock,
                &mut cache,
                parallelism,
            );
            for (b, s) in again.iter().zip(&serial) {
                assert_equivalent(b, s);
                assert_eq!(b.driven_steps, 0, "warm probes never touch the rig");
            }
            assert_eq!(cache.stats().driven_steps, driven);
        }
    }

    #[test]
    fn latent_component_checkpoints_resume_without_replay_sleeps() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let mut slow = LatentComponent::new(component(&u), std::time::Duration::from_micros(50));
        let mut cache = TraceCache::new("latent");
        let mut clock = SimClock::new();
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];
        let r = execute_with_retry_cached(
            &mut slow, &expected, &u, &ports, &policy, &mut clock, &mut cache,
        );
        assert_eq!(r.verdict, TestVerdict::Confirmed);
        assert_eq!(
            r.driven_steps, 4,
            "first contact is the serial validation run"
        );
        let serial = execute_with_retry(
            &mut LatentComponent::new(component(&u), std::time::Duration::ZERO),
            &expected,
            &u,
            &ports,
            &policy,
        );
        assert_equivalent(&r, &serial);
        // Extending the word costs one latency-paying step from the
        // checkpoint plus one verification step from the witness — 2 slow
        // steps, not the serial executor's 2·|w·a| = 6.
        let mut wa = expected.clone();
        wa.push(l(&u, &["start"], &[]));
        let ext =
            execute_with_retry_cached(&mut slow, &wa, &u, &ports, &policy, &mut clock, &mut cache);
        assert_eq!(
            ext.driven_steps, 2,
            "one checkpointed step + one witness step"
        );
        let serial_ext = execute_with_retry(
            &mut LatentComponent::new(component(&u), std::time::Duration::ZERO),
            &wa,
            &u,
            &ports,
            &policy,
        );
        assert_equivalent(&ext, &serial_ext);
    }

    /// When a clonable liar lies.
    #[derive(Debug, Clone, Copy)]
    enum Lie {
        /// Lies from period `from` on, after every even-numbered reset.
        ResetParity { from: u64 },
        /// Lies from its `from`-th step counted across resets (clones keep
        /// the count), for ever after.
        LifetimeStep { from: u64 },
    }

    /// A clonable determinism liar: it claims `deterministic_rig()` (the
    /// trait default) but toggles `propose` in its answer whenever its
    /// [`Lie`] says so.
    #[derive(Debug, Clone)]
    struct Liar {
        inner: HiddenMealy,
        lie: Lie,
        propose: SignalSet,
        resets: u64,
        lifetime: u64,
    }

    impl LegacyComponent for Liar {
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
            self.lifetime += 1;
            let out = self.inner.step(inputs);
            let lying = match self.lie {
                Lie::ResetParity { from } => {
                    self.resets.is_multiple_of(2) && self.inner.period() >= from
                }
                Lie::LifetimeStep { from } => self.lifetime >= from,
            };
            if lying {
                if out.is_disjoint(self.propose) {
                    out.union(self.propose)
                } else {
                    out.difference(self.propose)
                }
            } else {
                out
            }
        }
        fn period(&self) -> u64 {
            self.inner.period()
        }
    }

    impl StateObservable for Liar {
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

    /// Drives a cache the way the loop does: a serial first contact with
    /// `first`, then frontier probe batches (every input) along a growing
    /// prefix of the component's true run, each followed by a test of the
    /// prefix's one-step extension. Returns whether the cache ended up
    /// distrusting the rig.
    fn loop_like_run(lie: Lie, first: &[Label], parallelism: usize) -> bool {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default();
        let mut liar = Liar {
            inner: component(&u),
            lie,
            propose: u.signals(["propose"]),
            resets: 0,
            lifetime: 0,
        };
        let mut truth = component(&u);
        let offers = [
            SignalSet::EMPTY,
            u.signals(["start"]),
            u.signals(["reject"]),
        ];
        let mut cache = TraceCache::new("liar");
        let mut clock = SimClock::new();
        execute_with_retry_cached(
            &mut liar, first, &u, &ports, &policy, &mut clock, &mut cache,
        );
        // noConvoy → wait → noConvoy → … : `propose`, then `reject`.
        let mut prefix: Vec<Label> = Vec::new();
        for depth in 0..12 {
            probe_offers_pooled(
                &mut liar,
                &prefix,
                &offers,
                &u,
                &ports,
                &policy,
                &mut clock,
                &mut cache,
                parallelism,
            );
            let a = if depth % 2 == 0 {
                SignalSet::EMPTY
            } else {
                offers[2]
            };
            prefix.push(Label::new(a, truth.step(a)));
            execute_with_retry_cached(
                &mut liar, &prefix, &u, &ports, &policy, &mut clock, &mut cache,
            );
        }
        cache.validation == Validation::Distrusted
    }

    /// Every clonable liar is distrusted whenever the verification
    /// lineages can tell it apart. A reset-parity liar always: the witness
    /// lineage descends from the validation run's record drive and the
    /// checkpoint lineage from its replay, one reset apart. A lifetime-step
    /// liar only after a non-empty first word: then the lineages start
    /// `|w|` steps apart in its count; after the empty word they reach
    /// every depth with equal counts (the residual gap of DESIGN.md §17).
    /// The loop probes 12 depths, enough for every liar here: after the
    /// one-step first word, a liar lying from its 10th lifetime step is
    /// caught within 9.
    #[test]
    fn clonable_liars_are_distrusted_when_the_lineages_can_tell() {
        let u = Universe::new();
        let firsts = [vec![], vec![l(&u, &[], &["propose"])]];
        for (lie, caught_after_empty) in [
            (Lie::ResetParity { from: 1 }, true),
            (Lie::ResetParity { from: 3 }, true),
            (Lie::LifetimeStep { from: 5 }, false),
            (Lie::LifetimeStep { from: 10 }, false),
        ] {
            for first in &firsts {
                for parallelism in [1usize, 4] {
                    assert_eq!(
                        loop_like_run(lie, first, parallelism),
                        caught_after_empty || !first.is_empty(),
                        "{lie:?} first word {first:?} parallelism {parallelism}"
                    );
                }
            }
        }
    }

    /// The 200-seed differential suite: prefix-resumed execution must equal
    /// reset-and-replay on clean rigs for labels, observable states, and
    /// periods; flaky rigs must agree whenever both paths are conclusive.
    #[test]
    fn differential_200_seeds_cached_equals_serial() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let policy = RetryPolicy::default().with_max_attempts(12).with_quorum(2);
        let a_sets = [
            SignalSet::EMPTY,
            u.signals(["start"]),
            u.signals(["reject"]),
        ];
        let out_sets = [SignalSet::EMPTY, u.signals(["propose"])];
        let mut xs = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            xs
        };
        for seed in 0..200u64 {
            // A pseudo-random expected trace of length 1..=5, plus its
            // one-step extension — exercising miss, hit, and resume.
            let len = (next() % 5 + 1) as usize;
            let word: Vec<Label> = (0..len)
                .map(|_| {
                    Label::new(
                        a_sets[(next() % 3) as usize],
                        out_sets[(next() % 2) as usize],
                    )
                })
                .collect();
            let mut extension = word.clone();
            extension.push(Label::new(a_sets[(next() % 3) as usize], SignalSet::EMPTY));

            // Clean rig (an UnreliableRig with a clean profile, so the
            // cache path sees the wrapper, not the bare interpreter).
            let clean = RigFaultProfile::clean(seed);
            let mut cache = TraceCache::new("diff-clean");
            let mut clock = SimClock::new();
            let mut rig = UnreliableRig::new(component(&u), clean);
            for expected in [&word, &extension, &word] {
                let cached = execute_with_retry_cached(
                    &mut rig, expected, &u, &ports, &policy, &mut clock, &mut cache,
                );
                let serial = execute_with_retry(
                    &mut UnreliableRig::new(component(&u), clean),
                    expected,
                    &u,
                    &ports,
                    &policy,
                );
                assert_equivalent(&cached, &serial);
            }

            // Faulty rig: the cache must never corrupt a verdict. Both
            // paths run their own PRNG history, so compare only when both
            // are conclusive — then both must agree (with the clean truth).
            let faulty = RigFaultProfile::uniform(seed.wrapping_mul(0x9E37), 0.1);
            let mut cache = TraceCache::new("diff-faulty");
            let mut clock = SimClock::new();
            let mut rig = UnreliableRig::new(component(&u), faulty);
            let truth = execute_with_retry(
                &mut UnreliableRig::new(component(&u), RigFaultProfile::clean(0)),
                &word,
                &u,
                &ports,
                &policy,
            );
            for _ in 0..2 {
                let r = execute_with_retry_cached(
                    &mut rig, &word, &u, &ports, &policy, &mut clock, &mut cache,
                );
                if r.verdict.is_conclusive() {
                    assert_eq!(r.verdict, truth.verdict, "seed {seed}");
                    assert_eq!(
                        r.outcome.as_ref().map(|o| &o.observation),
                        truth.outcome.as_ref().map(|o| &o.observation),
                        "seed {seed}"
                    );
                }
            }
        }
    }
}
