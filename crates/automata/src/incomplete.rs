//! Incomplete automata (Definitions 6–7) and learning (Definitions 11–12).
//!
//! An incomplete automaton `M = (S, I, O, T, T̄, Q)` records the behaviour
//! *known so far* of a partially observed component: `T` holds observed
//! transitions, `T̄` holds interactions observed to be *refused* (blocked).
//! Unknown interactions are neither — the chaotic closure
//! ([`crate::chaotic_closure`]) later accounts for them pessimistically.
//!
//! Learning a regular run adds its states and transitions (Definition 11);
//! learning a deadlock run adds the blocked interaction to `T̄`
//! (Definition 12). Both preserve observation conformance (Lemma 7).

use std::collections::HashMap;

use crate::automaton::{Automaton, StateId};
use crate::error::{AutomataError, Result};
use crate::label::Label;
use crate::prop::PropSet;
use crate::signal::SignalSet;
use crate::universe::Universe;

/// A run observed on the real component, with monitored state *names*
/// (obtained via deterministic replay instrumentation) instead of state ids.
///
/// * regular observation: `states.len() == labels.len() + 1`
/// * blocked observation: `states.len() == labels.len()`; the last label was
///   attempted in the last state and refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Monitored state names, starting with the initial state.
    pub states: Vec<String>,
    /// Observed interactions.
    pub labels: Vec<Label>,
    /// Whether the final interaction was blocked.
    pub blocked: bool,
}

impl Observation {
    /// A regular (non-blocked) observation.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != labels.len() + 1`.
    pub fn regular(states: Vec<String>, labels: Vec<Label>) -> Self {
        assert_eq!(states.len(), labels.len() + 1, "regular observation shape");
        Observation {
            states,
            labels,
            blocked: false,
        }
    }

    /// An observation whose final interaction was refused.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != labels.len()`.
    pub fn blocked(states: Vec<String>, labels: Vec<Label>) -> Self {
        assert_eq!(states.len(), labels.len(), "blocked observation shape");
        Observation {
            states,
            labels,
            blocked: true,
        }
    }
}

/// The knowledge gained since the last [`IncompleteAutomaton::take_delta`]
/// call: which states were touched (created, given new transitions or
/// refusals, or relabelled) and how much was added in absolute terms.
///
/// Learning is monotone — Definitions 11/12 only ever *add* states,
/// transitions and refusals — so a delta fully characterises the difference
/// between two revisions of the same abstraction. The incremental
/// recomposition cache ([`crate::CompositionCache`]) uses `dirty` to decide
/// which product rows to invalidate; telemetry uses the counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearnDelta {
    /// States whose local knowledge changed (new state, new outgoing
    /// transition, new refusal, or new proposition). Deduplicated and sorted
    /// by [`IncompleteAutomaton::take_delta`].
    pub dirty: Vec<StateId>,
    /// Number of states created.
    pub new_states: usize,
    /// Number of transitions added to `T`.
    pub new_transitions: usize,
    /// Number of refusals added to `T̄`.
    pub new_refusals: usize,
    /// Whether the initial-state set `Q` grew. Initial-set changes move the
    /// product's start frontier, so caches treat them as a full rebuild.
    pub initial_changed: bool,
}

impl LearnDelta {
    /// Whether nothing was learned since the last drain.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
            && self.new_states == 0
            && self.new_transitions == 0
            && self.new_refusals == 0
            && !self.initial_changed
    }

    fn mark(&mut self, s: StateId) {
        if !self.dirty.contains(&s) {
            self.dirty.push(s);
        }
    }
}

/// A plain-data, name-based image of an [`IncompleteAutomaton`], produced
/// by [`IncompleteAutomaton::to_snapshot`] and restored by
/// [`IncompleteAutomaton::from_snapshot`].
///
/// Everything is expressed in names (state names, signal names, proposition
/// names) and positional state indices — nothing references a particular
/// [`Universe`]'s interning order — so snapshots can be persisted and
/// restored into a fresh universe. Order is significant throughout: it is
/// what makes a restored abstraction compose bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncompleteSnapshot {
    /// The automaton name.
    pub name: String,
    /// Input signal names, in the source automaton's set order.
    pub inputs: Vec<String>,
    /// Output signal names, in the source automaton's set order.
    pub outputs: Vec<String>,
    /// States in state-id order.
    pub states: Vec<SnapshotState>,
    /// Observed transitions `T`, grouped by source state in recording order.
    pub transitions: Vec<SnapshotTransition>,
    /// Recorded refusals `T̄`, grouped by state in recording order.
    pub refusals: Vec<SnapshotRefusal>,
    /// Indices (into `states`) of the initial states `Q`, in order.
    pub initial: Vec<usize>,
}

/// One state of an [`IncompleteSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotState {
    /// The monitored state name.
    pub name: String,
    /// Names of the propositions attached to the state.
    pub props: Vec<String>,
}

/// One observed transition of an [`IncompleteSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotTransition {
    /// Index of the source state.
    pub from: usize,
    /// Input signal names of the label.
    pub inputs: Vec<String>,
    /// Output signal names of the label.
    pub outputs: Vec<String>,
    /// Index of the target state.
    pub to: usize,
}

/// One recorded refusal of an [`IncompleteSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRefusal {
    /// Index of the refusing state.
    pub state: usize,
    /// Input signal names of the refused label.
    pub inputs: Vec<String>,
    /// Output signal names of the refused label.
    pub outputs: Vec<String>,
}

/// An incomplete automaton (Definition 6).
///
/// States carry names (matching the monitoring instrumentation of the legacy
/// component) and propositions. All transitions are concrete labels — only
/// actually observed behaviour is recorded.
#[derive(Debug, Clone)]
pub struct IncompleteAutomaton {
    universe: Universe,
    name: String,
    inputs: SignalSet,
    outputs: SignalSet,
    state_names: Vec<String>,
    state_props: Vec<PropSet>,
    /// `T`: observed transitions, per state.
    transitions: Vec<Vec<(Label, StateId)>>,
    /// `T̄`: observed refusals, per state.
    refused: Vec<Vec<Label>>,
    initial: Vec<StateId>,
    index: HashMap<String, StateId>,
    /// Knowledge accumulated since the last [`Self::take_delta`].
    delta: LearnDelta,
}

impl IncompleteAutomaton {
    /// Creates the *trivial* incomplete automaton of Lemma 4:
    /// `M_l^0 = ({s₀}, I, O, ∅, ∅, {s₀})` capturing only the known initial
    /// state of the legacy component.
    pub fn trivial(
        u: &Universe,
        name: &str,
        inputs: SignalSet,
        outputs: SignalSet,
        initial_state: &str,
    ) -> Self {
        let mut m = IncompleteAutomaton {
            universe: u.clone(),
            name: name.to_owned(),
            inputs,
            outputs,
            state_names: Vec::new(),
            state_props: Vec::new(),
            transitions: Vec::new(),
            refused: Vec::new(),
            initial: Vec::new(),
            index: HashMap::new(),
            delta: LearnDelta::default(),
        };
        let s0 = m.intern_state(initial_state);
        m.initial.push(s0);
        // The birth of the abstraction is not an increment over anything.
        m.delta = LearnDelta::default();
        m
    }

    fn intern_state(&mut self, name: &str) -> StateId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = StateId(self.state_names.len() as u32);
        self.state_names.push(name.to_owned());
        self.state_props.push(PropSet::EMPTY);
        self.transitions.push(Vec::new());
        self.refused.push(Vec::new());
        self.index.insert(name.to_owned(), id);
        self.delta.new_states += 1;
        self.delta.mark(id);
        id
    }

    /// Drains and returns the knowledge accumulated since the previous call
    /// (or since construction). The returned delta has `dirty` sorted and
    /// deduplicated.
    pub fn take_delta(&mut self) -> LearnDelta {
        let mut d = std::mem::take(&mut self.delta);
        d.dirty.sort_unstable();
        d.dirty.dedup();
        d
    }

    /// The universe this automaton was built against.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The automaton name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input signals `I`.
    pub fn inputs(&self) -> SignalSet {
        self.inputs
    }

    /// Output signals `O`.
    pub fn outputs(&self) -> SignalSet {
        self.outputs
    }

    /// Number of states learned so far.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Number of observed transitions `|T|`.
    pub fn transition_count(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Number of recorded refusals `|T̄|`.
    pub fn refusal_count(&self) -> usize {
        self.refused.iter().map(Vec::len).sum()
    }

    /// Looks up a state by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.index.get(name).copied()
    }

    /// The name of state `s`.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.index()]
    }

    /// Observed transitions leaving `s`.
    pub fn transitions_from(&self, s: StateId) -> &[(Label, StateId)] {
        &self.transitions[s.index()]
    }

    /// Recorded refusals at `s`.
    pub fn refusals_at(&self, s: StateId) -> &[Label] {
        &self.refused[s.index()]
    }

    /// Initial states `Q`.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// Attaches a proposition to a state by name (used to carry the pattern
    /// constraint's atomic propositions onto monitored legacy states).
    pub fn set_prop(&mut self, state: &str, prop: crate::PropId) {
        let id = self.intern_state(state);
        // Only an actual change dirties the state — the loop re-applies the
        // same proposition map every iteration and that must stay a no-op
        // for the incremental cache.
        if !self.state_props[id.index()].contains(prop) {
            self.state_props[id.index()].insert(prop);
            self.delta.mark(id);
        }
    }

    /// The propositions of state `s`.
    pub fn props_of(&self, s: StateId) -> PropSet {
        self.state_props[s.index()]
    }

    /// Whether the incomplete automaton is deterministic (Section 2.6): at
    /// most one entry in `T ∪ T̄` per `(s, A, B)`.
    pub fn is_deterministic(&self) -> bool {
        for (s, ts) in self.transitions.iter().enumerate() {
            for (i, (l, _)) in ts.iter().enumerate() {
                if ts[i + 1..].iter().any(|(l2, _)| l2 == l) {
                    return false;
                }
                if self.refused[s].contains(l) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the automaton is *complete* (Section 2.6): every interaction
    /// at every state is either in `T` or in `T̄`.
    pub fn is_complete(&self) -> bool {
        let total = 1u128
            .checked_shl((self.inputs.len() + self.outputs.len()) as u32)
            .unwrap_or(u128::MAX);
        for s in 0..self.state_names.len() {
            let covered = self.transitions[s].len() as u128 + self.refused[s].len() as u128;
            if covered < total {
                return false;
            }
        }
        true
    }

    /// Learns an observation (Definition 11 for regular runs, Definition 12
    /// for blocked runs). New states and transitions are added to `T`, a
    /// blocked final interaction to `T̄`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InconsistentIncomplete`] if the observation
    /// contradicts recorded knowledge (an interaction both refused and
    /// observed) — with a deterministic component this indicates a broken
    /// monitoring setup.
    pub fn learn(&mut self, obs: &Observation) -> Result<()> {
        let steps = if obs.blocked {
            obs.labels.len().saturating_sub(1)
        } else {
            obs.labels.len()
        };
        // First pass: consistency.
        for i in 0..steps {
            if let Some(&from) = self.index.get(&obs.states[i]) {
                if self.refused[from.index()].contains(&obs.labels[i]) {
                    return Err(AutomataError::InconsistentIncomplete {
                        state: obs.states[i].clone(),
                    });
                }
            }
        }
        if obs.blocked {
            let last_name = obs.states.last().expect("observations are nonempty");
            let blocked_label = *obs
                .labels
                .last()
                .expect("blocked observations have a label");
            if let Some(&s) = self.index.get(last_name) {
                if self.transitions[s.index()]
                    .iter()
                    .any(|(l, _)| *l == blocked_label)
                {
                    return Err(AutomataError::InconsistentIncomplete {
                        state: last_name.clone(),
                    });
                }
            }
        }
        // Second pass: merge.
        let first = self.intern_state(&obs.states[0]);
        if !self.initial.contains(&first) {
            self.initial.push(first);
            self.delta.initial_changed = true;
        }
        for i in 0..steps {
            let from = self.intern_state(&obs.states[i]);
            let to = self.intern_state(&obs.states[i + 1]);
            let entry = (obs.labels[i], to);
            if !self.transitions[from.index()].contains(&entry) {
                self.transitions[from.index()].push(entry);
                self.delta.new_transitions += 1;
                self.delta.mark(from);
            }
        }
        if obs.blocked {
            let last = self.intern_state(obs.states.last().expect("nonempty"));
            let blocked_label = *obs
                .labels
                .last()
                .expect("blocked observations have a label");
            if !self.refused[last.index()].contains(&blocked_label) {
                self.refused[last.index()].push(blocked_label);
                self.delta.new_refusals += 1;
                self.delta.mark(last);
            }
        }
        Ok(())
    }

    /// Observation conformance (Definition 10): every run of this incomplete
    /// automaton — including its state names — is a run of `reference`.
    ///
    /// States are matched by name. Used to validate Theorem 1 in tests.
    pub fn observation_conforming(&self, reference: &Automaton) -> bool {
        // Initial states must be initial in the reference.
        for &q in &self.initial {
            match reference.find_state(&self.state_names[q.index()]) {
                Some(r) if reference.initial_states().contains(&r) => {}
                _ => return false,
            }
        }
        for (s, ts) in self.transitions.iter().enumerate() {
            let rs = match reference.find_state(&self.state_names[s]) {
                Some(r) => r,
                None => return false,
            };
            for (l, to) in ts {
                let rto = match reference.find_state(&self.state_names[to.index()]) {
                    Some(r) => r,
                    None => return false,
                };
                if !reference
                    .transitions_from(rs)
                    .iter()
                    .any(|t| reference.guard(t.guard).admits(*l) && t.to == rto)
                {
                    return false;
                }
            }
            // Refusals: the reference must also block the interaction.
            for l in &self.refused[s] {
                if reference.enables(rs, *l) {
                    return false;
                }
            }
        }
        true
    }

    /// Captures the full learned knowledge as a plain-data, name-based
    /// [`IncompleteSnapshot`] suitable for persistence.
    ///
    /// States appear in state-id order, transitions and refusals in their
    /// per-state recording order, so
    /// [`from_snapshot`](Self::from_snapshot) reconstructs an automaton
    /// whose products are bit-identical to this one's. Signal and
    /// proposition ids are rendered to names — snapshots survive universes
    /// with different interning orders.
    pub fn to_snapshot(&self) -> IncompleteSnapshot {
        let names = |set: SignalSet| -> Vec<String> {
            set.iter().map(|s| self.universe.signal_name(s)).collect()
        };
        let states = self
            .state_names
            .iter()
            .zip(&self.state_props)
            .map(|(n, &p)| SnapshotState {
                name: n.clone(),
                props: p.iter().map(|q| self.universe.prop_name(q)).collect(),
            })
            .collect();
        let mut transitions = Vec::with_capacity(self.transition_count());
        for (from, ts) in self.transitions.iter().enumerate() {
            for (l, to) in ts {
                transitions.push(SnapshotTransition {
                    from,
                    inputs: names(l.inputs),
                    outputs: names(l.outputs),
                    to: to.index(),
                });
            }
        }
        let mut refusals = Vec::with_capacity(self.refusal_count());
        for (state, ls) in self.refused.iter().enumerate() {
            for l in ls {
                refusals.push(SnapshotRefusal {
                    state,
                    inputs: names(l.inputs),
                    outputs: names(l.outputs),
                });
            }
        }
        IncompleteSnapshot {
            name: self.name.clone(),
            inputs: names(self.inputs),
            outputs: names(self.outputs),
            states,
            transitions,
            refusals,
            initial: self.initial.iter().map(|s| s.index()).collect(),
        }
    }

    /// Reconstructs an automaton from a snapshot, interning its signal and
    /// proposition names into `u`.
    ///
    /// States are recreated in the exact order the snapshot lists them, and
    /// the pending [`LearnDelta`] is empty — restoring is a birth, not an
    /// increment — so a restored abstraction composes bit-identically to
    /// the one that was snapshotted. (This deliberately bypasses
    /// [`learn`](Self::learn), which would add every trace head to the
    /// initial set and renumber states in trace order.)
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::MalformedSnapshot`] on duplicate state
    /// names or out-of-range state indices.
    pub fn from_snapshot(u: &Universe, snap: &IncompleteSnapshot) -> Result<Self> {
        let set = |names: &[String]| -> SignalSet { names.iter().map(|n| u.signal(n)).collect() };
        let malformed = |detail: String| AutomataError::MalformedSnapshot { detail };
        let mut m = IncompleteAutomaton {
            universe: u.clone(),
            name: snap.name.clone(),
            inputs: set(&snap.inputs),
            outputs: set(&snap.outputs),
            state_names: Vec::with_capacity(snap.states.len()),
            state_props: Vec::with_capacity(snap.states.len()),
            transitions: vec![Vec::new(); snap.states.len()],
            refused: vec![Vec::new(); snap.states.len()],
            initial: Vec::new(),
            index: HashMap::new(),
            delta: LearnDelta::default(),
        };
        for (i, s) in snap.states.iter().enumerate() {
            let id = StateId(i as u32);
            if m.index.insert(s.name.clone(), id).is_some() {
                return Err(malformed(format!("duplicate state name `{}`", s.name)));
            }
            m.state_names.push(s.name.clone());
            let mut props = PropSet::EMPTY;
            for p in &s.props {
                props.insert(u.prop(p));
            }
            m.state_props.push(props);
        }
        let check = |i: usize, what: &str| -> Result<StateId> {
            if i >= snap.states.len() {
                return Err(malformed(format!(
                    "{what} index {i} out of range ({} states)",
                    snap.states.len()
                )));
            }
            Ok(StateId(i as u32))
        };
        for t in &snap.transitions {
            let from = check(t.from, "transition source")?;
            let to = check(t.to, "transition target")?;
            let label = Label::new(set(&t.inputs), set(&t.outputs));
            m.transitions[from.index()].push((label, to));
        }
        for r in &snap.refusals {
            let state = check(r.state, "refusal")?;
            m.refused[state.index()].push(Label::new(set(&r.inputs), set(&r.outputs)));
        }
        if snap.initial.is_empty() {
            return Err(malformed("empty initial-state set".to_owned()));
        }
        for &i in &snap.initial {
            m.initial.push(check(i, "initial state")?);
        }
        Ok(m)
    }

    /// Converts the *known* part (T only) into a plain [`Automaton`].
    ///
    /// Deadlock runs from `T̄` are not representable in a plain automaton;
    /// use [`crate::chaotic_closure`] for the safe abstraction.
    pub fn known_automaton(&self) -> Automaton {
        let states = self
            .state_names
            .iter()
            .zip(&self.state_props)
            .map(|(n, &p)| crate::automaton::StateData {
                name: n.clone(),
                props: p,
            })
            .collect();
        let mut guards = crate::label::GuardTable::default();
        let adj = self
            .transitions
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|(l, to)| crate::automaton::Transition {
                        guard: guards.intern(crate::label::Guard::Exact(*l)),
                        to: *to,
                    })
                    .collect()
            })
            .collect();
        Automaton::from_rows(
            self.universe.clone(),
            self.name.clone(),
            (self.inputs, self.outputs),
            states,
            (guards, adj),
            self.initial.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(u: &Universe, ins: &[&str], outs: &[&str]) -> Label {
        Label::new(
            ins.iter().map(|n| u.signal(n)).collect(),
            outs.iter().map(|n| u.signal(n)).collect(),
        )
    }

    fn setup() -> (Universe, IncompleteAutomaton) {
        let u = Universe::new();
        let inputs = u.signals(["start", "reject"]);
        let outputs = u.signals(["propose"]);
        let m = IncompleteAutomaton::trivial(&u, "legacy", inputs, outputs, "noConvoy");
        (u, m)
    }

    #[test]
    fn trivial_has_one_state_no_transitions() {
        let (_, m) = setup();
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.transition_count(), 0);
        assert_eq!(m.refusal_count(), 0);
        assert_eq!(m.initial_states().len(), 1);
        assert_eq!(m.state_name(StateId(0)), "noConvoy");
        assert!(m.is_deterministic());
        assert!(!m.is_complete());
    }

    #[test]
    fn learn_regular_run_adds_states_and_transitions() {
        let (u, mut m) = setup();
        let obs = Observation::regular(
            vec!["noConvoy".into(), "wait".into(), "convoy".into()],
            vec![label(&u, &[], &["propose"]), label(&u, &["start"], &[])],
        );
        m.learn(&obs).unwrap();
        assert_eq!(m.state_count(), 3);
        assert_eq!(m.transition_count(), 2);
        let s = m.find_state("noConvoy").unwrap();
        assert_eq!(m.transitions_from(s).len(), 1);
        // learning the same run again is idempotent
        m.learn(&obs).unwrap();
        assert_eq!(m.state_count(), 3);
        assert_eq!(m.transition_count(), 2);
    }

    #[test]
    fn learn_blocked_run_adds_refusal() {
        let (u, mut m) = setup();
        let obs = Observation::blocked(vec!["noConvoy".into()], vec![label(&u, &["reject"], &[])]);
        m.learn(&obs).unwrap();
        assert_eq!(m.refusal_count(), 1);
        let s = m.find_state("noConvoy").unwrap();
        assert_eq!(m.refusals_at(s), &[label(&u, &["reject"], &[])]);
        assert!(m.is_deterministic());
    }

    #[test]
    fn inconsistent_observation_is_rejected() {
        let (u, mut m) = setup();
        let l = label(&u, &["reject"], &[]);
        m.learn(&Observation::blocked(vec!["noConvoy".into()], vec![l]))
            .unwrap();
        // Now observing that same interaction succeed contradicts T̄.
        let err = m
            .learn(&Observation::regular(
                vec!["noConvoy".into(), "x".into()],
                vec![l],
            ))
            .unwrap_err();
        assert!(matches!(err, AutomataError::InconsistentIncomplete { .. }));
    }

    #[test]
    fn inconsistent_refusal_is_rejected() {
        let (u, mut m) = setup();
        let l = label(&u, &[], &["propose"]);
        m.learn(&Observation::regular(
            vec!["noConvoy".into(), "wait".into()],
            vec![l],
        ))
        .unwrap();
        let err = m
            .learn(&Observation::blocked(vec!["noConvoy".into()], vec![l]))
            .unwrap_err();
        assert!(matches!(err, AutomataError::InconsistentIncomplete { .. }));
    }

    #[test]
    fn conformance_against_reference() {
        let (u, mut m) = setup();
        let reference = crate::AutomatonBuilder::new(&u, "real")
            .inputs(["start", "reject"])
            .output("propose")
            .state("noConvoy")
            .initial("noConvoy")
            .state("wait")
            .transition("noConvoy", [], ["propose"], "wait")
            .transition("wait", ["start"], [], "noConvoy")
            .build()
            .unwrap();
        assert!(m.observation_conforming(&reference));
        m.learn(&Observation::regular(
            vec!["noConvoy".into(), "wait".into()],
            vec![label(&u, &[], &["propose"])],
        ))
        .unwrap();
        assert!(m.observation_conforming(&reference));
        // A refusal the reference does not share breaks conformance.
        let mut m2 = m.clone();
        m2.learn(&Observation::blocked(
            vec!["noConvoy".into()],
            vec![label(&u, &[], &["propose"])],
        ))
        .unwrap_err(); // also inconsistent with own T — use a fresh label
        let mut m3 = m.clone();
        m3.learn(&Observation::blocked(
            vec!["wait".into()],
            vec![label(&u, &["start"], &[])],
        ))
        .unwrap();
        assert!(!m3.observation_conforming(&reference));
    }

    #[test]
    fn known_automaton_reflects_t_only() {
        let (u, mut m) = setup();
        m.learn(&Observation::regular(
            vec!["noConvoy".into(), "wait".into()],
            vec![label(&u, &[], &["propose"])],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["wait".into()],
            vec![label(&u, &["reject"], &[])],
        ))
        .unwrap();
        let a = m.known_automaton();
        assert_eq!(a.state_count(), 2);
        assert_eq!(a.transition_count(), 1);
        a.validate().unwrap();
    }

    #[test]
    fn take_delta_tracks_learned_knowledge() {
        let (u, mut m) = setup();
        // Construction itself is not an increment.
        assert!(m.take_delta().is_empty());
        let obs = Observation::regular(
            vec!["noConvoy".into(), "wait".into(), "convoy".into()],
            vec![label(&u, &[], &["propose"]), label(&u, &["start"], &[])],
        );
        m.learn(&obs).unwrap();
        let d = m.take_delta();
        assert_eq!(d.new_states, 2);
        assert_eq!(d.new_transitions, 2);
        assert_eq!(d.new_refusals, 0);
        assert!(!d.initial_changed);
        // noConvoy gained a transition; wait and convoy are new states.
        assert_eq!(d.dirty, vec![StateId(0), StateId(1), StateId(2)]);
        // Draining resets; re-learning the same run is delta-empty.
        m.learn(&obs).unwrap();
        assert!(m.take_delta().is_empty());
        // A refusal dirties exactly the refusing state.
        m.learn(&Observation::blocked(
            vec!["convoy".into()],
            vec![label(&u, &["reject"], &[])],
        ))
        .unwrap();
        let d = m.take_delta();
        assert_eq!((d.new_states, d.new_transitions, d.new_refusals), (0, 0, 1));
        assert_eq!(d.dirty, vec![StateId(2)]);
    }

    #[test]
    fn set_prop_is_dirty_only_on_change() {
        let (u, mut m) = setup();
        let p = u.prop("marked");
        m.set_prop("noConvoy", p);
        let d = m.take_delta();
        assert_eq!(d.dirty, vec![StateId(0)]);
        assert!(!d.is_empty());
        // Re-applying the same proposition map must be a no-op.
        m.set_prop("noConvoy", p);
        assert!(m.take_delta().is_empty());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (u, mut m) = setup();
        m.learn(&Observation::regular(
            vec!["noConvoy".into(), "wait".into(), "convoy".into()],
            vec![label(&u, &[], &["propose"]), label(&u, &["start"], &[])],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["convoy".into()],
            vec![label(&u, &["reject"], &[])],
        ))
        .unwrap();
        m.set_prop("wait", u.prop("marked"));
        let snap = m.to_snapshot();

        // Restore into a *fresh* universe with a different interning order.
        let u2 = Universe::new();
        u2.signal("unrelated-first");
        u2.prop("other");
        let mut r = IncompleteAutomaton::from_snapshot(&u2, &snap).unwrap();
        assert_eq!(r.state_count(), m.state_count());
        assert_eq!(r.transition_count(), m.transition_count());
        assert_eq!(r.refusal_count(), m.refusal_count());
        // State ids line up positionally.
        for s in 0..m.state_count() {
            let id = StateId(s as u32);
            assert_eq!(r.state_name(id), m.state_name(id));
            assert_eq!(
                r.transitions_from(id).len(),
                m.transitions_from(id).len(),
                "state {s}"
            );
        }
        assert_eq!(r.initial_states(), m.initial_states());
        let wait = r.find_state("wait").unwrap();
        assert!(r.props_of(wait).contains(u2.prop("marked")));
        // Restoring is a birth, not an increment.
        assert!(r.take_delta().is_empty());
        // Re-snapshotting the restored automaton is a fixed point.
        assert_eq!(r.to_snapshot(), snap);
    }

    #[test]
    fn from_snapshot_rejects_malformed_data() {
        let (_, m) = setup();
        let good = m.to_snapshot();
        let u = Universe::new();

        let mut bad = good.clone();
        bad.initial = vec![7];
        let err = IncompleteAutomaton::from_snapshot(&u, &bad).unwrap_err();
        assert!(matches!(err, AutomataError::MalformedSnapshot { .. }));

        let mut bad = good.clone();
        bad.initial.clear();
        assert!(IncompleteAutomaton::from_snapshot(&u, &bad).is_err());

        let mut bad = good.clone();
        bad.states.push(SnapshotState {
            name: "noConvoy".into(),
            props: vec![],
        });
        assert!(IncompleteAutomaton::from_snapshot(&u, &bad).is_err());

        let mut bad = good.clone();
        bad.transitions.push(SnapshotTransition {
            from: 0,
            inputs: vec![],
            outputs: vec![],
            to: 99,
        });
        assert!(IncompleteAutomaton::from_snapshot(&u, &bad).is_err());

        let mut bad = good;
        bad.refusals.push(SnapshotRefusal {
            state: 42,
            inputs: vec![],
            outputs: vec![],
        });
        assert!(IncompleteAutomaton::from_snapshot(&u, &bad).is_err());
    }

    #[test]
    fn restored_automaton_keeps_learning() {
        let (u, mut m) = setup();
        m.learn(&Observation::regular(
            vec!["noConvoy".into(), "wait".into()],
            vec![label(&u, &[], &["propose"])],
        ))
        .unwrap();
        let mut r = IncompleteAutomaton::from_snapshot(&u, &m.to_snapshot()).unwrap();
        r.learn(&Observation::blocked(
            vec!["wait".into()],
            vec![label(&u, &["reject"], &[])],
        ))
        .unwrap();
        let d = r.take_delta();
        assert_eq!(d.new_refusals, 1);
        assert_eq!(d.dirty, vec![StateId(1)]);
        assert!(r.is_deterministic());
    }

    #[test]
    fn completeness_of_tiny_interface() {
        let u = Universe::new();
        let i = u.signals(["a"]);
        let mut m = IncompleteAutomaton::trivial(&u, "t", i, SignalSet::EMPTY, "s");
        assert!(!m.is_complete());
        // interface has 2 interactions: {}/{} and {a}/{}
        m.learn(&Observation::regular(
            vec!["s".into(), "s".into()],
            vec![Label::EMPTY],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["s".into()],
            vec![label(&u, &["a"], &[])],
        ))
        .unwrap();
        assert!(m.is_complete());
    }
}
