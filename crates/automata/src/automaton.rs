//! The core automaton type (Definition 1 of the paper, extended with the
//! state labelling of Section 2.1).
//!
//! An automaton is a 6-tuple `M = (S, I, O, T, L, Q)`: finite states `S`,
//! input signals `I`, output signals `O`, transitions
//! `T ⊆ S × ℘(I) × ℘(O) × S`, labelling `L : S → ℘(P)`, and initial states
//! `Q`. Time semantics: every transition takes exactly one time unit.

use std::fmt;

use crate::error::{AutomataError, Result};
use crate::label::{Guard, Label};
use crate::prop::PropSet;
use crate::signal::SignalSet;
use crate::universe::Universe;

/// Index of a state within one [`Automaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-state data: a display name and the atomic propositions holding in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateData {
    /// Human-readable name (e.g. `noConvoy::default`).
    pub name: String,
    /// The labelling `L(s)`.
    pub props: PropSet,
}

/// An outgoing transition: a [`Guard`] (one label or a symbolic family) and
/// the target state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The label(s) on which this transition fires.
    pub guard: Guard,
    /// The successor state.
    pub to: StateId,
}

/// A finite discrete-time I/O automaton with state labelling.
///
/// Construct via [`AutomatonBuilder`](crate::AutomatonBuilder). The struct is
/// immutable after construction; all kernel operations
/// ([`compose`](crate::compose), [`refines`](crate::refines),
/// [`chaotic_closure`](crate::chaotic_closure), …) produce new automata.
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, AutomatonBuilder};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "front")
///     .input("proposal")
///     .output("accept")
///     .state("idle")
///     .initial("idle")
///     .state("busy")
///     .transition("idle", ["proposal"], [], "busy")
///     .transition("busy", [], ["accept"], "idle")
///     .build()
///     .unwrap();
/// assert_eq!(m.state_count(), 2);
/// assert!(m.is_deterministic());
/// ```
#[derive(Clone)]
pub struct Automaton {
    pub(crate) universe: Universe,
    pub(crate) name: String,
    pub(crate) inputs: SignalSet,
    pub(crate) outputs: SignalSet,
    pub(crate) states: Vec<StateData>,
    /// Outgoing adjacency: `adj[s]` are the transitions leaving state `s`.
    pub(crate) adj: Vec<Vec<Transition>>,
    pub(crate) initial: Vec<StateId>,
}

impl Automaton {
    /// The universe this automaton was built against.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The automaton's name (used in diagnostics and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input signal set `I`.
    pub fn inputs(&self) -> SignalSet {
        self.inputs
    }

    /// The output signal set `O`.
    pub fn outputs(&self) -> SignalSet {
        self.outputs
    }

    /// Number of states `|S|`.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Total number of transition entries (symbolic families count once).
    pub fn transition_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// The data of state `s`.
    pub fn state(&self, s: StateId) -> &StateData {
        &self.states[s.index()]
    }

    /// The display name of state `s`.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.states[s.index()].name
    }

    /// The labelling `L(s)`.
    pub fn props_of(&self, s: StateId) -> PropSet {
        self.states[s.index()].props
    }

    /// Looks up a state id by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|d| d.name == name)
            .map(|i| StateId(i as u32))
    }

    /// The initial state set `Q`.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// The outgoing transitions of state `s`.
    pub fn transitions_from(&self, s: StateId) -> &[Transition] {
        &self.adj[s.index()]
    }

    /// Iterates over all `(source, transition)` pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &Transition)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(i, ts)| ts.iter().map(move |t| (StateId(i as u32), t)))
    }

    /// Returns `true` if state `s` enables the concrete label `(A, B)`, i.e.
    /// a transition `(s, A, B, s')` exists.
    pub fn enables(&self, s: StateId, label: Label) -> bool {
        self.adj[s.index()].iter().any(|t| t.guard.admits(label))
    }

    /// All successor states of `s` under the concrete label `(A, B)`.
    pub fn successors(&self, s: StateId, label: Label) -> Vec<StateId> {
        self.adj[s.index()]
            .iter()
            .filter(|t| t.guard.admits(label))
            .map(|t| t.to)
            .collect()
    }

    /// Returns `true` if `s` has no outgoing transition at all — a deadlock
    /// state in the sense used for the `δ` predicate.
    pub fn is_deadlock(&self, s: StateId) -> bool {
        self.adj[s.index()].iter().all(|t| match &t.guard {
            Guard::Exact(_) => false,
            Guard::Family(f) => f.is_empty(),
        })
    }

    /// Whether the automaton is deterministic: for any state and concrete
    /// label there is at most one successor, and there is exactly one
    /// initial state.
    ///
    /// Symbolic guards are compared pairwise via box intersection, so the
    /// check is exact without enumerating label families.
    pub fn is_deterministic(&self) -> bool {
        self.determinism_violation().is_none()
    }

    /// If the automaton is nondeterministic, returns the offending state.
    pub fn determinism_violation(&self) -> Option<StateId> {
        if self.initial.len() != 1 {
            return self.initial.first().copied().or(Some(StateId(0)));
        }
        for (i, ts) in self.adj.iter().enumerate() {
            for (a, ta) in ts.iter().enumerate() {
                for tb in &ts[a + 1..] {
                    if ta.to == tb.to && ta.guard == tb.guard {
                        continue; // duplicate entry, harmless
                    }
                    let fa = ta.guard.to_family();
                    let fb = tb.guard.to_family();
                    if let Some(ix) = fa.intersect(&fb) {
                        if !ix.is_empty() {
                            return Some(StateId(i as u32));
                        }
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if every transition guard is an exact label.
    pub fn is_concrete(&self) -> bool {
        self.adj
            .iter()
            .flatten()
            .all(|t| matches!(t.guard, Guard::Exact(_)))
    }

    /// The union of all propositions used in any state labelling — the label
    /// set `𝓛(M)` of Section 2.1.
    pub fn prop_support(&self) -> PropSet {
        self.states
            .iter()
            .fold(PropSet::EMPTY, |acc, d| acc.union(d.props))
    }

    /// Checks composability with `other`: `I ∩ I' = ∅` and `O ∩ O' = ∅`
    /// (Section 2).
    pub fn composable_with(&self, other: &Automaton) -> bool {
        self.inputs.is_disjoint(other.inputs) && self.outputs.is_disjoint(other.outputs)
    }

    /// Checks orthogonality with `other`: composable and additionally
    /// `I ∩ O' = ∅` and `O ∩ I' = ∅` (no communication at all).
    pub fn orthogonal_to(&self, other: &Automaton) -> bool {
        self.composable_with(other)
            && self.inputs.is_disjoint(other.outputs)
            && self.outputs.is_disjoint(other.inputs)
    }

    /// Returns the set of states reachable from `Q`.
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = self.initial.clone();
        let mut out = Vec::new();
        for &s in &self.initial {
            seen[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            out.push(s);
            for t in &self.adj[s.index()] {
                if !seen[t.to.index()] {
                    seen[t.to.index()] = true;
                    stack.push(t.to);
                }
            }
        }
        out.sort();
        out
    }

    /// Produces a copy containing only the reachable part of the automaton
    /// (Definition 3 requires composition results to be trimmed this way).
    #[must_use]
    pub fn trim(&self) -> Automaton {
        let reach = self.reachable_states();
        let mut remap = vec![None; self.states.len()];
        for (new, &old) in reach.iter().enumerate() {
            remap[old.index()] = Some(StateId(new as u32));
        }
        let states = reach
            .iter()
            .map(|&s| self.states[s.index()].clone())
            .collect();
        let adj = reach
            .iter()
            .map(|&s| {
                self.adj[s.index()]
                    .iter()
                    .map(|t| Transition {
                        guard: t.guard.clone(),
                        to: remap[t.to.index()].expect("target of reachable state is reachable"),
                    })
                    .collect()
            })
            .collect();
        let initial = self
            .initial
            .iter()
            .filter_map(|s| remap[s.index()])
            .collect();
        Automaton {
            universe: self.universe.clone(),
            name: self.name.clone(),
            inputs: self.inputs,
            outputs: self.outputs,
            states,
            adj,
            initial,
        }
    }

    /// Replaces the outgoing transitions of state `s`.
    ///
    /// Used to build one-step "slice" automata (e.g. the exact joint-step
    /// decision in `muml-core`'s frontier probing).
    ///
    /// # Panics
    ///
    /// Panics if a new transition leaves the declared interface or targets
    /// a missing state.
    pub fn replace_transitions(&mut self, s: StateId, transitions: Vec<Transition>) {
        for t in &transitions {
            assert!(
                t.to.index() < self.states.len(),
                "transition target out of range"
            );
            assert!(
                t.guard.input_support().is_subset(self.inputs)
                    && t.guard.output_support().is_subset(self.outputs),
                "transition guard leaves the declared interface"
            );
        }
        self.adj[s.index()] = transitions;
    }

    /// Internal validation: every guard stays within the declared interface,
    /// every target exists, and there is at least one initial state.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.initial.is_empty() {
            return Err(AutomataError::NoInitialState(self.name.clone()));
        }
        for (s, ts) in self.adj.iter().enumerate() {
            for t in ts {
                if t.to.index() >= self.states.len() {
                    return Err(AutomataError::UnknownState(format!(
                        "transition target #{} from state `{}`",
                        t.to.0, self.states[s].name
                    )));
                }
                if !t.guard.input_support().is_subset(self.inputs)
                    || !t.guard.output_support().is_subset(self.outputs)
                {
                    return Err(AutomataError::UndeclaredSignal {
                        automaton: self.name.clone(),
                        detail: format!(
                            "guard {} on state `{}` leaves interface",
                            t.guard, self.states[s].name
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Structural equality: the same universe, name and interface, the same
/// states (names and labels) with the same transition rows in the same
/// order, and the same initial states. Equal automata compose identically.
impl PartialEq for Automaton {
    fn eq(&self, other: &Automaton) -> bool {
        self.universe.same_as(&other.universe)
            && self.name == other.name
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.initial == other.initial
            && self.states == other.states
            && self.adj == other.adj
    }
}

impl Eq for Automaton {}

impl fmt::Debug for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Automaton")
            .field("name", &self.name)
            .field("states", &self.states.len())
            .field("transitions", &self.transition_count())
            .field("initial", &self.initial)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::label::LabelFamily;

    #[test]
    fn transitions_fit_in_64_bytes() {
        // Exact labels stay inline; the rare guard family is boxed.
        assert!(std::mem::size_of::<Guard>() <= 48);
        assert!(std::mem::size_of::<Transition>() <= 64);
    }

    fn two_state(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", [], ["b"], "s0")
            .build()
            .unwrap()
    }

    #[test]
    fn accessors() {
        let u = Universe::new();
        let m = two_state(&u);
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.transition_count(), 2);
        assert_eq!(m.name(), "m");
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        assert_eq!(m.initial_states(), &[s0]);
        assert_eq!(m.state_name(s1), "s1");
        assert!(m.find_state("nope").is_none());
    }

    #[test]
    fn enables_and_successors() {
        let u = Universe::new();
        let m = two_state(&u);
        let a = u.signal("a");
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        let l = Label::new(SignalSet::singleton(a), SignalSet::EMPTY);
        assert!(m.enables(s0, l));
        assert!(!m.enables(s1, l));
        assert_eq!(m.successors(s0, l), vec![s1]);
        assert!(m.successors(s0, Label::EMPTY).is_empty());
    }

    #[test]
    fn determinism_detection() {
        let u = Universe::new();
        let m = two_state(&u);
        assert!(m.is_deterministic());

        let nd = AutomatonBuilder::new(&u, "nd")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", ["a"], [], "s2")
            .build()
            .unwrap();
        assert!(!nd.is_deterministic());
        assert_eq!(nd.determinism_violation(), nd.find_state("s0"));
    }

    #[test]
    fn determinism_with_overlapping_families() {
        let u = Universe::new();
        let a = u.signal("a");
        let mut m = two_state(&u);
        // add a family transition on s0 that overlaps the exact one
        m.adj[0].push(Transition {
            guard: Guard::from(LabelFamily::all(SignalSet::singleton(a), SignalSet::EMPTY)),
            to: StateId(0),
        });
        assert!(!m.is_deterministic());
    }

    #[test]
    fn deadlock_detection() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "d")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("dead")
            .transition("s0", ["a"], [], "dead")
            .build()
            .unwrap();
        assert!(m.is_deadlock(m.find_state("dead").unwrap()));
        assert!(!m.is_deadlock(m.find_state("s0").unwrap()));
    }

    #[test]
    fn trim_removes_unreachable() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "t")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("island")
            .transition("island", ["a"], [], "s0")
            .build()
            .unwrap();
        assert_eq!(m.state_count(), 2);
        let t = m.trim();
        assert_eq!(t.state_count(), 1);
        assert_eq!(t.state_name(StateId(0)), "s0");
        t.validate().unwrap();
    }

    #[test]
    fn composability() {
        let u = Universe::new();
        let m1 = AutomatonBuilder::new(&u, "m1")
            .input("x")
            .output("y")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let m2 = AutomatonBuilder::new(&u, "m2")
            .input("y")
            .output("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let m3 = AutomatonBuilder::new(&u, "m3")
            .input("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(m1.composable_with(&m2));
        assert!(!m1.orthogonal_to(&m2));
        assert!(!m1.composable_with(&m3)); // shared input x
        let m4 = AutomatonBuilder::new(&u, "m4")
            .input("z")
            .output("w")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(m1.orthogonal_to(&m4));
    }

    #[test]
    fn prop_support_unions_labels() {
        let u = Universe::new();
        let p = u.prop("p");
        let q = u.prop("q");
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .prop("s0", "p")
            .state("s1")
            .prop("s1", "q")
            .build()
            .unwrap();
        assert!(m.prop_support().contains(p));
        assert!(m.prop_support().contains(q));
        assert_eq!(m.prop_support().len(), 2);
    }
}
