//! Runs and traces (Definition 2 / Definition 7 of the paper).
//!
//! A *regular run* is an alternating sequence of states and labels
//! `π = s₁, A₁/B₁, s₂, …` ending in a state; a *deadlock run* ends with an
//! interaction `Aₙ/Bₙ` that is blocked in the last state. The observable
//! *trace* `π|_{I/O}` is the label sequence; `π|_S` is the state sequence.

use crate::automaton::{Automaton, StateId};
use crate::label::Label;
use crate::universe::Universe;

/// Whether a run ends in a state (regular) or in a blocked interaction
/// (deadlock run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// `π = s₁, A₁/B₁, …, sₙ` — ends in a state.
    Regular,
    /// `π = s₁, A₁/B₁, …, sₙ, Aₙ/Bₙ` — the final interaction is blocked in
    /// `sₙ`.
    Deadlock,
}

/// A run of an automaton.
///
/// Invariants (checked by [`Run::regular`] / [`Run::deadlock`] and
/// [`Run::validate_in`]):
/// * regular: `states.len() == labels.len() + 1`
/// * deadlock: `states.len() == labels.len()` and the final label is blocked
///   in the final state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Run {
    /// The state sequence `π|_S`.
    pub states: Vec<StateId>,
    /// The label sequence; for a deadlock run the last label is the blocked
    /// interaction.
    pub labels: Vec<Label>,
    /// Regular or deadlock.
    pub kind: RunKind,
}

impl Run {
    /// Creates a regular run.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != labels.len() + 1` or `states` is empty.
    pub fn regular(states: Vec<StateId>, labels: Vec<Label>) -> Run {
        assert!(
            !states.is_empty() && states.len() == labels.len() + 1,
            "regular run shape: |states| = |labels| + 1"
        );
        Run {
            states,
            labels,
            kind: RunKind::Regular,
        }
    }

    /// Creates a deadlock run; the last element of `labels` is the blocked
    /// interaction attempted in the last state.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != labels.len()` or `states` is empty.
    pub fn deadlock(states: Vec<StateId>, labels: Vec<Label>) -> Run {
        assert!(
            !states.is_empty() && states.len() == labels.len(),
            "deadlock run shape: |states| = |labels|"
        );
        Run {
            states,
            labels,
            kind: RunKind::Deadlock,
        }
    }

    /// The observable trace `π|_{I/O}`.
    pub fn trace(&self) -> &[Label] {
        &self.labels
    }

    /// The state sequence `π|_S`.
    pub fn state_sequence(&self) -> &[StateId] {
        &self.states
    }

    /// The number of labels (time steps attempted).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the run contains no step.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The final state of the run.
    pub fn last_state(&self) -> StateId {
        *self.states.last().expect("runs are nonempty")
    }

    /// Checks that this run is actually a run of `m` (Definition 2): each
    /// step is a transition of `m`, the first state is initial, and for a
    /// deadlock run the last interaction is blocked.
    pub fn validate_in(&self, m: &Automaton) -> bool {
        if self.states.is_empty() {
            return false;
        }
        if !m.initial_states().contains(&self.states[0]) {
            return false;
        }
        let steps = match self.kind {
            RunKind::Regular => {
                if self.states.len() != self.labels.len() + 1 {
                    return false;
                }
                self.labels.len()
            }
            RunKind::Deadlock => {
                if self.states.len() != self.labels.len() {
                    return false;
                }
                self.labels.len().saturating_sub(1)
            }
        };
        for i in 0..steps {
            let ok = m
                .transitions_from(self.states[i])
                .iter()
                .any(|t| m.guard(t.guard).admits(self.labels[i]) && t.to == self.states[i + 1]);
            if !ok {
                return false;
            }
        }
        if self.kind == RunKind::Deadlock {
            let last = self.last_state();
            let blocked = *self.labels.last().expect("deadlock runs have a label");
            if m.enables(last, blocked) {
                return false;
            }
        }
        true
    }

    /// Renders the run in the style of the paper's listings, e.g.
    /// `noConvoy --{convoyProposal}/{}--> answer`.
    pub fn show(&self, m: &Automaton, u: &Universe) -> String {
        let mut out = String::new();
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(m.state_name(self.states[i]));
            out.push_str(" --");
            out.push_str(&l.show(u));
            if i + 1 < self.states.len() {
                out.push_str("--> ");
            } else {
                out.push_str("--> ⊥(blocked)");
            }
        }
        if self.kind == RunKind::Regular {
            if let Some(&last) = self.states.last() {
                out.push_str(m.state_name(last));
            }
        }
        out
    }
}

/// Enumerates all runs of `m` up to `depth` labels (regular runs only),
/// starting from every initial state. Intended for tests and small models;
/// the number of runs is exponential in `depth`.
///
/// Symbolic guards are expanded with a free-signal cap of 16.
pub fn enumerate_runs(m: &Automaton, depth: usize) -> Vec<Run> {
    let mut out = Vec::new();
    let mut frontier: Vec<(Vec<StateId>, Vec<Label>)> = m
        .initial_states()
        .iter()
        .map(|&s| (vec![s], Vec::new()))
        .collect();
    for (states, labels) in &frontier {
        out.push(Run::regular(states.clone(), labels.clone()));
    }
    for _ in 0..depth {
        let mut next = Vec::new();
        for (states, labels) in frontier {
            let s = *states.last().expect("nonempty");
            for t in m.transitions_from(s) {
                let concrete = m.guard(t.guard).enumerate(16).unwrap_or_default();
                for l in concrete {
                    let mut ns = states.clone();
                    ns.push(t.to);
                    let mut nl = labels.clone();
                    nl.push(l);
                    out.push(Run::regular(ns.clone(), nl.clone()));
                    next.push((ns, nl));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::signal::SignalSet;

    fn model(u: &Universe) -> Automaton {
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
    fn regular_run_validates() {
        let u = Universe::new();
        let m = model(&u);
        let a = u.signal("a");
        let b = u.signal("b");
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        let run = Run::regular(
            vec![s0, s1, s0],
            vec![
                Label::new(SignalSet::singleton(a), SignalSet::EMPTY),
                Label::new(SignalSet::EMPTY, SignalSet::singleton(b)),
            ],
        );
        assert!(run.validate_in(&m));
        assert_eq!(run.len(), 2);
        assert_eq!(run.last_state(), s0);
    }

    #[test]
    fn wrong_step_fails_validation() {
        let u = Universe::new();
        let m = model(&u);
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        // label empty, but s0 only enables {a}/{}
        let run = Run::regular(vec![s0, s1], vec![Label::EMPTY]);
        assert!(!run.validate_in(&m));
    }

    #[test]
    fn non_initial_start_fails_validation() {
        let u = Universe::new();
        let m = model(&u);
        let s1 = m.find_state("s1").unwrap();
        let run = Run::regular(vec![s1], vec![]);
        assert!(!run.validate_in(&m));
    }

    #[test]
    fn deadlock_run_requires_blocked_label() {
        let u = Universe::new();
        let m = model(&u);
        let a = u.signal("a");
        let s0 = m.find_state("s0").unwrap();
        // {}/{} is blocked in s0 → valid deadlock run
        let run = Run::deadlock(vec![s0], vec![Label::EMPTY]);
        assert!(run.validate_in(&m));
        // {a}/{} is enabled in s0 → not a deadlock run
        let run = Run::deadlock(
            vec![s0],
            vec![Label::new(SignalSet::singleton(a), SignalSet::EMPTY)],
        );
        assert!(!run.validate_in(&m));
    }

    #[test]
    fn enumerate_runs_counts() {
        let u = Universe::new();
        let m = model(&u);
        // depth 0: just the empty run; depth 2: empty, 1-step, 2-step
        assert_eq!(enumerate_runs(&m, 0).len(), 1);
        assert_eq!(enumerate_runs(&m, 2).len(), 3);
        for r in enumerate_runs(&m, 4) {
            assert!(r.validate_in(&m));
        }
    }

    #[test]
    #[should_panic(expected = "regular run shape")]
    fn regular_shape_enforced() {
        let _ = Run::regular(vec![StateId(0)], vec![Label::EMPTY]);
    }
}
