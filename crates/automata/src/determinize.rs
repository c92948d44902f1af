//! Determinization by subset construction.
//!
//! The abstractions the method manipulates (role protocols with internal
//! choice, chaotic closures) are nondeterministic; some consumers — e.g.
//! deriving a [`HiddenMealy`-style interpreter](crate::Automaton) or
//! comparing trace languages — need a deterministic automaton. The subset
//! construction preserves the *trace* language (not refusals: a
//! determinized automaton generally has fewer deadlock runs, so it is an
//! abstraction only in the trace sense — documented here because the
//! refinement `⊑` of Definition 4 is refusal-sensitive).

use std::collections::HashMap;

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardTable, Label};
use crate::prop::PropSet;

/// Options for [`determinize`].
#[derive(Debug, Clone)]
pub struct DeterminizeOptions {
    /// Cap on expanding symbolic guards.
    pub expand_cap: usize,
    /// Cap on subset states.
    pub max_states: usize,
}

impl Default for DeterminizeOptions {
    fn default() -> Self {
        DeterminizeOptions {
            expand_cap: 16,
            max_states: 1_000_000,
        }
    }
}

/// Determinizes `m` by subset construction. Subset states are named by
/// joining member names with `|`; their proposition set is the **union**
/// of the members' (the standard possibilistic reading).
///
/// # Examples
///
/// ```
/// use muml_automata::{AutomatonBuilder, Universe, determinize};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "m")
///     .input("a")
///     .state("s0").initial("s0")
///     .state("s1").state("s2")
///     .transition("s0", ["a"], [], "s1")
///     .transition("s0", ["a"], [], "s2")
///     .build()?;
/// assert!(!m.is_deterministic());
/// let d = determinize(&m)?;
/// assert!(d.is_deterministic());
/// assert!(d.find_state("s1|s2").is_some());
/// # Ok::<(), muml_automata::AutomataError>(())
/// ```
///
/// # Errors
///
/// * [`AutomataError::FreeSignalOverflow`] when symbolic guards exceed the
///   expansion cap.
/// * [`AutomataError::Limit`] when the powerset exceeds `max_states`.
pub fn determinize(m: &Automaton) -> Result<Automaton> {
    determinize_with(m, &DeterminizeOptions::default())
}

/// See [`determinize`].
///
/// # Errors
///
/// See [`determinize`].
pub fn determinize_with(m: &Automaton, opts: &DeterminizeOptions) -> Result<Automaton> {
    let mut subset_index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut states: Vec<StateData> = Vec::new();
    let mut members: Vec<Vec<StateId>> = Vec::new();
    let mut adj: Vec<Vec<Transition>> = Vec::new();
    let mut guards = GuardTable::default();
    let mut work: Vec<StateId> = Vec::new();

    let intern = |set: Vec<StateId>,
                  subset_index: &mut HashMap<Vec<StateId>, StateId>,
                  states: &mut Vec<StateData>,
                  members: &mut Vec<Vec<StateId>>,
                  adj: &mut Vec<Vec<Transition>>,
                  work: &mut Vec<StateId>|
     -> StateId {
        if let Some(&id) = subset_index.get(&set) {
            return id;
        }
        let id = StateId(states.len() as u32);
        let name = set
            .iter()
            .map(|&s| m.state_name(s))
            .collect::<Vec<_>>()
            .join("|");
        let props = set
            .iter()
            .fold(PropSet::EMPTY, |acc, &s| acc.union(m.props_of(s)));
        states.push(StateData { name, props });
        members.push(set.clone());
        adj.push(Vec::new());
        subset_index.insert(set, id);
        work.push(id);
        id
    };

    let mut init: Vec<StateId> = m.initial_states().to_vec();
    init.sort();
    init.dedup();
    let initial = intern(
        init,
        &mut subset_index,
        &mut states,
        &mut members,
        &mut adj,
        &mut work,
    );

    while let Some(id) = work.pop() {
        if states.len() > opts.max_states {
            return Err(AutomataError::Limit {
                what: "determinization powerset".into(),
                max: opts.max_states,
            });
        }
        let set = members[id.index()].clone();
        // Group successors by concrete label.
        let mut by_label: HashMap<Label, Vec<StateId>> = HashMap::new();
        for &s in &set {
            for t in m.transitions_from(s) {
                for l in m.guard(t.guard).enumerate(opts.expand_cap)? {
                    let succs = by_label.entry(l).or_default();
                    if !succs.contains(&t.to) {
                        succs.push(t.to);
                    }
                }
            }
        }
        let mut labels: Vec<Label> = by_label.keys().copied().collect();
        labels.sort();
        for l in labels {
            let mut succ = by_label.remove(&l).expect("key exists");
            succ.sort();
            succ.dedup();
            let target = intern(
                succ,
                &mut subset_index,
                &mut states,
                &mut members,
                &mut adj,
                &mut work,
            );
            adj[id.index()].push(Transition {
                guard: guards.intern(Guard::Exact(l)),
                to: target,
            });
        }
    }

    let out = Automaton::from_rows(
        m.universe().clone(),
        format!("{}~det", m.name()),
        (m.inputs(), m.outputs()),
        states,
        (guards, adj),
        vec![initial],
    );
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    #[test]
    fn already_deterministic_is_isomorphic() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", [], [], "s0")
            .build()
            .unwrap();
        let d = determinize(&m).unwrap();
        assert_eq!(d.state_count(), 2);
        assert!(d.is_deterministic());
    }

    #[test]
    fn nondeterministic_branch_becomes_subset() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .input("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", ["a"], [], "s2")
            .transition("s1", ["b"], [], "s1")
            .transition("s2", [], [], "s2")
            .build()
            .unwrap();
        assert!(!m.is_deterministic());
        let d = determinize(&m).unwrap();
        assert!(d.is_deterministic());
        // {s1, s2} is one subset state offering both continuations.
        let merged = d.find_state("s1|s2").unwrap();
        assert!(d.enables(
            merged,
            Label::new(u.signals(["b"]), crate::SignalSet::EMPTY)
        ));
        assert!(d.enables(merged, Label::EMPTY));
    }

    #[test]
    fn trace_language_is_preserved() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .initial("s1")
            .transition("s0", ["a"], [], "s0")
            .transition("s1", [], [], "s1")
            .build()
            .unwrap();
        let d = determinize(&m).unwrap();
        // every trace of m is a trace of d and vice versa (depth-bounded)
        for run in crate::run::enumerate_runs(&m, 3) {
            let mut cur: Vec<StateId> = d.initial_states().to_vec();
            for &l in run.trace() {
                cur = cur.iter().flat_map(|&s| d.successors(s, l)).collect();
                assert!(!cur.is_empty(), "trace lost in determinization");
            }
        }
        for run in crate::run::enumerate_runs(&d, 3) {
            let mut cur: Vec<StateId> = m.initial_states().to_vec();
            for &l in run.trace() {
                cur = cur.iter().flat_map(|&s| m.successors(s, l)).collect();
                assert!(!cur.is_empty(), "determinization invented a trace");
            }
        }
    }

    #[test]
    fn union_propositions() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("p1")
            .prop("p1", "x")
            .state("p2")
            .prop("p2", "y")
            .transition("s0", ["a"], [], "p1")
            .transition("s0", ["a"], [], "p2")
            .build()
            .unwrap();
        let d = determinize(&m).unwrap();
        let merged = d.find_state("p1|p2").unwrap();
        assert!(d.props_of(merged).contains(u.prop("x")));
        assert!(d.props_of(merged).contains(u.prop("y")));
    }
}
