//! Witness extraction for *existential* properties.
//!
//! Counterexamples ([`crate::check`]) witness the violation of universal
//! properties; this module produces the dual artefact — a finite run
//! demonstrating that an existential property *holds*:
//!
//! * `EF ψ` — a shortest path to a state satisfying ψ;
//! * `EX ψ` — a single step;
//! * `E[φ U ψ]` — a path through φ-states to a ψ-state;
//! * propositional formulas — the empty run at a satisfying initial state.
//!
//! Clock-bounded variants (`EF[a,b]`, `EU[a,b]`) are *checked* by
//! [`Checker`] but their witnesses must respect the window; extraction for
//! them is not implemented and reports a typed error.
//!
//! Useful for exploring learned models ("show me how the convoy can form")
//! and for tests that assert reachability with evidence.

use muml_automata::{Automaton, Label, Run, StateId};

use crate::ast::Formula;
use crate::bitset::BitSet;
use crate::checker::Checker;
use crate::error::LogicError;

/// Produces a witness run for `f` if some initial state satisfies it.
///
/// Returns `Ok(None)` when `f` does not hold in any initial state.
///
/// # Examples
///
/// ```
/// use muml_automata::{AutomatonBuilder, Universe};
/// use muml_logic::{parse, witness};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "m")
///     .input("a")
///     .state("s0").initial("s0")
///     .state("goal").prop("goal", "done")
///     .transition("s0", ["a"], [], "goal")
///     .build().unwrap();
/// let run = witness(&m, &parse(&u, "EF done").unwrap())?.expect("reachable");
/// assert_eq!(run.len(), 1);
/// # Ok::<(), muml_logic::LogicError>(())
/// ```
///
/// # Errors
///
/// [`LogicError::UnsupportedCounterexample`] when `f` holds but is outside
/// the supported existential fragment (`EF`, `EX`, `EU`, propositional).
pub fn witness(m: &Automaton, f: &Formula) -> Result<Option<Run>, LogicError> {
    let mut checker = Checker::new(m);
    let sat = checker.sat(f);
    let init = match m.initial_states().iter().find(|s| sat[s.index()]) {
        Some(&s) => s,
        None => return Ok(None),
    };
    let mut states = vec![init];
    let mut labels = Vec::new();
    extend(&mut checker, f, &mut states, &mut labels)?;
    Ok(Some(Run::regular(states, labels)))
}

fn is_propositional(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Prop(_) | Formula::Deadlock => true,
        Formula::Not(g) => is_propositional(g),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            is_propositional(a) && is_propositional(b)
        }
        _ => false,
    }
}

fn extend(
    checker: &mut Checker<'_>,
    f: &Formula,
    states: &mut Vec<StateId>,
    labels: &mut Vec<Label>,
) -> Result<(), LogicError> {
    let here = *states.last().expect("nonempty");
    match f {
        _ if is_propositional(f) => Ok(()),
        Formula::Ef(None, inner) => {
            // BFS to the nearest state satisfying the continuation.
            let iid = checker.sat_id(inner);
            let (path_states, path_labels) =
                bfs_to(checker.automaton(), here, checker.sat_ref(iid)).ok_or_else(|| {
                    LogicError::UnsupportedCounterexample {
                        formula: f.show(checker.automaton().universe()),
                    }
                })?;
            states.extend(path_states.into_iter().skip(1));
            labels.extend(path_labels);
            extend(checker, inner, states, labels)
        }
        Formula::Ex(inner) => {
            let iid = checker.sat_id(inner);
            let m = checker.automaton();
            for t in m.transitions_from(here) {
                if checker.sat_ref(iid)[t.to.index()] {
                    if let Some(l) = m.guard(t.guard).sample_label() {
                        states.push(t.to);
                        labels.push(l);
                        return extend(checker, inner, states, labels);
                    }
                }
            }
            Err(LogicError::UnsupportedCounterexample {
                formula: f.show(checker.automaton().universe()),
            })
        }
        Formula::Eu(None, hold, goal) => {
            // BFS restricted to states satisfying `hold` until `goal`.
            let gid = checker.sat_id(goal);
            let hid = checker.sat_id(hold);
            let (sat_goal, sat_hold) = (checker.sat_ref(gid), checker.sat_ref(hid));
            let m = checker.automaton();
            use std::collections::VecDeque;
            let n = m.state_count();
            let mut parent: Vec<Option<(StateId, Label)>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[here.index()] = true;
            let mut q = VecDeque::from([here]);
            let mut found = if sat_goal[here.index()] {
                Some(here)
            } else {
                None
            };
            while found.is_none() {
                let s = match q.pop_front() {
                    Some(s) => s,
                    None => {
                        return Err(LogicError::UnsupportedCounterexample {
                            formula: f.show(m.universe()),
                        })
                    }
                };
                if !sat_hold[s.index()] {
                    continue;
                }
                for t in m.transitions_from(s) {
                    if seen[t.to.index()] {
                        continue;
                    }
                    if let Some(l) = m.guard(t.guard).sample_label() {
                        seen[t.to.index()] = true;
                        parent[t.to.index()] = Some((s, l));
                        if sat_goal[t.to.index()] {
                            found = Some(t.to);
                            break;
                        }
                        q.push_back(t.to);
                    }
                }
            }
            let target = found.expect("loop exits only when found");
            let mut rev_states = vec![target];
            let mut rev_labels = Vec::new();
            while let Some((p, l)) = parent[rev_states.last().expect("nonempty").index()] {
                rev_states.push(p);
                rev_labels.push(l);
            }
            rev_states.reverse();
            rev_labels.reverse();
            states.extend(rev_states.into_iter().skip(1));
            labels.extend(rev_labels);
            extend(checker, goal, states, labels)
        }
        _ => Err(LogicError::UnsupportedCounterexample {
            formula: f.show(checker.automaton().universe()),
        }),
    }
}

fn bfs_to(m: &Automaton, from: StateId, targets: &BitSet) -> Option<(Vec<StateId>, Vec<Label>)> {
    use std::collections::VecDeque;
    let n = m.state_count();
    let mut parent: Vec<Option<(StateId, Label)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from.index()] = true;
    let mut q = VecDeque::from([from]);
    let mut found = if targets[from.index()] {
        Some(from)
    } else {
        None
    };
    while found.is_none() {
        let s = q.pop_front()?;
        for t in m.transitions_from(s) {
            if seen[t.to.index()] {
                continue;
            }
            if let Some(l) = m.guard(t.guard).sample_label() {
                seen[t.to.index()] = true;
                parent[t.to.index()] = Some((s, l));
                if targets[t.to.index()] {
                    found = Some(t.to);
                    break;
                }
                q.push_back(t.to);
            }
        }
    }
    let mut states = vec![found?];
    let mut labels = Vec::new();
    while let Some((p, l)) = parent[states.last()?.index()] {
        states.push(p);
        labels.push(l);
    }
    states.reverse();
    labels.reverse();
    Some((states, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use muml_automata::{AutomatonBuilder, Universe};

    fn model(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "m")
            .inputs(["a", "b"])
            .state("s0")
            .initial("s0")
            .prop("s0", "start")
            .state("s1")
            .prop("s1", "mid")
            .state("s2")
            .prop("s2", "goal")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", ["a"], [], "s2")
            .transition("s1", ["b"], [], "s0")
            .transition("s2", [], [], "s2")
            .build()
            .unwrap()
    }

    #[test]
    fn ef_witness_is_shortest_path() {
        let u = Universe::new();
        let m = model(&u);
        let w = witness(&m, &parse(&u, "EF goal").unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.validate_in(&m));
        assert_eq!(m.state_name(w.last_state()), "s2");
    }

    #[test]
    fn propositional_witness_is_empty_run() {
        let u = Universe::new();
        let m = model(&u);
        let w = witness(&m, &parse(&u, "start").unwrap()).unwrap().unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn unsatisfied_formula_has_no_witness() {
        let u = Universe::new();
        let m = model(&u);
        assert!(witness(&m, &parse(&u, "EF nothing").unwrap())
            .unwrap()
            .is_none());
    }

    #[test]
    fn ex_witness_single_step() {
        let u = Universe::new();
        let m = model(&u);
        let w = witness(&m, &parse(&u, "EX mid").unwrap()).unwrap().unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(m.state_name(w.last_state()), "s1");
    }

    #[test]
    fn eu_witness_respects_hold_condition() {
        let u = Universe::new();
        let m = model(&u);
        let w = witness(&m, &parse(&u, "E[!goal U goal]").unwrap())
            .unwrap()
            .unwrap();
        assert!(w.validate_in(&m));
        assert_eq!(m.state_name(w.last_state()), "s2");
        // all intermediate states satisfy ¬goal
        for &s in &w.states[..w.states.len() - 1] {
            assert_ne!(m.state_name(s), "s2");
        }
    }

    #[test]
    fn nested_ef_witness() {
        let u = Universe::new();
        let m = model(&u);
        // EF (mid & EX goal): path to s1, then extend by the EX step.
        let w = witness(&m, &parse(&u, "EF (EX goal)").unwrap())
            .unwrap()
            .unwrap();
        assert!(w.validate_in(&m));
        assert_eq!(m.state_name(w.last_state()), "s2");
    }

    #[test]
    fn unsupported_shape_is_typed_error() {
        let u = Universe::new();
        let m = model(&u);
        // EG needs a lasso — out of the finite-witness fragment.
        assert!(matches!(
            witness(&m, &parse(&u, "EG !goal").unwrap()),
            Err(LogicError::UnsupportedCounterexample { .. })
        ));
    }
}
