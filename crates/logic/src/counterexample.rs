//! Property checking with counterexample extraction.
//!
//! The synthesis loop of the paper (Section 4.1) needs more than a yes/no
//! answer: when `M_a^c ∥ M_a^i ⊭ φ ∧ ¬δ`, the model checker must produce a
//! *witness path* `π` that is then used as a test input for the legacy
//! component. This module extracts finite counterexample runs for the
//! compositional safety fragment:
//!
//! * invariants and `AG ψ` (path to a state violating ψ),
//! * deadlock freedom `AG ¬deadlock` (path to a deadlock state),
//! * bounded deadlines `AF[a,b] ψ` — also nested as `AG(¬p ∨ AF[a,b] q)`,
//!   the paper's maximal-delay pattern (path into the window during which ψ
//!   never holds),
//! * conjunctions of the above (the first violated conjunct yields the
//!   counterexample), and disjunctions with at most one temporal disjunct.
//!
//! Violations of other shapes (e.g. unbounded `AF`, whose counterexample is
//! a lasso, or existential properties) yield
//! [`LogicError::UnsupportedCounterexample`].

use muml_automata::{Automaton, Label, Run, StateId};

use crate::ast::{Bound, Formula};
use crate::bitset::BitSet;
use crate::checker::{Checker, Mode};
use crate::error::LogicError;

/// The result of [`check`].
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All initial states satisfy the property.
    Holds,
    /// The property is violated; here is a witness.
    Violated(Counterexample),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample, if violated.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Holds => None,
            Verdict::Violated(c) => Some(c),
        }
    }
}

/// A finite counterexample run.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The witness run (a regular run of the checked automaton; for deadlock
    /// violations it ends in the deadlocked state).
    pub run: Run,
    /// The violated (sub)formula.
    pub violated: Formula,
    /// Human-readable explanation.
    pub description: String,
}

/// Checks `m ⊨ f`, producing a counterexample run on violation.
///
/// # Errors
///
/// [`LogicError::UnsupportedCounterexample`] if `f` is violated but lies
/// outside the supported safety fragment (the boolean verdict is still
/// decidable via [`Checker::satisfies`]; only the witness is unavailable).
pub fn check(m: &Automaton, f: &Formula) -> Result<Verdict, LogicError> {
    let mut checker = Checker::new(m);
    check_with(&mut checker, f)
}

/// Like [`check`], reusing an existing [`Checker`] (and its memoized
/// satisfaction sets).
///
/// # Errors
///
/// See [`check`].
pub fn check_with(checker: &mut Checker<'_>, f: &Formula) -> Result<Verdict, LogicError> {
    // Top-level conjunctions are checked conjunct by conjunct so that the
    // counterexample names the precise violated requirement (the paper
    // checks `φ ∧ ¬δ`).
    if let Formula::And(a, b) = f {
        return match check_with(checker, a)? {
            Verdict::Holds => check_with(checker, b),
            v => Ok(v),
        };
    }
    if checker.satisfies(f) {
        return Ok(Verdict::Holds);
    }
    let init = checker
        .violating_initial(f)
        .expect("violated formula has a violating initial state");
    let model_name = checker.automaton().name().to_owned();
    let mut states = vec![init];
    let mut labels = Vec::new();
    extend_with_negation_witness(checker, f, &mut states, &mut labels)?;
    let run = Run::regular(states, labels);
    let u = checker.automaton().universe().clone();
    Ok(Verdict::Violated(Counterexample {
        run,
        violated: f.clone(),
        description: format!("violation of {} in {}", f.show(&u), model_name),
    }))
}

/// Checks several properties in order; the first violation wins.
///
/// # Errors
///
/// See [`check`].
pub fn check_all(m: &Automaton, fs: &[Formula]) -> Result<Verdict, LogicError> {
    let mut checker = Checker::new(m);
    check_all_with(&mut checker, fs)
}

/// Like [`check_all`], reusing an existing [`Checker`] — callers that need
/// the checker's work counters ([`Checker::stats`]) afterwards construct
/// the checker themselves and pass it in.
///
/// # Errors
///
/// See [`check`].
pub fn check_all_with(checker: &mut Checker<'_>, fs: &[Formula]) -> Result<Verdict, LogicError> {
    for f in fs {
        match check_with(checker, f)? {
            Verdict::Holds => continue,
            v => return Ok(v),
        }
    }
    Ok(Verdict::Holds)
}

/// Extracts up to `max` *distinct* deadlock counterexamples: a shortest
/// run to every reachable deadlock state (one per state, in BFS order).
///
/// This implements the improvement the paper's Section 7 proposes ("the
/// interplay between the formal verification and the test could be
/// improved when a number of counterexamples instead of only a single one
/// could be derived from the model checker"): the synthesis driver can
/// test and learn from several deadlock witnesses per verification run.
pub fn deadlock_counterexamples(m: &Automaton, max: usize) -> Vec<Counterexample> {
    use std::collections::VecDeque;
    let n = m.state_count();
    let mut parent: Vec<Option<(StateId, Label)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut order: Vec<StateId> = Vec::new();
    let mut q = VecDeque::new();
    for &s in m.initial_states() {
        if !seen[s.index()] {
            seen[s.index()] = true;
            q.push_back(s);
        }
    }
    while let Some(s) = q.pop_front() {
        if m.is_deadlock(s) {
            order.push(s);
            if order.len() >= max {
                break;
            }
        }
        for t in m.transitions_from(s) {
            if seen[t.to.index()] {
                continue;
            }
            if let Some(l) = m.guard(t.guard).sample_label() {
                seen[t.to.index()] = true;
                parent[t.to.index()] = Some((s, l));
                q.push_back(t.to);
            }
        }
    }
    order
        .into_iter()
        .map(|dead| {
            let mut states = vec![dead];
            let mut labels = Vec::new();
            while let Some((p, l)) = parent[states.last().expect("nonempty").index()] {
                states.push(p);
                labels.push(l);
            }
            states.reverse();
            labels.reverse();
            Counterexample {
                run: Run::regular(states, labels),
                violated: Formula::deadlock_free(),
                description: format!("deadlock at `{}` in {}", m.state_name(dead), m.name()),
            }
        })
        .collect()
}

/// Extends `states`/`labels` (ending at a state violating `f`) with a
/// concrete witness of `¬f`.
fn extend_with_negation_witness(
    checker: &mut Checker<'_>,
    f: &Formula,
    states: &mut Vec<StateId>,
    labels: &mut Vec<Label>,
) -> Result<(), LogicError> {
    let here = *states.last().expect("witness path is nonempty");
    match f {
        // State-local formulas: the current state itself is the witness.
        _ if is_state_local(f) => Ok(()),

        // ¬AG ψ = EF ¬ψ: walk to the nearest state violating ψ, then show ¬ψ.
        Formula::Ag(None, inner) => {
            let bad = checker.sat(inner).complement();
            let (path_states, path_labels) = bfs_path(checker.automaton(), here, &bad)
                .expect("AG violated implies a reachable violating state");
            states.extend(path_states.into_iter().skip(1));
            labels.extend(path_labels);
            extend_with_negation_witness(checker, inner, states, labels)
        }

        // ¬AX ψ: one step to a successor violating ψ.
        Formula::Ax(inner) => {
            let iid = checker.sat_id(inner);
            let m = checker.automaton();
            if checker.is_deadlocked(here) {
                // stutter successor is `here` itself
                return extend_with_negation_witness(checker, inner, states, labels);
            }
            for t in m.transitions_from(here) {
                if !checker.sat_ref(iid)[t.to.index()] {
                    if let Some(l) = m.guard(t.guard).sample_label() {
                        states.push(t.to);
                        labels.push(l);
                        return extend_with_negation_witness(checker, inner, states, labels);
                    }
                }
            }
            Err(unsupported(checker, f))
        }

        // ¬AF[a,b] ψ = EG-window ¬ψ: a path on which ψ fails throughout the
        // window.
        Formula::Af(Some(b), inner) => {
            window_witness(checker, *b, inner, states, labels);
            Ok(())
        }

        // ¬(a ∨ b) = ¬a ∧ ¬b: all disjuncts fail here; at most one may need
        // a path extension. For Implies(a, b) ≡ ¬a ∨ b the left "disjunct"
        // is ¬a — same state-locality as a, so only the rare
        // non-local-left Implies case materializes a negated clone.
        Formula::Or(a, b) | Formula::Implies(a, b) => {
            match (is_state_local(a), is_state_local(b)) {
                (true, true) => Ok(()),
                (true, false) => extend_with_negation_witness(checker, b, states, labels),
                (false, true) => match f {
                    Formula::Or(..) => extend_with_negation_witness(checker, a, states, labels),
                    _ => {
                        let da = (**a).clone().not();
                        extend_with_negation_witness(checker, &da, states, labels)
                    }
                },
                (false, false) => Err(unsupported(checker, f)),
            }
        }

        // ¬(a ∧ b): some conjunct fails here; witness that one.
        Formula::And(a, b) => {
            if !checker.sat(a)[here.index()] {
                extend_with_negation_witness(checker, a, states, labels)
            } else {
                extend_with_negation_witness(checker, b, states, labels)
            }
        }

        _ => Err(unsupported(checker, f)),
    }
}

fn unsupported(checker: &Checker<'_>, f: &Formula) -> LogicError {
    LogicError::UnsupportedCounterexample {
        formula: f.show(checker.automaton().universe()),
    }
}

/// Formulas whose violation is visible at a single state (no path needed):
/// propositional logic over atoms and the deadlock predicate.
fn is_state_local(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Prop(_) | Formula::Deadlock => true,
        Formula::Not(g) => is_state_local(g),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            is_state_local(a) && is_state_local(b)
        }
        _ => false,
    }
}

/// Shortest path (over real transitions) from `from` to any state in
/// `targets`, as `(states, labels)` with `states[0] == from`.
fn bfs_path(m: &Automaton, from: StateId, targets: &BitSet) -> Option<(Vec<StateId>, Vec<Label>)> {
    use std::collections::VecDeque;
    let n = m.state_count();
    let mut parent: Vec<Option<(StateId, Label)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut q = VecDeque::new();
    seen[from.index()] = true;
    q.push_back(from);
    let mut found = None;
    if targets[from.index()] {
        found = Some(from);
    }
    while found.is_none() {
        let s = q.pop_front()?;
        for t in m.transitions_from(s) {
            if seen[t.to.index()] {
                continue;
            }
            let l = match m.guard(t.guard).sample_label() {
                Some(l) => l,
                None => continue, // empty family
            };
            seen[t.to.index()] = true;
            parent[t.to.index()] = Some((s, l));
            if targets[t.to.index()] {
                found = Some(t.to);
                break;
            }
            q.push_back(t.to);
        }
    }
    let mut states = vec![found?];
    let mut labels = Vec::new();
    while let Some((p, l)) = parent[states.last()?.index()] {
        states.push(p);
        labels.push(l);
        if p == from {
            break;
        }
    }
    states.reverse();
    labels.reverse();
    Some((states, labels))
}

/// Extends the path with a window witness for `EG[lo,hi] ¬goal` from the
/// current final state: on the produced path, `goal` fails at every offset
/// in `[lo,hi]` (a deadline violation). If the path runs into a deadlock the
/// witness ends there (stutter semantics keep `¬goal` fixed).
fn window_witness(
    checker: &mut Checker<'_>,
    b: Bound,
    goal: &Formula,
    states: &mut Vec<StateId>,
    labels: &mut Vec<Label>,
) {
    let layers = checker.negated_window_layers(b, goal, Mode::SomeGlobally);
    let mut here = *states.last().expect("nonempty");
    for t in 0..b.hi as usize {
        if checker.is_deadlocked(here) {
            return; // stutter: window satisfied without further steps
        }
        let next_layer = &layers[t + 1];
        let m = checker.automaton();
        let mut stepped = false;
        for tr in m.transitions_from(here) {
            if next_layer[tr.to.index()] {
                if let Some(l) = m.guard(tr.guard).sample_label() {
                    states.push(tr.to);
                    labels.push(l);
                    here = tr.to;
                    stepped = true;
                    break;
                }
            }
        }
        if !stepped {
            return; // defensive: should not happen when layers[0] held
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use muml_automata::{AutomatonBuilder, Universe};

    fn check_str(m: &Automaton, u: &Universe, f: &str) -> Result<Verdict, LogicError> {
        check(m, &parse(u, f).unwrap())
    }

    #[test]
    fn invariant_violation_has_shortest_path() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("bad")
            .prop("bad", "err")
            .transition("s0", [], [], "s1")
            .transition("s1", [], [], "bad")
            .transition("s0", [], [], "s0")
            .transition("bad", [], [], "bad")
            .build()
            .unwrap();
        match check_str(&m, &u, "AG !err").unwrap() {
            Verdict::Violated(c) => {
                assert_eq!(c.run.len(), 2);
                assert_eq!(m.state_name(c.run.last_state()), "bad");
                assert!(c.run.validate_in(&m));
            }
            Verdict::Holds => panic!("expected violation"),
        }
    }

    #[test]
    fn deadlock_counterexample_reaches_deadlock() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("dead")
            .transition("s0", [], [], "s0")
            .transition("s0", [], [], "dead")
            .build()
            .unwrap();
        match check(&m, &Formula::deadlock_free()).unwrap() {
            Verdict::Violated(c) => {
                assert_eq!(m.state_name(c.run.last_state()), "dead");
                assert!(c.run.validate_in(&m));
            }
            Verdict::Holds => panic!("expected deadlock"),
        }
    }

    #[test]
    fn holds_verdict() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .prop("s", "good")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        assert!(check_str(&m, &u, "AG good").unwrap().holds());
        assert!(check(&m, &Formula::deadlock_free()).unwrap().holds());
    }

    #[test]
    fn conjunction_reports_first_violated() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .prop("s", "p")
            .build()
            .unwrap();
        // p holds, AG !deadlock fails → the deadlock conjunct is reported.
        match check_str(&m, &u, "AG p & AG !deadlock").unwrap() {
            Verdict::Violated(c) => {
                assert!(c.description.contains("deadlock"));
            }
            Verdict::Holds => panic!("expected violation"),
        }
    }

    #[test]
    fn deadline_violation_window_witness() {
        let u = Universe::new();
        // trigger p1 at t0; p2 only at t3 — violates AG(¬p1 ∨ AF[1,2] p2).
        let m = AutomatonBuilder::new(&u, "m")
            .state("t0")
            .initial("t0")
            .prop("t0", "p1")
            .state("t1")
            .state("t2")
            .state("t3")
            .prop("t3", "p2")
            .transition("t0", [], [], "t1")
            .transition("t1", [], [], "t2")
            .transition("t2", [], [], "t3")
            .transition("t3", [], [], "t3")
            .build()
            .unwrap();
        match check_str(&m, &u, "AG (!p1 | AF[1,2] p2)").unwrap() {
            Verdict::Violated(c) => {
                // witness: t0 (p1 holds) then 2 steps during which p2 fails
                assert_eq!(c.run.len(), 2);
                assert!(c.run.validate_in(&m));
                let names: Vec<&str> = c
                    .run
                    .state_sequence()
                    .iter()
                    .map(|&s| m.state_name(s))
                    .collect();
                assert_eq!(names, vec!["t0", "t1", "t2"]);
            }
            Verdict::Holds => panic!("expected deadline violation"),
        }
        // with a window of 3 the deadline is met
        assert!(check_str(&m, &u, "AG (!p1 | AF[1,3] p2)").unwrap().holds());
    }

    #[test]
    fn top_level_bounded_af_violation() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("a")
            .initial("a")
            .state("b")
            .prop("b", "goal")
            .transition("a", [], [], "a")
            .transition("a", [], [], "b")
            .transition("b", [], [], "b")
            .build()
            .unwrap();
        // the a-self-loop path never reaches goal
        match check_str(&m, &u, "AF[1,3] goal").unwrap() {
            Verdict::Violated(c) => {
                assert_eq!(c.run.len(), 3);
                assert!(c
                    .run
                    .state_sequence()
                    .iter()
                    .all(|&s| m.state_name(s) == "a"));
            }
            Verdict::Holds => panic!("expected violation"),
        }
    }

    #[test]
    fn unsupported_counterexample_is_typed_error() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("a")
            .initial("a")
            .state("b")
            .prop("b", "goal")
            .transition("a", [], [], "a")
            .transition("a", [], [], "b")
            .transition("b", [], [], "b")
            .build()
            .unwrap();
        // unbounded AF violation needs a lasso — out of fragment
        let err = check_str(&m, &u, "AF goal").unwrap_err();
        assert!(matches!(err, LogicError::UnsupportedCounterexample { .. }));
        // the boolean answer is still available
        let mut c = Checker::new(&m);
        assert!(!c.satisfies(&parse(&u, "AF goal").unwrap()));
    }

    #[test]
    fn nested_ag_witness() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("s1")
            .prop("s1", "p")
            .state("s2")
            .transition("s0", [], [], "s1")
            .transition("s1", [], [], "s2")
            .transition("s2", [], [], "s2")
            .build()
            .unwrap();
        // AG(p → AG p) fails: p at s1 but not at s2.
        match check_str(&m, &u, "AG (p -> AG p)").unwrap() {
            Verdict::Violated(c) => {
                assert_eq!(m.state_name(c.run.last_state()), "s2");
                assert!(c.run.validate_in(&m));
            }
            Verdict::Holds => panic!("expected violation"),
        }
    }

    #[test]
    fn multiple_deadlock_counterexamples() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("d1")
            .state("mid")
            .state("d2")
            .transition("s0", [], [], "d1")
            .transition("s0", [], [], "mid")
            .transition("mid", [], [], "d2")
            .build()
            .unwrap();
        let cexs = deadlock_counterexamples(&m, 8);
        assert_eq!(cexs.len(), 2);
        // BFS order: the nearer deadlock first.
        assert_eq!(m.state_name(cexs[0].run.last_state()), "d1");
        assert_eq!(m.state_name(cexs[1].run.last_state()), "d2");
        for c in &cexs {
            assert!(c.run.validate_in(&m));
            assert_eq!(c.violated, Formula::deadlock_free());
        }
        // cap respected
        assert_eq!(deadlock_counterexamples(&m, 1).len(), 1);
        // deadlock-free system yields none
        let free = AutomatonBuilder::new(&u, "f")
            .state("s")
            .initial("s")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        assert!(deadlock_counterexamples(&free, 8).is_empty());
    }

    #[test]
    fn check_all_stops_at_first_violation() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .prop("s", "p")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        let fs = vec![
            parse(&u, "AG p").unwrap(),
            parse(&u, "AG !p").unwrap(),
            parse(&u, "AG deadlock").unwrap(),
        ];
        match check_all(&m, &fs).unwrap() {
            Verdict::Violated(c) => assert_eq!(c.violated, fs[1]),
            Verdict::Holds => panic!("expected violation"),
        }
    }
}
