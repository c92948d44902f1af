//! The chaotic automaton and chaotic closure (Definitions 8–9).
//!
//! The *chaotic automaton* `M_c` over an interface `(I, O)` is the maximal
//! behaviour: from `s_∀` every interaction is possible (looping or moving to
//! `s_δ`), and `s_δ` blocks everything. The *chaotic closure* `chaos(M)` of
//! an incomplete automaton doubles every state into a "no further extension"
//! copy `(s,0)` and an "all further extensions" copy `(s,1)` and lets the
//! latter escape to chaos on any interaction not explicitly refused by `T̄`.
//! `chaos(M)` is a safe abstraction of any component `M_r` that `M` is
//! observation-conforming to (Theorem 1: `M_r ⊑ chaos(M)`).

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::incomplete::IncompleteAutomaton;
use crate::label::{Guard, GuardTable, LabelFamily};
use crate::prop::{PropId, PropSet};
use crate::signal::SignalSet;
use crate::universe::Universe;

/// Name of the all-accepting chaos state (`s_∀`, written `s_all` in the
/// paper's figures because the tooling lacked math symbols).
pub const S_ALL: &str = "s_all";
/// Name of the all-blocking chaos state (`s_δ` / `s_delta`).
pub const S_DELTA: &str = "s_delta";
/// Name of the fresh chaos proposition `p′` (Section 2.7) that labels both
/// chaos states of the loop's closures.
pub const CHAOS_PROP: &str = "__chaos__";

/// Builds the chaotic automaton `M_c` of Definition 8 over `(inputs,
/// outputs)`.
///
/// Both `s_∀` and `s_δ` are initial. If `chaos_prop` is given, both states
/// are labelled with it — the fresh proposition `p′` of the Section 2.7
/// weakening trick (see [`crate`] docs); property formulas should be
/// rewritten `p ↦ p ∨ p′` before checking.
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, chaotic_automaton};
/// let u = Universe::new();
/// let ins = u.signals(["a"]);
/// let outs = u.signals(["b"]);
/// let mc = chaotic_automaton(&u, "chaos", ins, outs, None);
/// assert_eq!(mc.state_count(), 2);
/// assert_eq!(mc.initial_states().len(), 2);
/// ```
pub fn chaotic_automaton(
    u: &Universe,
    name: &str,
    inputs: SignalSet,
    outputs: SignalSet,
    chaos_prop: Option<PropId>,
) -> Automaton {
    let props = chaos_prop.map(PropSet::singleton).unwrap_or(PropSet::EMPTY);
    let states = vec![
        StateData {
            name: S_ALL.to_owned(),
            props,
        },
        StateData {
            name: S_DELTA.to_owned(),
            props,
        },
    ];
    let mut guards = GuardTable::default();
    let all = guards.intern(Guard::from(LabelFamily::all(inputs, outputs)));
    let adj = vec![
        vec![
            Transition {
                guard: all,
                to: StateId(0),
            },
            Transition {
                guard: all,
                to: StateId(1),
            },
        ],
        Vec::new(),
    ];
    Automaton::from_rows(
        u.clone(),
        name.to_owned(),
        (inputs, outputs),
        states,
        (guards, adj),
        vec![StateId(0), StateId(1)],
    )
}

/// Builds the chaotic closure `chaos(M)` of an incomplete automaton
/// (Definition 9).
///
/// State layout of the result: for each state `s` of `M`, `(s,0)` (named
/// `s#0`) and `(s,1)` (named `s#1`), followed by `s_∀` and `s_δ`. The `(s,1)`
/// copies escape to both chaos states on every interaction not in `T̄(s)`
/// (represented symbolically as a label family with `T̄(s)` excluded).
///
/// The `(s,i)` copies keep the propositions of `s`; the chaos states carry
/// `chaos_prop` if given.
pub fn chaotic_closure(m: &IncompleteAutomaton, chaos_prop: Option<PropId>) -> Automaton {
    let n = m.state_count();
    let copy = |s: StateId, bit: u32| StateId(s.0 * 2 + bit);
    let s_all = StateId((2 * n) as u32);
    let s_delta = StateId((2 * n) as u32 + 1);

    let mut states = Vec::with_capacity(2 * n + 2);
    for i in 0..n {
        let sid = StateId(i as u32);
        for bit in 0..2 {
            states.push(StateData {
                name: format!("{}#{}", m.state_name(sid), bit),
                props: m.props_of(sid),
            });
        }
    }
    let chaos_props = chaos_prop.map(PropSet::singleton).unwrap_or(PropSet::EMPTY);
    states.push(StateData {
        name: S_ALL.to_owned(),
        props: chaos_props,
    });
    states.push(StateData {
        name: S_DELTA.to_owned(),
        props: chaos_props,
    });

    let mut guards = GuardTable::default();
    let mut adj: Vec<Vec<Transition>> = vec![Vec::new(); 2 * n + 2];
    for i in 0..n {
        let s = StateId(i as u32);
        // Defined behaviour: each (s,b) copies every T transition to both
        // target copies.
        for &(l, to) in m.transitions_from(s) {
            let guard = guards.intern(Guard::Exact(l));
            for bit in 0..2 {
                for tbit in 0..2 {
                    adj[copy(s, bit).index()].push(Transition {
                        guard,
                        to: copy(to, tbit),
                    });
                }
            }
        }
        // Escape to chaos from (s,1) on every *unspecified* interaction —
        // anything in neither T nor T̄. (Definition 9's prose: "all not
        // specified interactions either are not supported or lead to the
        // added chaotic automaton". The definition's formal comprehension
        // only excludes T̄, but under the paper's determinism assumption a
        // defined interaction (s,A,B,s′) ∈ T is the component's unique
        // response, so escaping on it would keep chaos reachable forever
        // and Theorem 2's proof exit could never fire; we follow the
        // prose.)
        let mut fam = LabelFamily::all(m.inputs(), m.outputs());
        fam.excluded = m.refusals_at(s).to_vec();
        for &(l, _) in m.transitions_from(s) {
            if !fam.excluded.contains(&l) {
                fam.excluded.push(l);
            }
        }
        if !fam.is_empty() {
            let guard = guards.intern(Guard::from(fam));
            adj[copy(s, 1).index()].push(Transition { guard, to: s_all });
            adj[copy(s, 1).index()].push(Transition { guard, to: s_delta });
        }
    }
    // The chaotic automaton itself.
    let all = guards.intern(Guard::from(LabelFamily::all(m.inputs(), m.outputs())));
    adj[s_all.index()].push(Transition {
        guard: all,
        to: s_all,
    });
    adj[s_all.index()].push(Transition {
        guard: all,
        to: s_delta,
    });

    let mut initial = Vec::new();
    for &q in m.initial_states() {
        initial.push(copy(q, 0));
        initial.push(copy(q, 1));
    }

    // The closure *stands in* for the component in compositions and
    // counterexample listings, so it keeps the component's name.
    Automaton::from_rows(
        m.universe().clone(),
        m.name().to_owned(),
        (m.inputs(), m.outputs()),
        states,
        (guards, adj),
        initial,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incomplete::Observation;
    use crate::label::Label;

    #[test]
    fn chaotic_automaton_structure() {
        let u = Universe::new();
        let ins = u.signals(["a", "b"]);
        let outs = u.signals(["c"]);
        let mc = chaotic_automaton(&u, "mc", ins, outs, None);
        assert_eq!(mc.state_count(), 2);
        let s_all = mc.find_state(S_ALL).unwrap();
        let s_delta = mc.find_state(S_DELTA).unwrap();
        assert_eq!(mc.initial_states(), &[s_all, s_delta]);
        // s_∀ enables every interaction; s_δ blocks everything.
        let any = Label::new(u.signals(["a"]), u.signals(["c"]));
        assert!(mc.enables(s_all, any));
        assert!(mc.enables(s_all, Label::EMPTY));
        assert!(!mc.enables(s_delta, any));
        assert!(mc.is_deadlock(s_delta));
        // both successor choices exist
        assert_eq!(mc.successors(s_all, any).len(), 2);
    }

    #[test]
    fn chaos_prop_labels_chaos_states() {
        let u = Universe::new();
        let p = u.prop("chaos");
        let mc = chaotic_automaton(&u, "mc", SignalSet::EMPTY, SignalSet::EMPTY, Some(p));
        for s in mc.state_ids() {
            assert!(mc.props_of(s).contains(p));
        }
    }

    #[test]
    fn closure_of_trivial_automaton() {
        // Figure 4 of the paper: the trivial automaton has one state and the
        // closure has the doubled state plus the two chaos states; the (s,1)
        // copy escapes on '*'.
        let u = Universe::new();
        let ins = u.signals(["x"]);
        let outs = u.signals(["y"]);
        let m = IncompleteAutomaton::trivial(&u, "legacy", ins, outs, "noConvoy");
        let c = chaotic_closure(&m, None);
        assert_eq!(c.state_count(), 4);
        let s0 = c.find_state("noConvoy#0").unwrap();
        let s1 = c.find_state("noConvoy#1").unwrap();
        assert_eq!(c.initial_states(), &[s0, s1]);
        // (s,0): no observed transitions → deadlock copy.
        assert!(c.is_deadlock(s0));
        // (s,1): escapes on any interaction to both chaos states.
        let l = Label::new(u.signals(["x"]), SignalSet::EMPTY);
        let succ = c.successors(s1, l);
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&c.find_state(S_ALL).unwrap()));
        assert!(succ.contains(&c.find_state(S_DELTA).unwrap()));
        c.validate().unwrap();
    }

    #[test]
    fn closure_respects_refusals() {
        let u = Universe::new();
        let ins = u.signals(["x"]);
        let mut m = IncompleteAutomaton::trivial(&u, "legacy", ins, SignalSet::EMPTY, "s");
        let lx = Label::new(u.signals(["x"]), SignalSet::EMPTY);
        m.learn(&Observation::blocked(vec!["s".into()], vec![lx]))
            .unwrap();
        let c = chaotic_closure(&m, None);
        let s1 = c.find_state("s#1").unwrap();
        // The refused interaction must not escape to chaos…
        assert!(!c.enables(s1, lx));
        // …but the unrefused empty interaction still does.
        assert!(c.enables(s1, Label::EMPTY));
    }

    #[test]
    fn closure_copies_defined_behaviour_to_all_copies() {
        let u = Universe::new();
        let outs = u.signals(["p"]);
        let mut m = IncompleteAutomaton::trivial(&u, "legacy", SignalSet::EMPTY, outs, "a");
        let lp = Label::new(SignalSet::EMPTY, u.signals(["p"]));
        m.learn(&Observation::regular(
            vec!["a".into(), "b".into()],
            vec![lp],
        ))
        .unwrap();
        let c = chaotic_closure(&m, None);
        let a0 = c.find_state("a#0").unwrap();
        let a1 = c.find_state("a#1").unwrap();
        // From both copies the observed transition reaches both target copies.
        for src in [a0, a1] {
            let succ = c.successors(src, lp);
            assert!(succ.contains(&c.find_state("b#0").unwrap()));
            assert!(succ.contains(&c.find_state("b#1").unwrap()));
        }
        // (a,0) has no escape.
        assert!(!c.enables(a0, Label::EMPTY));
        // (a,1) escapes on the unobserved empty label.
        assert!(c.enables(a1, Label::EMPTY));
    }

    #[test]
    fn closure_keeps_state_props() {
        let u = Universe::new();
        let p = u.prop("legacy.noConvoy");
        let mut m =
            IncompleteAutomaton::trivial(&u, "l", SignalSet::EMPTY, SignalSet::EMPTY, "noConvoy");
        m.set_prop("noConvoy", p);
        let c = chaotic_closure(&m, None);
        assert!(c.props_of(c.find_state("noConvoy#0").unwrap()).contains(p));
        assert!(c.props_of(c.find_state("noConvoy#1").unwrap()).contains(p));
    }
}
