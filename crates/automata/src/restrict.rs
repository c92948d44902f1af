//! Interface restriction `M|_{I′/O′/𝓛′}` (used by Lemma 3).
//!
//! Restricting an automaton drops all signals outside `I′ ∪ O′` from its
//! transition labels and all propositions outside the kept set from its
//! state labelling. Lemma 3 uses restriction to transfer verification
//! results across refinements that only *add* disjoint I/O signals.

use crate::automaton::{Automaton, StateData, Transition};
use crate::error::Result;
use crate::label::{Guard, GuardTable, LabelFamily};
use crate::prop::PropSet;
use crate::signal::SignalSet;

/// Restricts `m` to the interface `(inputs, outputs)` and the proposition
/// set `props`.
///
/// Guards are projected: exact labels keep only the retained signals;
/// symbolic families keep the retained must/free sets. A family carrying
/// exclusions whose erased dimensions matter cannot be projected
/// symbolically and is expanded first (duplicate projected labels are
/// merged).
///
/// # Errors
///
/// Returns [`crate::AutomataError::FreeSignalOverflow`] if an
/// exclusion-carrying family is too large to expand (cap 16).
pub fn restrict_interface(
    m: &Automaton,
    inputs: SignalSet,
    outputs: SignalSet,
    props: PropSet,
) -> Result<Automaton> {
    let keep_in = m.inputs().intersection(inputs);
    let keep_out = m.outputs().intersection(outputs);
    let states: Vec<StateData> = m
        .state_ids()
        .map(|s| StateData {
            name: m.state_name(s).to_owned(),
            props: m.props_of(s).intersection(props),
        })
        .collect();
    let mut guards = GuardTable::default();
    let mut adj: Vec<Vec<Transition>> = Vec::with_capacity(m.state_count());
    for s in m.state_ids() {
        let mut out: Vec<Transition> = Vec::new();
        let mut push = |guard: Guard, to| {
            let t = Transition {
                guard: guards.intern(guard),
                to,
            };
            if !out.contains(&t) {
                out.push(t);
            }
        };
        for t in m.transitions_from(s) {
            match m.guard(t.guard) {
                Guard::Exact(l) => push(Guard::Exact(l.restrict(keep_in, keep_out)), t.to),
                Guard::Family(f) if f.excluded.is_empty() => push(
                    Guard::from(LabelFamily {
                        in_must: f.in_must.intersection(keep_in),
                        in_free: f.in_free.intersection(keep_in),
                        out_must: f.out_must.intersection(keep_out),
                        out_free: f.out_free.intersection(keep_out),
                        excluded: Vec::new(),
                    }),
                    t.to,
                ),
                Guard::Family(f) => {
                    for l in f.enumerate(16)? {
                        push(Guard::Exact(l.restrict(keep_in, keep_out)), t.to);
                    }
                }
            }
        }
        adj.push(out);
    }
    Ok(Automaton::from_rows(
        m.universe().clone(),
        format!("{}|restricted", m.name()),
        (keep_in, keep_out),
        states,
        (guards, adj),
        m.initial_states().to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::label::Label;
    use crate::universe::Universe;

    #[test]
    fn restrict_drops_signals_and_props() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .inputs(["a", "x"])
            .outputs(["b", "y"])
            .state("s0")
            .initial("s0")
            .prop("s0", "p")
            .prop("s0", "hidden")
            .state("s1")
            .transition("s0", ["a", "x"], ["b", "y"], "s1")
            .build()
            .unwrap();
        let keep_in = u.signals(["a"]);
        let keep_out = u.signals(["b"]);
        let keep_props = crate::PropSet::singleton(u.prop("p"));
        let r = restrict_interface(&m, keep_in, keep_out, keep_props).unwrap();
        assert_eq!(r.inputs(), keep_in);
        assert_eq!(r.outputs(), keep_out);
        let s0 = r.find_state("s0").unwrap();
        assert_eq!(r.props_of(s0), keep_props);
        let l = r.guard(r.transitions_from(s0)[0].guard).as_exact().unwrap();
        assert_eq!(l, Label::new(keep_in, keep_out));
        r.validate().unwrap();
    }

    #[test]
    fn restrict_merges_collapsed_duplicates() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .inputs(["a", "x"])
            .state("s0")
            .initial("s0")
            .transition("s0", ["a", "x"], [], "s0")
            .transition("s0", ["a"], [], "s0")
            .build()
            .unwrap();
        let r = restrict_interface(
            &m,
            u.signals(["a"]),
            SignalSet::EMPTY,
            crate::PropSet::EMPTY,
        )
        .unwrap();
        // both transitions project to {a}/{} → merged
        assert_eq!(r.transition_count(), 1);
    }

    #[test]
    fn restrict_family_without_exclusions_stays_symbolic() {
        let u = Universe::new();
        let ins = u.signals(["a", "x"]);
        let m = AutomatonBuilder::new(&u, "m")
            .inputs(["a", "x"])
            .state("s")
            .initial("s")
            .transition_guard(
                "s",
                Guard::from(LabelFamily::all(ins, SignalSet::EMPTY)),
                "s",
            )
            .build()
            .unwrap();
        let r = restrict_interface(
            &m,
            u.signals(["a"]),
            SignalSet::EMPTY,
            crate::PropSet::EMPTY,
        )
        .unwrap();
        let s = r.find_state("s").unwrap();
        match r.guard(r.transitions_from(s)[0].guard) {
            Guard::Family(f) => {
                assert_eq!(f.in_free, u.signals(["a"]));
            }
            g => panic!("expected family, got {g:?}"),
        }
    }

    #[test]
    fn restrict_family_with_exclusions_expands() {
        let u = Universe::new();
        let a = u.signal("a");
        let x = u.signal("x");
        let mut fam = LabelFamily::all(SignalSet::from_iter([a, x]), SignalSet::EMPTY);
        // exclude {a,x}: projection onto {a} must still admit {a} (via the
        // member {a} alone) — symbolic projection would be wrong here if it
        // kept the exclusion.
        fam.excluded
            .push(Label::new(SignalSet::from_iter([a, x]), SignalSet::EMPTY));
        let m = AutomatonBuilder::new(&u, "m")
            .inputs(["a", "x"])
            .state("s")
            .initial("s")
            .transition_guard("s", Guard::from(fam), "s")
            .build()
            .unwrap();
        let r = restrict_interface(
            &m,
            SignalSet::singleton(a),
            SignalSet::EMPTY,
            crate::PropSet::EMPTY,
        )
        .unwrap();
        let s = r.find_state("s").unwrap();
        assert!(r.enables(s, Label::new(SignalSet::singleton(a), SignalSet::EMPTY)));
        assert!(r.enables(s, Label::EMPTY));
    }
}
