//! Initial behaviour synthesis (Section 3, Lemma 4).
//!
//! From the known structural interface of a legacy component and its initial
//! state (obtainable by light-weight reverse engineering), synthesize the
//! trivial incomplete automaton `M_l^0 = ({s₀}, I, O, ∅, ∅, {s₀})` and take
//! the chaotic closure `M_a^0 = chaos(M_l^0)` — the first safe abstraction
//! of the series (`M_r ⊑ M_a^0`).

use muml_automata::{chaotic_closure, Automaton, IncompleteAutomaton, PropId, SignalSet, Universe};
use muml_legacy::StateObservable;

/// Assigns atomic propositions to monitored legacy state names.
///
/// The pattern constraint may refer to propositions of the legacy
/// component's states (the DistanceCoordination constraint refers to
/// `rearRole.convoy`); the mapper tells the learner which propositions a
/// monitored state fulfils. The default maps state `s` of component `c` to
/// the single proposition `c.s`.
pub type StatePropMapper<'a> = dyn Fn(&str) -> Vec<String> + 'a;

/// Builds the trivial incomplete automaton `M_l^0` for a component: its
/// interface plus the known initial state (Lemma 4).
pub fn initial_knowledge(
    u: &Universe,
    component: &dyn StateObservable,
    mapper: &StatePropMapper<'_>,
) -> IncompleteAutomaton {
    let (inputs, outputs) = component.interface();
    let initial = component.initial_state_name();
    let mut m = IncompleteAutomaton::trivial(u, component.name(), inputs, outputs, &initial);
    apply_props(u, &mut m, mapper);
    m
}

/// Labels every state of the incomplete automaton according to `mapper`
/// (idempotent; called after each learning step for newly added states).
pub fn apply_props(u: &Universe, m: &mut IncompleteAutomaton, mapper: &StatePropMapper<'_>) {
    let names: Vec<String> = (0..m.state_count())
        .map(|i| m.state_name(muml_automata::StateId(i as u32)).to_owned())
        .collect();
    for name in names {
        for prop in mapper(&name) {
            m.set_prop(&name, u.prop(&prop));
        }
    }
}

/// The initial safe abstraction `M_a^0 = chaos(M_l^0)` of Lemma 4.
pub fn initial_abstraction(
    u: &Universe,
    component: &dyn StateObservable,
    chaos_prop: PropId,
    mapper: &StatePropMapper<'_>,
) -> (IncompleteAutomaton, Automaton) {
    let m0 = initial_knowledge(u, component, mapper);
    let a0 = chaotic_closure(&m0, Some(chaos_prop));
    (m0, a0)
}

/// The default proposition mapper: state `s` of component `c` fulfils the
/// proposition `c.s` (with composite-state qualifiers stripped to their
/// outermost name, so `noConvoy::wait` also fulfils `c.noConvoy`).
pub fn default_mapper(component: &str) -> impl Fn(&str) -> Vec<String> + '_ {
    move |state: &str| {
        let mut props = vec![format!("{component}.{state}")];
        if let Some((outer, _)) = state.split_once("::") {
            props.push(format!("{component}.{outer}"));
        }
        props
    }
}

/// Checks that the component's interface matches what the context expects.
pub fn interface_matches(
    component: &dyn StateObservable,
    expected_inputs: SignalSet,
    expected_outputs: SignalSet,
) -> bool {
    let (i, o) = component.interface();
    i == expected_inputs && o == expected_outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_automata::{CHAOS_PROP, S_ALL, S_DELTA};
    use muml_legacy::MealyBuilder;

    #[test]
    fn trivial_initial_abstraction_matches_figure_4() {
        let u = Universe::new();
        let c = MealyBuilder::new(&u, "shuttle2")
            .input("startConvoy")
            .output("convoyProposal")
            .state("noConvoy")
            .initial("noConvoy")
            .build()
            .unwrap();
        let chaos = u.prop(CHAOS_PROP);
        let mapper = default_mapper("shuttle2");
        let (m0, a0) = initial_abstraction(&u, &c, chaos, &mapper);
        // Figure 4(a): one state, no transitions.
        assert_eq!(m0.state_count(), 1);
        assert_eq!(m0.transition_count(), 0);
        // Figure 4(b): the doubled state plus the two chaotic states.
        assert_eq!(a0.state_count(), 4);
        assert!(a0.find_state("noConvoy#0").is_some());
        assert!(a0.find_state("noConvoy#1").is_some());
        assert!(a0.find_state(S_ALL).is_some());
        assert!(a0.find_state(S_DELTA).is_some());
        // props: the known state carries shuttle2.noConvoy; chaos carries p′.
        let nc = a0.find_state("noConvoy#0").unwrap();
        assert!(a0.props_of(nc).contains(u.prop("shuttle2.noConvoy")));
        let sd = a0.find_state(S_DELTA).unwrap();
        assert!(a0.props_of(sd).contains(chaos));
    }

    #[test]
    fn default_mapper_strips_composite_qualifier() {
        let m = default_mapper("c");
        assert_eq!(m("convoy"), vec!["c.convoy".to_owned()]);
        assert_eq!(
            m("noConvoy::wait"),
            vec!["c.noConvoy::wait".to_owned(), "c.noConvoy".into()]
        );
    }

    #[test]
    fn interface_check() {
        let u = Universe::new();
        let c = MealyBuilder::new(&u, "c")
            .input("a")
            .output("b")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(interface_matches(&c, u.signals(["a"]), u.signals(["b"])));
        assert!(!interface_matches(&c, u.signals(["b"]), u.signals(["a"])));
    }
}
