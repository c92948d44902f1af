//! The paper's walkthrough: every figure and listing of Sections 3–5,
//! regenerated from the implementation.
//!
//! The paper embeds the legacy rear shuttle (`shuttle2`) directly against
//! the known front role (`shuttle1`) — Listing 1.1 shows both partners
//! exchanging messages within one step, i.e. a delay-free link — so the
//! walkthrough composes the legacy closure with
//! [`front_context`] directly.
//!
//! Note on concrete traces: our model checker returns *shortest*
//! counterexamples, while the authors' checker returned a longer one in
//! Listing 1.1; the artefacts here match the paper's in kind (the same
//! verdicts, listing formats, and learned models), not byte-for-byte.

use muml_automata::{
    chaotic_automaton, to_dot, Automaton, IncompleteAutomaton, Universe, CHAOS_PROP,
};
use muml_core::obs::EventSink;
use muml_core::{default_mapper, initial_abstraction};
use muml_core::{IntegrationReport, IntegrationSession, LegacyUnit};
use muml_legacy::{execute_expected_trace, HiddenMealy, PortMap};
use muml_logic::{parse, Formula};

use crate::front::front_context;
use crate::messages::{rear_inputs, rear_outputs};
use crate::rear::{correct_shuttle, faulty_shuttle, full_shuttle};

/// The pattern constraint, phrased over the embedded component's state
/// propositions: `AG ¬(shuttle2.convoy ∧ front.noConvoy)`.
pub fn pattern_constraint(u: &Universe) -> Formula {
    parse(u, "AG !(shuttle2.convoy & front.noConvoy)").unwrap()
}

/// The port map of the legacy rear shuttle: all its messages cross the
/// `rearRole` port (as in the paper's `[Message] … portName="rearRole"`).
pub fn rear_port_map(u: &Universe) -> PortMap {
    let mut pm = PortMap::with_default("rearRole");
    pm.assign(rear_inputs(u).union(rear_outputs(u)), "rearRole");
    pm
}

/// Figure 3: the maximal chaotic automaton over the rear interface (DOT).
pub fn fig3_chaotic_automaton(u: &Universe) -> String {
    let mc = chaotic_automaton(u, "chaos", rear_inputs(u), rear_outputs(u), None);
    to_dot(&mc)
}

/// Figure 4: the trivial initial incomplete automaton `M_l^0` (4a) and its
/// chaotic closure `M_a^0` (4b).
pub fn fig4_initial(u: &Universe) -> (IncompleteAutomaton, Automaton) {
    let shuttle = correct_shuttle(u);
    let chaos = u.prop(CHAOS_PROP);
    let mapper = default_mapper("shuttle2");
    initial_abstraction(u, &shuttle, chaos, &mapper)
}

/// Figure 5: the known context (front role) as DOT.
pub fn fig5_context(u: &Universe) -> String {
    to_dot(&front_context(u))
}

/// Listing 1.1: an early counterexample of the iterative synthesis — a run
/// into the chaotic closure that manifests a deadlock at `s_δ`, rendered in
/// the paper's listing style. (Our model checker returns *shortest*
/// counterexamples, so the first few iterations produce shorter runs than
/// the authors' Listing 1.1; we show the first one that actually reaches
/// the chaotic states, which is the paper's situation.)
pub fn listing_1_1(u: &Universe) -> String {
    let mut shuttle = correct_shuttle(u);
    let report = integrate(u, &mut shuttle);
    report
        .iterations
        .iter()
        .filter_map(|r| r.counterexample.as_deref())
        .find(|c| c.contains("s_delta") || c.contains("s_all"))
        .unwrap_or_else(|| {
            report
                .iterations
                .first()
                .and_then(|r| r.counterexample.as_deref())
                .unwrap_or("")
        })
        .to_owned()
}

/// Listings 1.2 and 1.3: the minimal-probe recording and the
/// full-instrumentation replay trace of testing the negotiation prefix of
/// the paper's counterexample (propose → rejected) against the *faulty*
/// shuttle. The replay reveals the "blocking state": the shuttle is already
/// in `convoy` when the rejection arrives — "a conflict with expected
/// behavior based on the initial counterexample".
pub fn listings_1_2_and_1_3(u: &Universe) -> (String, String) {
    use muml_automata::{Label, SignalSet};
    let mut shuttle = faulty_shuttle(u);
    let ports = rear_port_map(u);
    let expected = vec![
        Label::new(SignalSet::EMPTY, u.signals(["convoyProposal"])),
        Label::new(u.signals(["convoyProposalRejected"]), SignalSet::EMPTY),
    ];
    let outcome =
        execute_expected_trace(&mut shuttle, &expected, u, &ports).expect("deterministic");
    (
        outcome.recording.monitor_trace(u, &ports).to_string(),
        outcome.monitor.to_string(),
    )
}

/// Runs the full integration loop for a given shuttle.
pub fn integrate(u: &Universe, shuttle: &mut HiddenMealy) -> IntegrationReport {
    let mut sink = muml_core::obs::NullSink;
    integrate_with(u, shuttle, &mut sink)
}

/// Runs the full integration loop for a given shuttle, reporting every
/// [`muml_core::obs::LoopEvent`] of the run to `sink` — the instrumented
/// walkthrough behind `repro fig2 --json` and the golden-event test.
pub fn integrate_with(
    u: &Universe,
    shuttle: &mut HiddenMealy,
    sink: &mut dyn EventSink,
) -> IntegrationReport {
    let ctx = front_context(u);
    let ports = rear_port_map(u);
    IntegrationSession::new(u, &ctx)
        .formula(pattern_constraint(u))
        .unit(LegacyUnit::new(shuttle, ports))
        .sink(sink)
        .run()
        .expect("integration loop runs to a verdict")
}

/// Figure 6 / Listing 1.4: integrating the faulty shuttle. Returns the
/// report (a real fault) and the learned model as DOT (Figure 6).
pub fn integrate_faulty(u: &Universe) -> (IntegrationReport, String) {
    let mut shuttle = faulty_shuttle(u);
    let report = integrate(u, &mut shuttle);
    let dot = to_dot(&report.learned[0].known_automaton());
    (report, dot)
}

/// Figure 7: integrating the correct shuttle. Returns the report (proven)
/// and the learned model as DOT (Figure 7).
pub fn integrate_correct(u: &Universe) -> (IntegrationReport, String) {
    let mut shuttle = correct_shuttle(u);
    let report = integrate(u, &mut shuttle);
    let dot = to_dot(&report.learned[0].known_automaton());
    (report, dot)
}

/// Integrating the full-protocol shuttle (exercises the break-convoy
/// machinery as well).
pub fn integrate_full(u: &Universe) -> IntegrationReport {
    let mut shuttle = full_shuttle(u);
    integrate(u, &mut shuttle)
}

/// Listing 1.5: the successful learning step — the correct shuttle driven
/// along the negotiation (propose → rejected → propose → startConvoy),
/// monitored with full instrumentation.
pub fn listing_1_5(u: &Universe) -> String {
    use muml_automata::{Label, SignalSet};
    let mut shuttle = correct_shuttle(u);
    let ports = rear_port_map(u);
    let proposal = u.signals(["convoyProposal"]);
    let rejected = u.signals(["convoyProposalRejected"]);
    let start = u.signals(["startConvoy"]);
    let expected = vec![
        Label::new(SignalSet::EMPTY, proposal),
        Label::new(rejected, SignalSet::EMPTY),
        Label::new(SignalSet::EMPTY, proposal),
        Label::new(start, SignalSet::EMPTY),
    ];
    let outcome =
        execute_expected_trace(&mut shuttle, &expected, u, &ports).expect("deterministic");
    assert!(outcome.confirmed, "the correct shuttle realizes the trace");
    outcome.monitor.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_core::IntegrationVerdict;

    #[test]
    fn listing_1_1_shape() {
        let u = Universe::new();
        let text = listing_1_1(&u);
        // The counterexample involves the front role and the chaotic states.
        assert!(text.contains("shuttle1."), "{text}");
        assert!(text.contains("shuttle2."), "{text}");
        assert!(text.contains("s_delta") || text.contains("s_all"), "{text}");
    }

    #[test]
    fn listings_1_2_and_1_3_shapes() {
        let u = Universe::new();
        let (minimal, full) = listings_1_2_and_1_3(&u);
        // Listing 1.2: messages only, on port rearRole.
        assert!(!minimal.contains("CurrentState"));
        assert!(minimal.is_empty() || minimal.contains("portName=\"rearRole\""));
        // Listing 1.3: states and timing as well.
        assert!(full.contains("[CurrentState]"));
    }

    #[test]
    fn faulty_shuttle_fault_matches_listing_1_4() {
        let u = Universe::new();
        let (report, _dot) = integrate_faulty(&u);
        match &report.verdict {
            IntegrationVerdict::RealFault {
                property, rendered, ..
            } => {
                assert!(property.contains("shuttle2.convoy"));
                assert!(property.contains("front.noConvoy"));
                // Listing 1.4: the violation manifests with shuttle1 in
                // (noConvoy::)answer and shuttle2 in convoy:
                //   shuttle1.noConvoy::default, shuttle2.noConvoy
                //   shuttle2.convoyProposal!, shuttle1.convoyProposal?
                //   shuttle1.noConvoy::answer, shuttle2.convoy
                assert!(rendered.contains("shuttle2.convoy"), "{rendered}");
                assert!(rendered.contains("shuttle1.noConvoy::answer"), "{rendered}");
                assert!(rendered.contains("shuttle2.convoyProposal!"), "{rendered}");
                assert!(rendered.contains("shuttle1.convoyProposal?"), "{rendered}");
            }
            v => panic!("expected a real fault, got {v:?}"),
        }
        // Fast conflict detection (claim C3): a handful of iterations.
        assert!(
            report.stats.iterations <= 10,
            "took {} iterations",
            report.stats.iterations
        );
    }

    #[test]
    fn correct_shuttle_is_proven_with_partial_learning() {
        let u = Universe::new();
        let (report, dot) = integrate_correct(&u);
        assert!(report.verdict.proven(), "{:?}", report.verdict);
        // Figure 7: the learned model covers the negotiation states.
        let learned = &report.learned[0];
        assert!(learned.find_state("noConvoy::default").is_some());
        assert!(learned.find_state("noConvoy::wait").is_some());
        assert!(learned.find_state("convoy").is_some());
        assert!(dot.contains("noConvoy::wait"));
        // The conservative shuttle never breaks convoys, so nothing about
        // the break machinery was learned (claim C4: partial learning).
        let known = learned.known_automaton();
        assert!(known.transitions().all(|(_, t)| {
            !known
                .guard(t.guard)
                .input_support()
                .contains(u.signal("breakConvoyRejected"))
        }));
    }

    #[test]
    fn full_shuttle_is_proven() {
        let u = Universe::new();
        let report = integrate_full(&u);
        assert!(report.verdict.proven(), "{:?}", report.verdict);
        // The full shuttle's break cycle was learned.
        let learned = &report.learned[0];
        assert!(learned.find_state("convoy::breaking").is_some());
    }

    #[test]
    fn listing_1_5_shape() {
        let u = Universe::new();
        let text = listing_1_5(&u);
        assert!(text.contains("[CurrentState] name=\"noConvoy::default\""));
        assert!(text.contains(
            "[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\""
        ));
        assert!(text
            .contains("[Message] name=\"startConvoy\", portName=\"rearRole\", type=\"incoming\""));
        assert!(text.contains("[Timing] count=4"));
        assert!(text.contains("[CurrentState] name=\"convoy\""));
    }

    #[test]
    fn figures_render() {
        let u = Universe::new();
        assert!(fig3_chaotic_automaton(&u).contains("s_all"));
        let (m0, a0) = fig4_initial(&u);
        assert_eq!(m0.state_count(), 1);
        assert_eq!(a0.state_count(), 4);
        assert!(fig5_context(&u).contains("noConvoy::default"));
    }
}
