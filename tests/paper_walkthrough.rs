//! The complete paper walkthrough as one integration test: every figure
//! and listing of Sections 3–5, asserted structurally (see EXPERIMENTS.md
//! for the paper-vs-measured record).

use muml_integration::automata::CHAOS_PROP;
use muml_integration::prelude::*;
use muml_integration::railcab::{
    correct_shuttle, distance_coordination, front_context, rear_inputs, rear_outputs, scenario,
};

#[test]
fn figure_1_pattern_verifies() {
    let u = Universe::new();
    let pattern = distance_coordination(&u);
    let report = verify_pattern(&pattern).expect("checkable");
    assert!(report.ok(), "{:?}", report.violation.map(|c| c.description));
    // constraint + two role invariants + deadlock freedom were checked
    assert_eq!(report.properties.len(), 4);
}

#[test]
fn figure_3_chaotic_automaton_over_rear_interface() {
    let u = Universe::new();
    let mc = chaotic_automaton(&u, "chaos", rear_inputs(&u), rear_outputs(&u), None);
    assert_eq!(mc.state_count(), 2);
    // s_∀ accepts every interaction (2^6 member labels on each edge)
    let s_all = mc.find_state("s_all").unwrap();
    assert_eq!(mc.transitions_from(s_all).len(), 2);
    let s_delta = mc.find_state("s_delta").unwrap();
    assert!(mc.is_deadlock(s_delta));
}

#[test]
fn figure_4_initial_synthesis() {
    let u = Universe::new();
    let (m0, a0) = scenario::fig4_initial(&u);
    assert_eq!(m0.state_count(), 1);
    assert_eq!(m0.transition_count(), 0);
    assert_eq!(a0.state_count(), 4);
    // Lemma 4 / Theorem 1: the real shuttle refines the initial abstraction
    // (checked prop-free on both sides; the chaos wildcard covers s_∀/s_δ).
    let chaos = u.prop(CHAOS_PROP);
    let shuttle = correct_shuttle(&u);
    assert!(m0.observation_conforming(&shuttle_automaton(&u)));
    let trivial = IncompleteAutomaton::trivial(
        &u,
        "shuttle2",
        rear_inputs(&u),
        rear_outputs(&u),
        "noConvoy::default",
    );
    let closure = chaotic_closure(&trivial, Some(chaos));
    let opts = muml_integration::automata::RefineOptions {
        wildcard_props: muml_integration::automata::PropSet::singleton(chaos),
        ..Default::default()
    };
    let bare = muml_integration::automata::restrict_interface(
        &shuttle_automaton(&u),
        rear_inputs(&u),
        rear_outputs(&u),
        muml_integration::automata::PropSet::EMPTY,
    )
    .unwrap();
    assert_eq!(
        muml_integration::automata::refines_with(&bare, &closure, &opts).unwrap(),
        None
    );
    drop(shuttle);
}

/// The correct shuttle's true behaviour as an automaton (the hidden machine
/// mirrored — used only for validating the theorems, never by the method).
fn shuttle_automaton(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "shuttle2")
        .inputs([
            "convoyProposalRejected",
            "startConvoy",
            "breakConvoyRejected",
            "breakConvoyAccepted",
        ])
        .outputs(["convoyProposal", "breakConvoyProposal"])
        .state("noConvoy::default")
        .initial("noConvoy::default")
        .state("noConvoy::wait")
        .state("convoy")
        .transition(
            "noConvoy::default",
            [],
            ["convoyProposal"],
            "noConvoy::wait",
        )
        .transition(
            "noConvoy::wait",
            ["convoyProposalRejected"],
            [],
            "noConvoy::default",
        )
        .transition("noConvoy::wait", ["startConvoy"], [], "convoy")
        .transition("convoy", [], [], "convoy")
        .build()
        .unwrap()
}

#[test]
fn figure_5_context_structure() {
    let u = Universe::new();
    let ctx = front_context(&u);
    assert_eq!(ctx.state_count(), 4);
    for name in ["noConvoy::default", "noConvoy::answer", "convoy", "break"] {
        assert!(ctx.find_state(name).is_some(), "missing {name}");
    }
}

#[test]
fn listing_1_1_reaches_chaos() {
    let u = Universe::new();
    let text = scenario::listing_1_1(&u);
    // The counterexample walks the negotiation into the chaotic closure and
    // manifests the deadlock there, as in the paper.
    assert!(text.contains("convoyProposal!"), "{text}");
    assert!(text.contains("s_delta"), "{text}");
}

#[test]
fn listings_1_2_and_1_3_match_paper_format() {
    let u = Universe::new();
    let (minimal, full) = scenario::listings_1_2_and_1_3(&u);
    // Listing 1.2 — exactly the two message records.
    let expected_minimal = "\
[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"
[Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\"
";
    assert_eq!(minimal, expected_minimal);
    // Listing 1.3 — the blocking state: the faulty shuttle is in `convoy`
    // when the rejection arrives.
    assert!(full.contains("[CurrentState] name=\"noConvoy\""));
    assert!(full.contains("[Timing] count=1"));
    assert!(full.contains("[CurrentState] name=\"convoy\""));
    assert!(full.contains(
        "[Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\""
    ));
}

#[test]
fn figure_6_listing_1_4_faulty_shuttle() {
    let u = Universe::new();
    let (report, fig6_dot) = scenario::integrate_faulty(&u);
    match &report.verdict {
        IntegrationVerdict::RealFault {
            property, rendered, ..
        } => {
            // Listing 1.4, structurally identical:
            assert!(rendered.contains("shuttle2.convoyProposal!"));
            assert!(rendered.contains("shuttle1.convoyProposal?"));
            assert!(rendered.contains("shuttle1.noConvoy::answer, shuttle2.convoy"));
            assert!(property.contains("shuttle2.convoy"));
        }
        v => panic!("expected the conflict, got {v:?}"),
    }
    // Figure 6: the synthesized model shows the premature convoy entry.
    assert!(fig6_dot.contains("convoy"));
    // Claim C3: fast conflict detection.
    assert!(report.stats.iterations <= 5, "{}", report.stats.iterations);
}

#[test]
fn figure_7_listing_1_5_correct_shuttle() {
    let u = Universe::new();
    let (report, fig7_dot) = scenario::integrate_correct(&u);
    assert!(report.verdict.proven());
    assert!(fig7_dot.contains("noConvoy::default"));
    assert!(fig7_dot.contains("noConvoy::wait"));
    let listing = scenario::listing_1_5(&u);
    for needle in [
        "[CurrentState] name=\"noConvoy::default\"",
        "[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\"",
        "[Timing] count=1",
        "[CurrentState] name=\"noConvoy::wait\"",
        "[Message] name=\"convoyProposalRejected\", portName=\"rearRole\", type=\"incoming\"",
        "[Message] name=\"startConvoy\", portName=\"rearRole\", type=\"incoming\"",
        "[CurrentState] name=\"convoy\"",
    ] {
        assert!(listing.contains(needle), "missing {needle} in\n{listing}");
    }
}

#[test]
fn figure_2_process_narrative() {
    let u = Universe::new();
    let (report, _) = scenario::integrate_correct(&u);
    let narrative = muml_integration::core::render_report(&report);
    assert!(narrative.contains("PROVEN"));
    assert!(narrative.contains("iteration 0"));
    // every iteration before the proof learned something or tested
    assert!(report.stats.tests_executed > 0);
}
