//! Golden-event test: the RailCab faulty-component walkthrough (Figure 6 /
//! Listing 1.4) must emit exactly the pinned sequence of loop events. The
//! fingerprint is timing-free — `Collector::kinds` ignores the nanosecond
//! fields — so the test is deterministic across machines.

use muml_integration::obs::json::ToJson;
use muml_integration::obs::{json, Collector, JsonWriter, LoopEvent, RunOutcome};
use muml_integration::prelude::*;
use muml_integration::railcab::{faulty_shuttle, scenario};

fn run_faulty() -> (IntegrationReport, Collector) {
    let u = Universe::new();
    let mut shuttle = faulty_shuttle(&u);
    let mut sink = Collector::new();
    let report = scenario::integrate_with(&u, &mut shuttle, &mut sink);
    (report, sink)
}

#[test]
fn faulty_walkthrough_event_sequence_is_pinned() {
    let (report, sink) = run_faulty();
    assert!(!report.verdict.proven());
    // Iteration 0: a deadlock counterexample that the shuttle realizes —
    // the frontier probe learns fresh behaviour and the loop continues.
    // Iteration 1: the pattern constraint itself is violated and the
    // counterexample is confirmed — a real fault, fast conflict detection
    // (claim C3).
    // The `learn_step` after `frontier_probed` attributes the probe-learned
    // knowledge to iteration 0 (it used to surface only as a widened
    // baseline of iteration 1's learn step).
    // The `trace_cache_used` events report the prefix-sharing trace cache:
    // iteration 0's frontier probes seed the trie, and iteration 1's
    // counterexample test is answered from it without re-driving the rig.
    assert_eq!(
        sink.kinds(),
        vec![
            "run_started",
            "initial_abstraction",
            "iteration_started",
            "composed",
            "recomposed",
            "model_checked",
            "counterexample_extracted",
            "replay_executed",
            "learn_step",
            "trace_cache_used",
            "frontier_probed",
            "learn_step",
            "iteration_started",
            "composed",
            "recomposed",
            "model_checked",
            "counterexample_extracted",
            "trace_cache_used",
            "replay_executed",
            "learn_step",
            "run_finished",
        ]
    );
}

#[test]
fn faulty_walkthrough_event_payloads_match_the_paper_narrative() {
    let (report, sink) = run_faulty();
    match &sink.events[0] {
        LoopEvent::RunStarted {
            components,
            properties,
        } => {
            assert_eq!(components, &["shuttle2".to_owned()]);
            assert_eq!(*properties, 1);
        }
        e => panic!("expected run_started, got {e:?}"),
    }
    // The trivial initial abstraction M_l^0 (Figure 4a): one state, no
    // known transitions or refusals.
    match &sink.events[1] {
        LoopEvent::InitialAbstraction {
            states,
            transitions,
            refusals,
            ..
        } => {
            assert_eq!((*states, *transitions, *refusals), (1, 0, 0));
        }
        e => panic!("expected initial_abstraction, got {e:?}"),
    }
    // Iteration 0 checks fail on deadlock freedom; iteration 1 on the
    // pattern constraint.
    let checked: Vec<&LoopEvent> = sink
        .events
        .iter()
        .filter(|e| e.kind() == "model_checked")
        .collect();
    assert_eq!(checked.len(), 2);
    for e in &checked {
        match e {
            LoopEvent::ModelChecked {
                holds,
                violated,
                fixpoint_iterations,
                labeled_states,
                ..
            } => {
                assert!(!holds);
                assert!(violated.is_some());
                assert!(*fixpoint_iterations > 0);
                assert!(*labeled_states > 0);
            }
            _ => unreachable!(),
        }
    }
    match checked[1] {
        LoopEvent::ModelChecked { violated, .. } => {
            let v = violated.as_deref().unwrap();
            assert!(v.contains("shuttle2.convoy"), "{v}");
            assert!(v.contains("front.noConvoy"), "{v}");
        }
        _ => unreachable!(),
    }
    // The confirmed counterexample of iteration 1 is not a deadlock.
    let cexs: Vec<&LoopEvent> = sink
        .events
        .iter()
        .filter(|e| e.kind() == "counterexample_extracted")
        .collect();
    // The checker returns *shortest* counterexamples: the very first one
    // is the empty trace (the trivial closure deadlocks immediately).
    match cexs[0] {
        LoopEvent::CounterexampleExtracted {
            deadlock, length, ..
        } => {
            assert!(deadlock);
            assert_eq!(*length, 0);
        }
        _ => unreachable!(),
    }
    match cexs[1] {
        LoopEvent::CounterexampleExtracted { deadlock, .. } => assert!(!deadlock),
        _ => unreachable!(),
    }
    // The first recompose is necessarily cold; every recomposed event
    // accounts for the full product (dirty + reused = composed states).
    let recomposed: Vec<&LoopEvent> = sink
        .events
        .iter()
        .filter(|e| e.kind() == "recomposed")
        .collect();
    assert_eq!(recomposed.len(), 2);
    match recomposed[0] {
        LoopEvent::Recomposed {
            mode,
            reused_states,
            ..
        } => {
            assert_eq!(mode, "cold");
            assert_eq!(*reused_states, 0);
        }
        _ => unreachable!(),
    }
    // The probe-attributed learn step (iteration 0, after the frontier
    // probe) reports the fresh knowledge with nonzero deltas.
    let learns: Vec<&LoopEvent> = sink
        .events
        .iter()
        .filter(|e| e.kind() == "learn_step")
        .collect();
    assert_eq!(learns.len(), 3);
    match learns[1] {
        LoopEvent::LearnStep {
            iteration,
            delta_states,
            delta_transitions,
            delta_refusals,
            ..
        } => {
            assert_eq!(*iteration, 0);
            assert!(delta_states + delta_transitions + delta_refusals > 0);
        }
        _ => unreachable!(),
    }
    // A test drives each input at most twice (record drive, replay); the
    // trace cache may answer a repeat word with fewer — and iteration 1's
    // counterexample is a full hit with zero driven steps.
    let replays: Vec<(usize, usize)> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            LoopEvent::ReplayExecuted {
                steps,
                driven_steps,
                ..
            } => Some((*steps, *driven_steps)),
            _ => None,
        })
        .collect();
    for &(steps, driven) in &replays {
        assert!(driven <= steps * 2, "{driven} > {steps}*2");
    }
    let (steps, driven) = *replays.last().unwrap();
    assert!(steps > 0);
    assert_eq!(driven, 0, "iteration 1's test is served from the cache");
    match sink.events.last().unwrap() {
        LoopEvent::RunFinished {
            iterations,
            outcome,
            ..
        } => {
            assert_eq!(*iterations, 2);
            assert_eq!(*outcome, RunOutcome::RealFault);
        }
        e => panic!("expected run_finished, got {e:?}"),
    }
    // The aggregate stats agree with the event stream.
    assert_eq!(report.stats.iterations, 2);
    assert_eq!(
        report.stats.checker_fixpoint_iterations,
        checked
            .iter()
            .map(|e| match e {
                LoopEvent::ModelChecked {
                    fixpoint_iterations,
                    ..
                } => *fixpoint_iterations,
                _ => unreachable!(),
            })
            .sum::<u64>()
    );
    assert!(report.stats.timings.total_ns() > 0);
}

#[test]
fn faulty_walkthrough_round_trips_through_json_lines() {
    let (_, sink) = run_faulty();
    let mut writer = JsonWriter::new(Vec::new());
    for e in &sink.events {
        muml_integration::obs::EventSink::emit(&mut writer, e);
    }
    let bytes = writer.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), sink.events.len());
    for (line, event) in lines.iter().zip(&sink.events) {
        let parsed = json::parse(line).unwrap();
        assert_eq!(parsed, event.to_json());
        assert_eq!(
            parsed.get("event").and_then(json::Json::as_str),
            Some(event.kind())
        );
    }
}

#[test]
fn session_without_sink_matches_verify_integration() {
    // The builder is a pure re-packaging of `verify_integration` — both
    // entry points must agree on the walkthrough verdict and stats.
    let u = Universe::new();
    let mut s1 = faulty_shuttle(&u);
    let mut s2 = faulty_shuttle(&u);
    let via_session = scenario::integrate(&u, &mut s1);
    let via_fn = {
        let ctx = muml_integration::railcab::front_context(&u);
        let props = vec![scenario::pattern_constraint(&u)];
        let mut units = [LegacyUnit::new(&mut s2, scenario::rear_port_map(&u))];
        verify_integration(&u, &ctx, &props, &mut units, &IntegrationConfig::default()).unwrap()
    };
    assert_eq!(via_session.verdict.proven(), via_fn.verdict.proven());
    assert_eq!(via_session.stats.iterations, via_fn.stats.iterations);
    assert_eq!(
        via_session.stats.tests_executed,
        via_fn.stats.tests_executed
    );
    assert_eq!(via_session.stats.driven_steps, via_fn.stats.driven_steps);
}
