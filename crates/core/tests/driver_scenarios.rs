//! End-to-end scenarios for the iterative behaviour synthesis driver:
//! proofs, real faults (property and deadlock), partial learning, multiple
//! legacy components, and error paths.

use muml_automata::{Automaton, AutomatonBuilder, Universe};
use muml_core::{
    verify_integration, CoreError, IntegrationConfig, IntegrationReport, IntegrationVerdict,
    IterationOutcome, LegacyUnit,
};
use muml_legacy::{HiddenMealy, MealyBuilder, PortMap};
use muml_logic::parse;

/// Context: a controller that forever sends `cmd` and expects `ack` one
/// period later. `ctx.wait` is labelled for properties.
fn controller(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "ctx")
        .output("cmd")
        .input("ack")
        .state("send")
        .initial("send")
        .state("wait")
        .prop("wait", "ctx.wait")
        .transition("send", [], ["cmd"], "wait")
        .transition("wait", ["ack"], [], "send")
        .build()
        .unwrap()
}

/// A conforming component: cmd → (one period) → ack.
fn good_component(u: &Universe) -> HiddenMealy {
    MealyBuilder::new(u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], [], "got")
        .rule("got", [], ["ack"], "idle")
        .build()
        .unwrap()
}

#[test]
fn conforming_component_is_proven() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report = verify_integration(
        &u,
        &ctx,
        &[parse(&u, "AG !legacy.error").unwrap()],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    // The last iteration is the proof.
    assert_eq!(
        report.iterations.last().unwrap().outcome,
        IterationOutcome::Proven
    );
    // Both protocol steps were learned.
    let (states, trans) = report.learned_sizes()[0];
    assert_eq!(states, 2);
    assert_eq!(trans, 2);
    assert!(report.stats.tests_executed > 0);
    assert!(report.stats.iterations >= 2);
}

#[test]
fn property_fault_is_detected_and_confirmed() {
    let u = Universe::new();
    let ctx = controller(&u);
    // The component works protocol-wise but passes through an `error` state.
    let mut c = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("error")
        .rule("idle", ["cmd"], [], "error")
        .rule("error", [], ["ack"], "idle")
        .build()
        .unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report = verify_integration(
        &u,
        &ctx,
        &[parse(&u, "AG !legacy.error").unwrap()],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap();
    match &report.verdict {
        IntegrationVerdict::RealFault {
            property, rendered, ..
        } => {
            assert!(property.contains("legacy.error"));
            assert!(rendered.contains("ctx."));
        }
        v => panic!("expected RealFault, got {v:?}"),
    }
    assert_eq!(
        report.iterations.last().unwrap().outcome,
        IterationOutcome::Fault
    );
}

#[test]
fn deadlocking_component_yields_real_deadlock() {
    let u = Universe::new();
    let ctx = controller(&u);
    // Swallows cmd and never acks.
    let mut c = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("stuck")
        .rule("idle", ["cmd"], [], "stuck")
        .build()
        .unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    match &report.verdict {
        IntegrationVerdict::RealFault { property, .. } => {
            assert!(property.contains("deadlock"));
        }
        v => panic!("expected deadlock fault, got {v:?}"),
    }
}

#[test]
fn proof_without_learning_the_whole_component() {
    let u = Universe::new();
    // The component has a large sub-machine reachable only by a *double*
    // cmd — which this context never sends. Claim C4: the proof succeeds
    // while those states stay unlearned.
    let ctx = controller(&u);
    let mut b = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], [], "got")
        .rule("got", [], ["ack"], "idle")
        // double-cmd enters a 10-state tail the context cannot trigger
        .rule("got", ["cmd"], [], "tail0");
    for i in 0..10 {
        b = b.state(&format!("tail{i}")).rule(
            &format!("tail{i}"),
            [],
            [],
            &format!("tail{}", (i + 1) % 10),
        );
    }
    let mut c = b.build().unwrap();
    let total_states = c.state_count();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    let (learned_states, _) = report.learned_sizes()[0];
    assert!(
        learned_states < total_states,
        "learned {learned_states} of {total_states} states — expected partial learning"
    );
    assert_eq!(learned_states, 2); // only idle and got
}

#[test]
fn two_legacy_components_in_parallel() {
    let u = Universe::new();
    // Context talks to two components in turn: cmd1/ack1 then cmd2/ack2.
    let ctx = AutomatonBuilder::new(&u, "ctx")
        .outputs(["cmd1", "cmd2"])
        .inputs(["ack1", "ack2"])
        .state("s0")
        .initial("s0")
        .state("s1")
        .state("s2")
        .state("s3")
        .transition("s0", [], ["cmd1"], "s1")
        .transition("s1", ["ack1"], ["cmd2"], "s2")
        .transition("s2", ["ack2"], [], "s3")
        .transition("s3", [], ["cmd1"], "s1")
        .build()
        .unwrap();
    let mk = |name: &str, cmd: &str, ack: &str| -> HiddenMealy {
        MealyBuilder::new(&u, name)
            .input(cmd)
            .output(ack)
            .state("idle")
            .initial("idle")
            .state("got")
            .rule("idle", [cmd], [], "got")
            .rule("got", [], [ack], "idle")
            .build()
            .unwrap()
    };
    let mut c1 = mk("l1", "cmd1", "ack1");
    let mut c2 = mk("l2", "cmd2", "ack2");
    let mut units = [
        LegacyUnit::new(&mut c1, PortMap::with_default("p1")),
        LegacyUnit::new(&mut c2, PortMap::with_default("p2")),
    ];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    assert_eq!(report.learned.len(), 2);
    // Both components contributed learned behaviour.
    assert!(report.learned_sizes().iter().all(|&(s, _)| s >= 2));
    // The iteration records are pinned, so keeping the probe's
    // rest-of-system products across the run (rebuilt when a sibling
    // learns) cannot change what probing offers and learns.
    assert_eq!(
        records(&report),
        [
            "[(1, 0, 0), (1, 0, 0)] 16 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 1, 0), (1, 1, 0)] 20 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 2, 1), (2, 2, 0)] 24 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 3, 1), (2, 3, 1)] 16 Proven",
        ]
    );
}

/// One line per iteration: knowledge at its start, product size, outcome.
fn records(report: &IntegrationReport) -> Vec<String> {
    report
        .iterations
        .iter()
        .map(|r| format!("{:?} {} {:?}", r.knowledge, r.composed_states, r.outcome))
        .collect()
}

#[test]
fn multi_legacy_fault_in_second_component() {
    let u = Universe::new();
    let ctx = AutomatonBuilder::new(&u, "ctx")
        .outputs(["cmd1", "cmd2"])
        .inputs(["ack1", "ack2"])
        .state("s0")
        .initial("s0")
        .state("s1")
        .state("s2")
        .state("s3")
        .transition("s0", [], ["cmd1"], "s1")
        .transition("s1", ["ack1"], ["cmd2"], "s2")
        .transition("s2", ["ack2"], [], "s3")
        .transition("s3", [], ["cmd1"], "s1")
        .build()
        .unwrap();
    let mut c1 = MealyBuilder::new(&u, "l1")
        .input("cmd1")
        .output("ack1")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd1"], [], "got")
        .rule("got", [], ["ack1"], "idle")
        .build()
        .unwrap();
    // l2 never answers.
    let mut c2 = MealyBuilder::new(&u, "l2")
        .input("cmd2")
        .output("ack2")
        .state("idle")
        .initial("idle")
        .build()
        .unwrap();
    let mut units = [
        LegacyUnit::new(&mut c1, PortMap::with_default("p1")),
        LegacyUnit::new(&mut c2, PortMap::with_default("p2")),
    ];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    match &report.verdict {
        IntegrationVerdict::RealFault { property, .. } => {
            assert!(property.contains("deadlock"));
        }
        v => panic!("expected deadlock fault, got {v:?}"),
    }
    assert_eq!(
        records(&report),
        [
            "[(1, 0, 0), (1, 0, 0)] 16 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 1, 0), (1, 1, 0)] 20 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 2, 1), (1, 2, 0)] 24 FrontierLearned { component: \"l1\", probes: 2 }",
            "[(2, 3, 1), (1, 2, 0)] 24 Fault",
        ]
    );
}

/// One legacy unit: the rest of the system is the context alone, so one
/// product serves every probe of the run and probing expands each context
/// row at most once, however many probes run.
#[test]
fn one_unit_probing_expands_each_context_row_at_most_once() {
    let u = Universe::new();
    // A driver that pushes `up` six times and then idles, against a counter
    // that announces `top` only on its eighth push: every push is a
    // confirmed deadlock to probe past.
    let pushes = 6;
    let mut b = AutomatonBuilder::new(&u, "driver")
        .output("up")
        .input("top");
    for i in 0..=pushes {
        b = b.state(&format!("d{i}"));
    }
    b = b.initial("d0");
    for i in 0..pushes {
        b = b.transition(&format!("d{i}"), [], ["up"], &format!("d{}", i + 1));
    }
    let ctx = b
        .transition(&format!("d{pushes}"), [], [], &format!("d{pushes}"))
        .build()
        .unwrap();
    let n = 8;
    let mut b = MealyBuilder::new(&u, "counter").input("up").output("top");
    for i in 0..n {
        b = b.state(&format!("c{i}"));
    }
    b = b.initial("c0");
    for i in 0..n - 1 {
        b = b
            .rule(&format!("c{i}"), ["up"], [], &format!("c{}", i + 1))
            .rule(&format!("c{i}"), [], [], &format!("c{i}"));
    }
    let top = format!("c{}", n - 1);
    let mut c = b
        .rule(&top, ["up"], ["top"], &top)
        .rule(&top, [], [], &top)
        .build()
        .unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    let probed = report
        .iterations
        .iter()
        .filter(|r| matches!(r.outcome, IterationOutcome::FrontierLearned { .. }))
        .count();
    assert!(probed >= 2, "{probed} probing iterations");
    let rows = report.stats.probe_rows_expanded;
    assert!(rows > 0);
    assert!(
        rows <= ctx.state_count(),
        "{rows} rows expanded over {probed} probes of a {}-state context",
        ctx.state_count()
    );
}

/// A controller that fires a trigger and then waits for a response; used
/// for deadline (bounded `AF`) properties.
fn deadline_context(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "ctx")
        .output("fire")
        .input("rsp")
        .state("idle")
        .initial("idle")
        .state("armed")
        .prop("armed", "ctx.armed")
        .transition("idle", [], ["fire"], "armed")
        .transition("armed", [], [], "armed") // wait for the response
        .transition("armed", ["rsp"], [], "idle")
        .build()
        .unwrap()
}

/// A component answering `fire` after `lag` quiet periods.
fn laggy_component(u: &Universe, lag: usize) -> HiddenMealy {
    let mut b = MealyBuilder::new(u, "legacy")
        .input("fire")
        .output("rsp")
        .state("idle")
        .initial("idle");
    let mut prev = "idle".to_owned();
    for i in 0..lag {
        let s = format!("w{i}");
        b = b.state(&s);
        b = if i == 0 {
            b.rule(&prev, ["fire"], [], &s)
        } else {
            b.rule(&prev, [], [], &s)
        };
        prev = s;
    }
    b = b.rule(&prev, [], ["rsp"], "idle");
    b.build().unwrap()
}

#[test]
fn deadline_holds_for_fast_component() {
    let u = Universe::new();
    let ctx = deadline_context(&u);
    let mut c = laggy_component(&u, 1);
    let deadline = parse(&u, "AG (!ctx.armed | AF[1,3] legacy.idle)").unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report = verify_integration(
        &u,
        &ctx,
        &[deadline],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
}

#[test]
fn deadline_violation_is_confirmed_with_window_witness() {
    let u = Universe::new();
    let ctx = deadline_context(&u);
    let mut c = laggy_component(&u, 5);
    let deadline = parse(&u, "AG (!ctx.armed | AF[1,3] legacy.idle)").unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report = verify_integration(
        &u,
        &ctx,
        &[deadline],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap();
    match &report.verdict {
        IntegrationVerdict::RealFault {
            property, trace, ..
        } => {
            assert!(property.contains("AF[1,3]"));
            // prefix into `armed` plus the 3-step window without response
            assert!(trace.len() >= 4, "witness too short: {trace:?}");
        }
        v => panic!("expected deadline fault, got {v:?}"),
    }
}

#[test]
fn non_compositional_property_is_rejected() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let err = verify_integration(
        &u,
        &ctx,
        &[parse(&u, "EF legacy.idle").unwrap()],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::NotCompositional { .. }));
}

#[test]
fn iteration_cap_is_reported() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let err = verify_integration(
        &u,
        &ctx,
        &[],
        &mut units,
        &IntegrationConfig::default().with_max_iterations(1),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::IterationLimit(1)));
}

#[test]
fn iteration_records_tell_the_figure2_story() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    // Knowledge grows monotonically across iterations.
    let sizes: Vec<usize> = report
        .iterations
        .iter()
        .map(|r| {
            r.knowledge
                .iter()
                .map(|(s, t, rf)| s + t + rf)
                .sum::<usize>()
        })
        .collect();
    for w in sizes.windows(2) {
        assert!(w[0] <= w[1], "knowledge must grow: {sizes:?}");
    }
    // The narrative renderer mentions the proof.
    let text = muml_core::render_report(&report);
    assert!(text.contains("PROVEN"));
}

#[test]
fn batched_counterexamples_agree_and_save_iterations() {
    // Section-7 improvement: deriving several deadlock counterexamples per
    // verification run must not change any verdict, and may only reduce the
    // number of iterations.
    let u = Universe::new();
    let run = |batch: usize, faulty: bool| {
        let ctx = controller(&u);
        let mut c = if faulty {
            MealyBuilder::new(&u, "legacy")
                .input("cmd")
                .output("ack")
                .state("idle")
                .initial("idle")
                .state("stuck")
                .rule("idle", ["cmd"], [], "stuck")
                .build()
                .unwrap()
        } else {
            good_component(&u)
        };
        let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
        verify_integration(
            &u,
            &ctx,
            &[],
            &mut units,
            &IntegrationConfig::default().with_batch_counterexamples(batch),
        )
        .unwrap()
    };
    for faulty in [false, true] {
        let single = run(1, faulty);
        let batched = run(8, faulty);
        assert_eq!(single.verdict.proven(), batched.verdict.proven());
        assert!(
            batched.stats.iterations <= single.stats.iterations,
            "batched {} vs single {}",
            batched.stats.iterations,
            single.stats.iterations
        );
    }
}

#[test]
fn extra_component_outputs_nobody_listens_to_are_harmless() {
    // The component emits `telemetry` alongside its protocol messages; the
    // context neither declares nor consumes it. The signal stays open
    // (symbolic) in every composition, and the integration is still proven.
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .output("telemetry")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], ["telemetry"], "got")
        .rule("got", [], ["ack", "telemetry"], "idle")
        .build()
        .unwrap();
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    // The learned transitions record the real outputs, telemetry included.
    let learned = report.learned[0].known_automaton();
    let telemetry = u.signal("telemetry");
    assert!(learned
        .transitions()
        .any(|(_, t)| learned.guard(t.guard).output_support().contains(telemetry)));
}

#[test]
fn custom_prop_mapper_drives_property_faults() {
    // A user-supplied mapper tags internal states with domain propositions;
    // the pattern constraint speaks that vocabulary.
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = MealyBuilder::new(&u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("overload")
        .rule("idle", ["cmd"], [], "overload")
        .rule("overload", [], ["ack"], "idle")
        .build()
        .unwrap();
    let unit = LegacyUnit::new(&mut c, PortMap::with_default("port")).with_mapper(|state| {
        if state == "overload" {
            vec!["danger".to_owned()]
        } else {
            vec![]
        }
    });
    let mut units = [unit];
    let report = verify_integration(
        &u,
        &ctx,
        &[parse(&u, "AG !danger").unwrap()],
        &mut units,
        &IntegrationConfig::default(),
    )
    .unwrap();
    match &report.verdict {
        IntegrationVerdict::RealFault { property, .. } => {
            assert!(property.contains("danger"));
        }
        v => panic!("expected fault via custom mapper, got {v:?}"),
    }
}

#[test]
fn iteration_records_carry_listing_counterexamples() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = good_component(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let report =
        verify_integration(&u, &ctx, &[], &mut units, &IntegrationConfig::default()).unwrap();
    // Every non-final iteration has a rendered counterexample mentioning
    // both component names; the proof iteration has none.
    for rec in &report.iterations[..report.iterations.len() - 1] {
        let cex = rec
            .counterexample
            .as_deref()
            .expect("violated iterations have a cex");
        assert!(cex.contains("ctx."), "{cex}");
        assert!(cex.contains("legacy."), "{cex}");
    }
    assert!(report.iterations.last().unwrap().counterexample.is_none());
}
