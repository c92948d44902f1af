//! The incremental recomposition cache against cold rebuilds: after every
//! learn step, [`CompositionCache::recompose`] must yield the product a
//! fresh [`compose`] over fresh closures yields, up to a renaming of states
//! ([`assert_same_product`]), whichever path — splice or cold fallback —
//! the cache took. A cold rebuild runs the engine `compose` runs, so its
//! product is `compose`'s bit for bit.

use muml_automata::{
    chaotic_closure, compose, Automaton, AutomatonBuilder, ComposeOptions, Composition,
    CompositionCache, GuardId, IncompleteAutomaton, Label, LearnDelta, Observation, RecomposeMode,
    SignalSet, Universe,
};
use muml_testkit::assert_same_product;

fn context(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "ctx")
        .output("ping")
        .input("pong")
        .state("idle")
        .initial("idle")
        .state("waiting")
        .transition("idle", [], ["ping"], "waiting")
        .transition("waiting", ["pong"], [], "idle")
        .transition("waiting", [], [], "waiting")
        .build()
        .unwrap()
}

fn legacy(u: &Universe) -> IncompleteAutomaton {
    IncompleteAutomaton::trivial(
        u,
        "legacy",
        u.signals(["ping"]),
        u.signals(["pong"]),
        "start",
    )
}

fn cold_oracle(ctx: &Automaton, m: &IncompleteAutomaton) -> Composition {
    let closure = chaotic_closure(m, None);
    compose(&[ctx, &closure], &ComposeOptions::default()).unwrap()
}

#[test]
fn incremental_matches_cold_across_learning() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let mut cache = CompositionCache::new(&ctx);
    let opts = ComposeOptions::default();
    let d0 = m.take_delta();
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d0], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert_same_product("cold start", cache.composition(), &cold_oracle(&ctx, &m));

    // Learn a regular run: the start state gains a transition and a new
    // state appears (the initial set is unchanged).
    let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
    m.learn(&Observation::regular(
        vec!["start".into(), "started".into()],
        vec![ping],
    ))
    .unwrap();
    let d1 = m.take_delta();
    assert!(!d1.initial_changed);
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d1], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert_same_product("first step", cache.composition(), &cold_oracle(&ctx, &m));

    // Refuse the empty interaction at the new state: only its copies'
    // rows are invalidated; the chaos tail of the product must be reused.
    m.learn(&Observation::blocked(
        vec!["start".into(), "started".into()],
        vec![ping, Label::EMPTY],
    ))
    .unwrap();
    let d2 = m.take_delta();
    assert!(!d2.initial_changed);
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d2], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert!(info.reused_states > 0, "{info:?}");
    assert_same_product("refusal", cache.composition(), &cold_oracle(&ctx, &m));

    // And one more regular step out of the refusing state.
    let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
    m.learn(&Observation::regular(
        vec!["start".into(), "started".into(), "done".into()],
        vec![ping, pong],
    ))
    .unwrap();
    let d3 = m.take_delta();
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d3], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert_same_product("second step", cache.composition(), &cold_oracle(&ctx, &m));
    // `dirty + reused` is the reachable product, as the loop reports it.
    assert_eq!(
        info.dirty_states + info.reused_states,
        cache.composition().reachable_state_count()
    );
}

#[test]
fn empty_delta_is_a_no_op() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let mut cache = CompositionCache::new(&ctx);
    let opts = ComposeOptions::default();
    let d = m.take_delta();
    cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    let before = cache.composition().automaton.clone();
    let info = cache
        .recompose(
            std::slice::from_ref(&m),
            &[LearnDelta::default()],
            None,
            &opts,
        )
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert_eq!(info.dirty_states, 0);
    assert_eq!(cache.composition().automaton, before);
    assert_same_product("empty delta", cache.composition(), &cold_oracle(&ctx, &m));
}

/// More than half of the reachable rows dirty: the cache rebuilds cold
/// instead of splicing.
#[test]
fn dirtying_more_than_half_the_rows_rebuilds_cold() {
    let u = Universe::new();
    // A silent three-state cycle that declares `x` but never sends it, so
    // the legacy component can only take the silent step it learned: every
    // reachable product state pairs a context state with a copy of `s`.
    let ctx = AutomatonBuilder::new(&u, "ctx")
        .output("x")
        .state("c0")
        .initial("c0")
        .state("c1")
        .state("c2")
        .transition("c0", [], [], "c1")
        .transition("c1", [], [], "c2")
        .transition("c2", [], [], "c0")
        .build()
        .unwrap();
    let mut m = IncompleteAutomaton::trivial(&u, "legacy", u.signals(["x"]), SignalSet::EMPTY, "s");
    m.learn(&Observation::regular(
        vec!["s".into(), "s".into()],
        vec![Label::EMPTY],
    ))
    .unwrap();
    let mut cache = CompositionCache::new(&ctx);
    let opts = ComposeOptions::default();
    let d = m.take_delta();
    cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    assert_eq!(cache.composition().reachable_state_count(), 6);
    // Refusing `x` at `s` dirties both copies of `s`, so every row.
    let x = Label::new(u.signals(["x"]), SignalSet::EMPTY);
    m.learn(&Observation::blocked(vec!["s".into()], vec![x]))
        .unwrap();
    let d = m.take_delta();
    assert!(!d.initial_changed);
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert_same_product(
        "over half dirty",
        cache.composition(),
        &cold_oracle(&ctx, &m),
    );
}

/// Asserts that two products are equal bit for bit: state ids, names,
/// labels and rows with their guard ids, the guard table, initial states,
/// origin tuples, CSR, work counters and heap footprint.
fn assert_bit_identical(what: &str, lhs: &Composition, rhs: &Composition) {
    let (l, r) = (&lhs.automaton, &rhs.automaton);
    assert_eq!(l, r, "{what}: automata");
    assert_eq!(l.guard_count(), r.guard_count(), "{what}: guard tables");
    for id in 0..l.guard_count() as u32 {
        assert_eq!(
            l.guard(GuardId(id)),
            r.guard(GuardId(id)),
            "{what}: guard {id}"
        );
    }
    for s in l.state_ids() {
        assert_eq!(
            l.transitions_from(s),
            r.transitions_from(s),
            "{what}: row {}",
            s.0
        );
        assert_eq!(lhs.tuple(s), rhs.tuple(s), "{what}: tuple of {}", s.0);
    }
    assert_eq!(lhs.csr, rhs.csr, "{what}: CSR");
    assert_eq!(lhs.stats, rhs.stats, "{what}: compose stats");
    assert_eq!(lhs.heap_bytes(), rhs.heap_bytes(), "{what}: heap bytes");
}

/// A cold rebuild runs the engine `compose` runs over the same parts, so
/// its product is `compose`'s of the cache's closures bit for bit, at every
/// stage of learning.
#[test]
fn a_cold_rebuild_is_compose_bit_for_bit() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let opts = ComposeOptions::default();
    let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
    let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
    let steps = [
        Observation::regular(vec!["start".into(), "started".into()], vec![ping]),
        Observation::blocked(
            vec!["start".into(), "started".into()],
            vec![ping, Label::EMPTY],
        ),
        Observation::regular(
            vec!["start".into(), "started".into(), "done".into()],
            vec![ping, pong],
        ),
    ];
    for stage in 0..=steps.len() {
        if stage > 0 {
            m.learn(&steps[stage - 1]).unwrap();
        }
        let deltas = [m.take_delta()];
        let mut cache = CompositionCache::new(&ctx);
        let info = cache
            .recompose(std::slice::from_ref(&m), &deltas, None, &opts)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Cold);
        let parts: Vec<&Automaton> = std::iter::once(&ctx).chain(cache.closures()).collect();
        let fresh = compose(&parts, &opts).unwrap();
        assert_bit_identical(&format!("stage {stage}"), cache.composition(), &fresh);
    }
}

#[test]
fn initial_growth_forces_cold_rebuild() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let mut cache = CompositionCache::new(&ctx);
    let opts = ComposeOptions::default();
    let d = m.take_delta();
    cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    // An observation starting in a *new* state grows Q.
    let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
    m.learn(&Observation::regular(
        vec!["alt".into(), "start".into()],
        vec![pong],
    ))
    .unwrap();
    let d = m.take_delta();
    assert!(d.initial_changed);
    let info = cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert_same_product(
        "initial growth",
        cache.composition(),
        &cold_oracle(&ctx, &m),
    );
}
