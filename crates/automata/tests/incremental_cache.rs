//! The incremental recomposition cache against cold rebuilds: after every
//! learn step, [`CompositionCache::recompose`] must yield the product a
//! fresh [`compose`] over fresh closures yields, up to a renaming of states
//! ([`assert_same_product`]), whichever path — splice or cold fallback —
//! the cache took.

use muml_automata::{
    chaotic_closure, compose, Automaton, AutomatonBuilder, ComposeOptions, Composition,
    CompositionCache, IncompleteAutomaton, Label, LearnDelta, Observation, RecomposeMode,
    SignalSet, StateId, Universe, WarmCarry,
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

/// Carried states keep their old satisfaction bits, which only hold for
/// states still reachable in the new product.
fn assert_carry_is_reachable(carry: &WarmCarry, comp: &Composition) {
    let reachable = comp.automaton.reachable_states();
    for new in carry.remap.iter().flatten() {
        assert!(
            reachable.contains(&StateId(*new)),
            "carried state {new} is unreachable"
        );
    }
}

#[test]
fn incremental_matches_cold_across_learning() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let mut cache = CompositionCache::new(&ctx);
    cache.set_threshold(1.0);
    let opts = ComposeOptions::default();
    let d0 = m.take_delta();
    let (info, carry) = cache
        .recompose(std::slice::from_ref(&m), &[d0], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert!(carry.is_none());
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
    let (info, carry) = cache
        .recompose(std::slice::from_ref(&m), &[d1], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    let carry = carry.unwrap();
    assert_same_product("first step", cache.composition(), &cold_oracle(&ctx, &m));
    assert_carry_is_reachable(&carry, cache.composition());
    assert_eq!(carry.old_states, carry.remap.len());
    assert_eq!(
        carry.new_states,
        cache.composition().automaton.state_count()
    );

    // Refuse the empty interaction at the new state: only its copies'
    // rows are invalidated; the chaos tail of the product is out of the
    // dirty cone and must be both reused and carried.
    m.learn(&Observation::blocked(
        vec!["start".into(), "started".into()],
        vec![ping, Label::EMPTY],
    ))
    .unwrap();
    let d2 = m.take_delta();
    assert!(!d2.initial_changed);
    let (info, carry) = cache
        .recompose(std::slice::from_ref(&m), &[d2], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    let carry = carry.unwrap();
    assert!(info.reused_states > 0, "{info:?}");
    assert!(carry.carried() > 0, "{carry:?}");
    assert_same_product("refusal", cache.composition(), &cold_oracle(&ctx, &m));
    assert_carry_is_reachable(&carry, cache.composition());

    // And one more regular step out of the refusing state.
    let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
    m.learn(&Observation::regular(
        vec!["start".into(), "started".into(), "done".into()],
        vec![ping, pong],
    ))
    .unwrap();
    let d3 = m.take_delta();
    let (info, carry) = cache
        .recompose(std::slice::from_ref(&m), &[d3], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert!(carry.is_some());
    assert_same_product("second step", cache.composition(), &cold_oracle(&ctx, &m));
    // `dirty + reused` is the reachable product, as the loop reports it.
    assert_eq!(
        info.dirty_states + info.reused_states,
        cache.composition().reachable_state_count()
    );
}

#[test]
fn empty_delta_is_a_no_op_with_full_carry() {
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
    let (info, carry) = cache
        .recompose(
            std::slice::from_ref(&m),
            &[LearnDelta::default()],
            None,
            &opts,
        )
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Incremental);
    assert_eq!(info.dirty_states, 0);
    let carry = carry.unwrap();
    assert_eq!(carry.carried(), before.state_count());
    for (old, new) in carry.remap.iter().enumerate() {
        assert_eq!(*new, Some(old as u32));
    }
    assert_eq!(cache.composition().automaton, before);
    assert_same_product("empty delta", cache.composition(), &cold_oracle(&ctx, &m));
}

#[test]
fn threshold_zero_forces_cold_fallback() {
    let u = Universe::new();
    let ctx = context(&u);
    let mut m = legacy(&u);
    let mut cache = CompositionCache::new(&ctx);
    cache.set_threshold(0.0);
    let opts = ComposeOptions::default();
    let d = m.take_delta();
    cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
    m.learn(&Observation::blocked(vec!["start".into()], vec![ping]))
        .unwrap();
    let d = m.take_delta();
    let (info, carry) = cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert!(carry.is_none());
    assert_same_product("forced cold", cache.composition(), &cold_oracle(&ctx, &m));
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
    let (info, _) = cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert_same_product(
        "initial growth",
        cache.composition(),
        &cold_oracle(&ctx, &m),
    );
}

#[test]
fn nan_threshold_cannot_disable_cold_fallback() {
    let u = Universe::new();
    let mut m = legacy(&u);
    let ctx = context(&u);
    let opts = ComposeOptions::default();
    let mut cache = CompositionCache::new(&ctx);
    cache.set_threshold(f64::NAN);
    cache.set_threshold(0.0); // force-cold still works after a NaN attempt
    let _ = m.take_delta();
    let (info, _) = cache
        .recompose(
            std::slice::from_ref(&m),
            &[LearnDelta::default()],
            None,
            &opts,
        )
        .unwrap();
    assert_eq!(info.mode, RecomposeMode::Cold);
    let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
    m.learn(&Observation::blocked(vec!["start".into()], vec![ping]))
        .unwrap();
    let d = m.take_delta();
    let (info, _) = cache
        .recompose(std::slice::from_ref(&m), &[d], None, &opts)
        .unwrap();
    // With threshold 0.0 every dirty recompose must fall back cold.
    assert_eq!(info.mode, RecomposeMode::Cold);
    assert_same_product("NaN then zero", cache.composition(), &cold_oracle(&ctx, &m));
}
