//! Regression tests for the composition's explosion guards: the
//! `ComposeOptions::max_states` abort and the `expand_cap` free-signal
//! overflow must fire exactly at their configured boundaries, on both the
//! one-shot [`compose`] entry point and the [`CompositionCache`].

use muml_automata::{
    chaotic_closure, compose, AutomataError, Automaton, AutomatonBuilder, ComposeOptions,
    CompositionCache, IncompleteAutomaton, SignalSet, Universe,
};

/// A closed cycle of `n` states stepping on the empty interaction.
fn cycle(u: &Universe, name: &str, n: usize) -> Automaton {
    let mut b = AutomatonBuilder::new(u, name);
    for i in 0..n {
        b = b.state(&format!("{name}{i}"));
    }
    b = b.initial(&format!("{name}0"));
    for i in 0..n {
        b = b.transition(
            &format!("{name}{i}"),
            [],
            [],
            &format!("{name}{}", (i + 1) % n),
        );
    }
    b.build().expect("cycle is well-formed")
}

#[test]
fn max_states_aborts_an_oversized_product() {
    // Coprime cycle lengths: the joint cycle visits lcm(4, 3) = 12 product
    // states, one more than the configured cap.
    let u = Universe::new();
    let a = cycle(&u, "a", 4);
    let b = cycle(&u, "b", 3);
    let opts = ComposeOptions {
        max_states: 11,
        ..ComposeOptions::default()
    };
    let err = compose(&[&a, &b], &opts).unwrap_err();
    match err {
        AutomataError::Limit { what, max } => {
            assert!(what.contains("state"), "unexpected limit kind: {what}");
            assert_eq!(max, 11);
        }
        e => panic!("expected Limit, got {e:?}"),
    }
}

#[test]
fn max_states_admits_a_product_at_the_exact_boundary() {
    let u = Universe::new();
    let a = cycle(&u, "a", 4);
    let b = cycle(&u, "b", 3);
    let opts = ComposeOptions {
        max_states: 12,
        ..ComposeOptions::default()
    };
    let comp = compose(&[&a, &b], &opts).expect("12 reachable states fit the cap");
    assert_eq!(comp.automaton.state_count(), 12);
}

/// Two trivial closures sharing `width` internal channel signals: the
/// sender's escape family leaves them free on the output side, the
/// receiver's on the input side, so every one of them must be expanded
/// concretely.
fn channel_closures(width: usize) -> (Universe, Automaton, Automaton) {
    let u = Universe::new();
    let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
    let chans = u.signals(names.iter().map(String::as_str));
    let sender = IncompleteAutomaton::trivial(&u, "sender", SignalSet::EMPTY, chans, "s");
    let receiver = IncompleteAutomaton::trivial(&u, "receiver", chans, SignalSet::EMPTY, "r");
    (
        u,
        chaotic_closure(&sender, None),
        chaotic_closure(&receiver, None),
    )
}

#[test]
fn expand_cap_rejects_an_oversized_free_signal_set() {
    let (_u, cs, cr) = channel_closures(6);
    let opts = ComposeOptions {
        expand_cap: 5,
        ..ComposeOptions::default()
    };
    let err = compose(&[&cs, &cr], &opts).unwrap_err();
    match err {
        AutomataError::FreeSignalOverflow { free, cap } => {
            assert_eq!(free, 6);
            assert_eq!(cap, 5);
        }
        e => panic!("expected FreeSignalOverflow, got {e:?}"),
    }
}

#[test]
fn expand_cap_admits_the_free_signal_set_at_the_exact_boundary() {
    let (_u, cs, cr) = channel_closures(6);
    let opts = ComposeOptions {
        expand_cap: 6,
        ..ComposeOptions::default()
    };
    let comp = compose(&[&cs, &cr], &opts).expect("2^6 expansions fit the cap");
    assert!(comp.stats.expanded_labels > 0);
}

#[test]
fn composition_cache_surfaces_the_state_limit() {
    // The cache's cold rebuild must propagate the abort instead of caching
    // a truncated product.
    let u = Universe::new();
    let context = cycle(&u, "ctx", 3);
    let mut legacy = IncompleteAutomaton::trivial(&u, "l", SignalSet::EMPTY, SignalSet::EMPTY, "s");
    let deltas = [legacy.take_delta()];
    let mut cache = CompositionCache::new(&context);
    let opts = ComposeOptions {
        max_states: 1,
        ..ComposeOptions::default()
    };
    let err = cache
        .recompose(std::slice::from_ref(&legacy), &deltas, None, &opts)
        .unwrap_err();
    assert!(matches!(err, AutomataError::Limit { .. }), "{err:?}");
}
