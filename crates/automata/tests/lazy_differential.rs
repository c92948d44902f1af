//! Differential tests for the one product engine: [`compose`] (which
//! expands rows in discovery order and solves them with the memoizing
//! bitset kernel) must be **bit-identical** to the classic materializing
//! kernel [`compose_reference`] of `muml-testkit` (per-signal solver, no
//! memo) — same state numbering, names, props, transition rows (guards
//! resolved, so the order guards were interned in does not matter), origin
//! tuples, CSR and work counters — over random corpora, and fail where it
//! fails with the same error. A [`LazyProduct`] expanded partly out of
//! turn, as the frontier probe expands it, must still be `compose`'s
//! product up to a renaming of states.
//!
//! The exact-label corpus covers plain handshakes. The chaotic-closure
//! corpus covers what only symbolic guards reach: guard families, exclusion
//! lists (refusals and known labels), open inputs and outputs nobody in the
//! product drives, and internal signals left free by both sides. The
//! ticker corpus repeats row shapes (a driver ∥ ticker-grid context against
//! random closures), so the kernel's memo answers almost every
//! combination.

use std::collections::{HashMap, HashSet};

use muml_automata::*;
use muml_testkit::{assert_same_product, cases, compose_reference, Rng};

/// Pure-data description of a random automaton over a small fixed alphabet
/// (2 inputs, 2 outputs), mirroring `kernel_properties`.
#[derive(Debug, Clone)]
struct Spec {
    n_states: usize,
    transitions: Vec<(usize, u8, u8, usize)>,
    props: Vec<bool>,
}

fn gen_spec(rng: &mut Rng, max_states: usize, max_trans: usize) -> Spec {
    let n = rng.range(1..=max_states);
    let n_trans = rng.range(0..=max_trans);
    let transitions = rng.vec(n_trans, |r| {
        (r.below(n), r.below(4) as u8, r.below(4) as u8, r.below(n))
    });
    let props = rng.vec(n, |r| r.bool());
    Spec {
        n_states: n,
        transitions,
        props,
    }
}

fn build(u: &Universe, name: &str, ins: [&str; 2], outs: [&str; 2], spec: &Spec) -> Automaton {
    let mut b = AutomatonBuilder::new(u, name).inputs(ins).outputs(outs);
    for s in 0..spec.n_states {
        let sn = format!("{name}{s}");
        b = b.state(&sn);
        if spec.props[s] {
            b = b.prop(&sn, "p");
        }
    }
    b = b.initial(&format!("{name}0"));
    for &(f, a, o, t) in &spec.transitions {
        let avec: Vec<&str> = ins
            .iter()
            .enumerate()
            .filter(|(i, _)| a & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let ovec: Vec<&str> = outs
            .iter()
            .enumerate()
            .filter(|(i, _)| o & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        b = b.transition(&format!("{name}{f}"), avec, ovec, &format!("{name}{t}"));
    }
    b.build().expect("spec builds")
}

/// A random composable pair: one automaton on the `i*/o*` alphabet, one on
/// the cross-wired `o*/i*` alphabet (so outputs feed inputs both ways).
fn gen_pair(rng: &mut Rng, u: &Universe) -> (Automaton, Automaton) {
    let sa = gen_spec(rng, 5, 10);
    let sb = gen_spec(rng, 5, 10);
    let a = build(u, "a", ["i0", "i1"], ["o0", "o1"], &sa);
    let b = build(u, "b", ["o0", "o1"], ["i0", "i1"], &sb);
    (a, b)
}

fn assert_compositions_identical(lhs: &Composition, rhs: &Composition, what: &str) {
    assert_eq!(
        lhs.automaton.state_count(),
        rhs.automaton.state_count(),
        "{what}: state counts differ"
    );
    assert_eq!(lhs.automaton.name(), rhs.automaton.name(), "{what}: names");
    for s in lhs.automaton.state_ids() {
        assert_eq!(
            lhs.automaton.state_name(s),
            rhs.automaton.state_name(s),
            "{what}: state {} name",
            s.0
        );
        assert_eq!(
            lhs.automaton.props_of(s),
            rhs.automaton.props_of(s),
            "{what}: state {} props",
            s.0
        );
        assert_eq!(
            row(&lhs.automaton, s),
            row(&rhs.automaton, s),
            "{what}: row {} ({})",
            s.0,
            lhs.automaton.state_name(s)
        );
    }
    assert_eq!(
        lhs.automaton.initial_states(),
        rhs.automaton.initial_states(),
        "{what}: initials"
    );
    for s in lhs.automaton.state_ids() {
        assert_eq!(
            lhs.tuple(s),
            rhs.tuple(s),
            "{what}: origin tuple of {}",
            s.0
        );
    }
    assert_eq!(lhs.csr, rhs.csr, "{what}: CSR");
    assert_eq!(lhs.stats, rhs.stats, "{what}: compose stats");
}

/// The row of `s` with its guards resolved.
fn row(m: &Automaton, s: StateId) -> Vec<(&Guard, StateId)> {
    m.transitions_from(s)
        .iter()
        .map(|t| (m.guard(t.guard), t.to))
        .collect()
}

/// Composes `parts` with both kernels and asserts they agree bit-for-bit or
/// fail identically. Returns the product when both succeed.
fn assert_kernels_agree(parts: &[&Automaton], what: &str) -> Option<Composition> {
    let opts = ComposeOptions::default();
    match (compose(parts, &opts), compose_reference(parts, &opts)) {
        (Ok(lazy), Ok(reference)) => {
            assert_compositions_identical(&lazy, &reference, what);
            Some(lazy)
        }
        (Err(el), Err(er)) => {
            assert_eq!(format!("{el}"), format!("{er}"), "{what}: errors diverge");
            None
        }
        (l, r) => panic!(
            "{what}: one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
            l.is_ok(),
            r.is_ok()
        ),
    }
}

/// A random label over the given input and output names.
fn gen_label(rng: &mut Rng, u: &Universe, ins: &[&str], outs: &[&str]) -> Label {
    let mut pick = |names: &[&str]| -> SignalSet {
        names
            .iter()
            .filter(|_| rng.bool())
            .map(|n| u.signal(n))
            .collect()
    };
    let inputs = pick(ins);
    let outputs = pick(outs);
    Label::new(inputs, outputs)
}

/// A random incomplete automaton over `ins`/`outs`, grown from up to six
/// random observations. Each is a walk from `q0` that replays earlier
/// `(state, label) → target` choices (so the model stays deterministic) and
/// avoids refused interactions; about one in five ends by refusing an
/// unknown interaction, which feeds `T̄`. Its chaotic closure therefore
/// carries escape families whose exclusion lists mix refusals and known
/// labels.
fn gen_incomplete(
    rng: &mut Rng,
    u: &Universe,
    name: &str,
    ins: &[&str],
    outs: &[&str],
) -> IncompleteAutomaton {
    let mut m = IncompleteAutomaton::trivial(
        u,
        name,
        u.signals(ins.iter().copied()),
        u.signals(outs.iter().copied()),
        "q0",
    );
    let mut steps: HashMap<(String, Label), String> = HashMap::new();
    let mut refused: HashSet<(String, Label)> = HashSet::new();
    let mut fresh = 0usize;
    for _ in 0..rng.range(0..=6) {
        let mut states = vec!["q0".to_owned()];
        let mut labels = Vec::new();
        let mut blocked = false;
        for _ in 0..rng.range(1..=4) {
            let here = states.last().expect("walk starts at q0").clone();
            let l = gen_label(rng, u, ins, outs);
            if refused.contains(&(here.clone(), l)) {
                break;
            }
            if !steps.contains_key(&(here.clone(), l)) && rng.chance(1, 5) {
                refused.insert((here, l));
                labels.push(l);
                blocked = true;
                break;
            }
            let to = match steps.get(&(here.clone(), l)) {
                Some(to) => to.clone(),
                None => {
                    let to = if rng.chance(1, 3) {
                        fresh += 1;
                        format!("q{fresh}")
                    } else {
                        format!("q{}", rng.below(fresh + 1))
                    };
                    steps.insert((here, l), to.clone());
                    to
                }
            };
            labels.push(l);
            states.push(to);
        }
        let obs = if blocked {
            Observation::blocked(states, labels)
        } else {
            Observation::regular(states, labels)
        };
        m.learn(&obs)
            .expect("observations are consistent by construction");
    }
    m
}

/// Totals over a corpus, to show what it exercised.
#[derive(Debug, Default)]
struct Coverage {
    products: usize,
    guards: usize,
    stats: ComposeStats,
}

impl Coverage {
    fn add(&mut self, comp: &Composition) {
        self.products += 1;
        self.guards += comp.automaton.transition_count();
        self.stats.combos += comp.stats.combos;
        self.stats.expanded_labels += comp.stats.expanded_labels;
        self.stats.family_guards += comp.stats.family_guards;
    }
}

/// The headline invariant: the engine-backed [`compose`] and the classic
/// [`compose_reference`] agree bit-for-bit — or fail identically —
/// on a 200-seed corpus of random cross-wired pairs.
#[test]
fn lazy_compose_matches_reference_on_corpus() {
    cases(200, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let parts = [&a, &b];
        let opts = ComposeOptions::default();
        match (compose(&parts, &opts), compose_reference(&parts, &opts)) {
            (Ok(lazy), Ok(reference)) => {
                assert_compositions_identical(&lazy, &reference, "compose vs reference");
            }
            (Err(el), Err(er)) => {
                assert_eq!(format!("{el}"), format!("{er}"), "errors diverge");
            }
            (l, r) => panic!(
                "one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
                l.is_ok(),
                r.is_ok()
            ),
        }
    });
}

/// The memo key must tell apart family guards whose boxes agree and
/// whose exclusion lists differ: `srv` accepts any subset of `{req}`
/// except `{req}` at `s0` and except `{}` at `s1`.
#[test]
fn memo_key_covers_exclusion_lists() {
    let u = Universe::new();
    let req = SignalSet::singleton(u.signal("req"));
    let except = |l: Label| {
        let mut fam = LabelFamily::all(req, SignalSet::EMPTY);
        fam.excluded.push(l);
        Guard::from(fam)
    };
    let s = AutomatonBuilder::new(&u, "srv")
        .input("req")
        .state("s0")
        .initial("s0")
        .state("s1")
        .transition_guard("s0", except(Label::new(req, SignalSet::EMPTY)), "s1")
        .transition_guard("s1", except(Label::EMPTY), "s0")
        .build()
        .unwrap();
    // A client that may or may not send `req`.
    let c = AutomatonBuilder::new(&u, "cli")
        .output("req")
        .state("t")
        .initial("t")
        .transition("t", [], ["req"], "t")
        .transition("t", [], [], "t")
        .build()
        .unwrap();
    let comp = compose2(&c, &s).unwrap();
    let m = &comp.automaton;
    let row = |name: &str| -> Vec<(Guard, String)> {
        let st = m.find_state(name).unwrap();
        m.transitions_from(st)
            .iter()
            .map(|t| (m.guard(t.guard).clone(), m.state_name(t.to).to_owned()))
            .collect()
    };
    // At s0 only silence passes, at s1 only `req`.
    assert_eq!(row("t||s0"), [(Guard::Exact(Label::EMPTY), "t||s1".into())]);
    assert_eq!(
        row("t||s1"),
        [(Guard::Exact(Label::new(req, req)), "t||s0".into())]
    );
    let reference = compose_reference(&[&c, &s], &ComposeOptions::default()).unwrap();
    assert_eq!(comp.automaton, reference.automaton);
    assert_eq!(comp.stats, reference.stats);
}

/// Three-way products (two cross-wired parts plus an observer with private
/// outputs) keep the identity as well — exercises tuple widths above 2.
#[test]
fn three_part_lazy_compose_matches_reference() {
    cases(100, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let sc = gen_spec(rng, 4, 6);
        let c = build(&u, "c", ["x0", "x1"], ["y0", "y1"], &sc);
        let parts = [&a, &b, &c];
        let opts = ComposeOptions::default();
        match (compose(&parts, &opts), compose_reference(&parts, &opts)) {
            (Ok(lazy), Ok(reference)) => {
                assert_compositions_identical(&lazy, &reference, "3-part compose");
            }
            (Err(el), Err(er)) => {
                assert_eq!(format!("{el}"), format!("{er}"), "errors diverge");
            }
            (l, r) => panic!(
                "one kernel failed where the other succeeded: lazy ok = {}, reference ok = {}",
                l.is_ok(),
                r.is_ok()
            ),
        }
    });
}

/// The chaotic-closure corpus: the two kernels agree on products whose
/// symbolic guards the exact-label corpus never produces.
///
/// Per seed, three shapes over the cross-wired `i*/o*` alphabet:
/// * a random context with the closure of a random incomplete automaton
///   that also has an open input `e` and an open output `f` (nobody drives
///   or reads them), so unpinned families survive into the product and
///   exclusion lists force one-sided free signals concrete;
/// * two closures wired to each other, so internal signals are left free
///   by both sides and must be expanded;
/// * three parts: the context, the closure, and an exact-label observer on
///   a private alphabet.
#[test]
fn chaotic_closures_match_reference_on_corpus() {
    let coverage = std::sync::Mutex::new(Coverage::default());
    cases(200, |rng| {
        let u = Universe::new();
        let ctx = build(&u, "a", ["i0", "i1"], ["o0", "o1"], &gen_spec(rng, 5, 10));
        let open = gen_incomplete(rng, &u, "l", &["o0", "o1", "e"], &["i0", "i1", "f"]);
        let open_closure = chaotic_closure(&open, None);
        let mirror = gen_incomplete(rng, &u, "r", &["i0", "i1"], &["o0", "o1"]);
        let plain = gen_incomplete(rng, &u, "p", &["o0", "o1"], &["i0", "i1"]);
        let (mirror_closure, plain_closure) = (
            chaotic_closure(&mirror, None),
            chaotic_closure(&plain, None),
        );
        let observer = build(&u, "c", ["x0", "x1"], ["y0", "y1"], &gen_spec(rng, 4, 6));
        let shapes: [(&[&Automaton], &str); 3] = [
            (&[&ctx, &open_closure], "context with open closure"),
            (&[&mirror_closure, &plain_closure], "closure with closure"),
            (&[&ctx, &plain_closure, &observer], "three parts"),
        ];
        for (parts, what) in shapes {
            if let Some(comp) = assert_kernels_agree(parts, what) {
                coverage.lock().unwrap().add(&comp);
            }
        }
    });
    let coverage = coverage.into_inner().unwrap();
    // The corpus must reach every branch of the solver it claims to cover.
    assert!(coverage.products >= 500, "{coverage:?}");
    assert!(coverage.stats.family_guards > 0, "{coverage:?}");
    assert!(coverage.stats.expanded_labels > 0, "{coverage:?}");
    assert!(coverage.guards > 10_000, "{coverage:?}");
}

/// A driver that pushes `up` `k` times and then idles (never listening for
/// `top`), composed with `tickers` free-running `phases`-phase tickers: a
/// context whose rows repeat a handful of shapes.
fn ticker_context(u: &Universe, k: usize, tickers: usize, phases: usize) -> Automaton {
    let mut b = AutomatonBuilder::new(u, "driver").output("up").input("top");
    for i in 0..=k {
        b = b.state(&format!("d{i}"));
    }
    b = b.initial("d0");
    for i in 0..k {
        b = b.transition(&format!("d{i}"), [], ["up"], &format!("d{}", i + 1));
    }
    let driver = b
        .transition(&format!("d{k}"), [], [], &format!("d{k}"))
        .build()
        .expect("driver builds");
    let grid: Vec<Automaton> = (0..tickers)
        .map(|i| {
            let tick = format!("tick{i}");
            let mut b = AutomatonBuilder::new(u, &format!("t{i}")).output(&tick);
            for j in 0..phases {
                b = b.state(&format!("s{j}"));
            }
            b = b.initial("s0");
            for j in 0..phases {
                let (here, next) = (format!("s{j}"), format!("s{}", (j + 1) % phases));
                b = b.transition(&here, [], [], &here);
                b = b.transition(&here, [], [tick.as_str()], &next);
            }
            b.build().expect("ticker builds")
        })
        .collect();
    let mut parts = vec![&driver];
    parts.extend(grid.iter());
    compose(&parts, &ComposeOptions::default())
        .expect("driver and tickers compose")
        .automaton
}

/// The ticker corpus: a driver ∥ ticker-grid context against the closure
/// of a random incomplete counter-like component (input `up`, output
/// `top`, plus an open input `e` nobody drives). Context rows repeat a few
/// guard shapes, so the kernel's memo answers nearly every combination:
/// it solves each distinct (context guard, closure guard) pair once. The
/// products must still equal the reference, work counters included.
#[test]
fn ticker_contexts_with_repeated_rows_match_reference() {
    let combos = std::cell::Cell::new(0u64);
    let keys = std::cell::Cell::new(0u64);
    cases(40, |rng| {
        let u = Universe::new();
        let ctx = ticker_context(&u, rng.range(1..=4), 3, rng.range(2..=3));
        let m = gen_incomplete(rng, &u, "counter", &["up", "e"], &["top"]);
        let closure = chaotic_closure(&m, None);
        let Some(comp) = assert_kernels_agree(&[&ctx, &closure], "ticker context") else {
            return;
        };
        // The memo keys a cold compose solves: the distinct guard pairs of
        // every expanded row's combinations.
        let mut pairs: HashSet<(GuardId, GuardId)> = HashSet::new();
        for s in comp.automaton.state_ids() {
            let t = comp.tuple(s);
            for a in ctx.transitions_from(StateId(t[0])) {
                for b in closure.transitions_from(StateId(t[1])) {
                    pairs.insert((a.guard, b.guard));
                }
            }
        }
        combos.set(combos.get() + comp.stats.combos);
        keys.set(keys.get() + pairs.len() as u64);
    });
    let (combos, keys) = (combos.get(), keys.get());
    assert!(
        keys * 20 < combos,
        "the memo would answer too few combinations: {keys} keys for {combos} combos"
    );
}

/// Two cross-wired rings of `n` states that advance in lockstep: `a`
/// sends `x` on every step and `b` must receive it, and at random steps `b`
/// may also answer `y`, which `a` may take or ignore. A few random steps of
/// `a` may instead fall into a sink state with no transitions. The
/// reachable product is the diagonal of the `n × n` box of state pairs,
/// plus one deadlocked pair per fall.
fn lockstep_rings(rng: &mut Rng, u: &Universe, n: usize) -> (Automaton, Automaton) {
    let mut a = AutomatonBuilder::new(u, "a").input("y").output("x");
    let mut b = AutomatonBuilder::new(u, "b").input("x").output("y");
    for s in 0..n {
        a = a.state(&format!("a{s}"));
        b = b.state(&format!("b{s}"));
    }
    a = a.state("sink").initial("a0");
    b = b.initial("b0");
    for s in 0..n {
        let next = (s + 1) % n;
        let (from, to) = (format!("a{s}"), format!("a{next}"));
        a = a.transition(&from, [], ["x"], &to);
        a = a.transition(&from, ["y"], ["x"], &to);
        if rng.chance(1, 20) {
            a = a.transition(&from, [], ["x"], "sink");
        }
        let (from, to) = (format!("b{s}"), format!("b{next}"));
        b = b.transition(&from, ["x"], [], &to);
        if rng.bool() {
            b = b.transition(&from, ["x"], ["y"], &to);
        }
    }
    (
        a.build().expect("ring builds"),
        b.build().expect("ring builds"),
    )
}

/// A sparse two-part product: the state pairs a lockstep pair reaches
/// fill a tiny fraction of their `n × n` box, so the product numbers its
/// states through the hash interner rather than a dense table of the
/// whole box (its heap stays far below what that table would take). It
/// must still equal the reference, work counters and emit order included.
#[test]
fn sparse_lockstep_products_match_reference() {
    cases(40, |rng| {
        let u = Universe::new();
        let n = rng.range(150..=300);
        let (a, b) = lockstep_rings(rng, &u, n);
        let comp = assert_kernels_agree(&[&a, &b], "lockstep rings").expect("rings compose");
        let states = comp.automaton.state_count();
        assert!(states * 8 < n * n, "{states} states fill the {n}x{n} box");
        assert!(
            comp.heap_bytes() < n * n,
            "{} heap bytes: a dense table of the {n}x{n} box would take {}",
            comp.heap_bytes(),
            n * n * 4
        );
    });
}

/// Four-part products (two cross-wired pairs, interleaved so that parts 1
/// and 2 sit in the middle of the tuple) in which a middle part reaches a
/// state without transitions: the row kernel must treat the empty row as a
/// product deadlock whichever part it sits in, and walk the odometer over
/// the other three parts in emit order everywhere else.
#[test]
fn four_part_products_with_empty_middle_rows_match_reference() {
    let blocked = std::cell::Cell::new(0usize);
    cases(100, |rng| {
        let u = Universe::new();
        let a = build(&u, "a", ["i0", "i1"], ["o0", "o1"], &gen_spec(rng, 4, 8));
        let b = build(&u, "b", ["o0", "o1"], ["i0", "i1"], &gen_spec(rng, 4, 8));
        let c = build(&u, "c", ["x0", "x1"], ["y0", "y1"], &gen_spec(rng, 4, 8));
        let d = build(&u, "d", ["y0", "y1"], ["x0", "x1"], &gen_spec(rng, 4, 8));
        let parts = [&a, &c, &b, &d];
        let Some(comp) = assert_kernels_agree(&parts, "four parts") else {
            return;
        };
        let m = &comp.automaton;
        for s in m.state_ids() {
            let t = comp.tuple(s);
            if (1..=2).any(|i| parts[i].transitions_from(StateId(t[i])).is_empty()) {
                assert!(m.transitions_from(s).is_empty(), "a blocked part deadlocks");
                blocked.set(blocked.get() + 1);
            }
        }
    });
    assert!(
        blocked.get() > 50,
        "only {} product states reach an empty middle row",
        blocked.get()
    );
}

/// Expansion as the frontier probe does it: locate a few reachable tuples,
/// expanding each located row out of turn, then finish in discovery order.
/// Nothing is renumbered, so the result must be `compose`'s product up to
/// a renaming of states, with the same work counters, and every located
/// row must read as `compose`'s row of that tuple.
#[test]
fn partly_out_of_order_expansion_matches_compose_up_to_renaming() {
    let renumbered = std::cell::Cell::new(0usize);
    cases(200, |rng| {
        let u = Universe::new();
        let (a, b) = gen_pair(rng, &u);
        let ctx = build(&u, "a", ["i0", "i1"], ["o0", "o1"], &gen_spec(rng, 5, 10));
        let m = gen_incomplete(rng, &u, "l", &["o0", "o1", "e"], &["i0", "i1", "f"]);
        let closure = chaotic_closure(&m, None);
        let ticker = ticker_context(&u, rng.range(1..=4), 3, rng.range(2..=3));
        let counter = gen_incomplete(rng, &u, "counter", &["up", "e"], &["top"]);
        let counter_closure = chaotic_closure(&counter, None);
        let shapes: [(&[&Automaton], &str); 3] = [
            (&[&a, &b], "cross-wired pair"),
            (&[&ctx, &closure], "context with closure"),
            (&[&ticker, &counter_closure], "ticker context"),
        ];
        for (parts, what) in shapes {
            let opts = ComposeOptions::default();
            let Ok(whole) = compose(parts, &opts) else {
                continue;
            };
            let mut lp = LazyProduct::new(parts, &opts).expect("parts compose");
            for _ in 0..rng.range(1..=3) {
                // Mostly early states: their rows are the likeliest to be
                // expanded out of turn while later ones still wait.
                let early = rng.range(1..=whole.automaton.state_count());
                let target = StateId(rng.below(early) as u32);
                let s = lp
                    .locate(whole.tuple(target))
                    .expect("within limits")
                    .expect("the tuple is reachable");
                lp.expand_row(s).expect("within limits");
                let whole_row: Vec<&Guard> = whole
                    .automaton
                    .transitions_from(target)
                    .iter()
                    .map(|t| whole.automaton.guard(t.guard))
                    .collect();
                assert_eq!(lp.row_guards(s).collect::<Vec<_>>(), whole_row, "{what}");
            }
            let finished = lp.finish().expect("within limits");
            assert_same_product(what, &finished, &whole);
            assert_eq!(finished.stats, whole.stats, "{what}: compose stats");
            if finished
                .automaton
                .state_ids()
                .any(|s| finished.tuple(s) != whole.tuple(s))
            {
                renumbered.set(renumbered.get() + 1);
            }
        }
    });
    // Out-of-turn rows must actually have moved ids in part of the corpus.
    assert!(
        renumbered.get() > 50,
        "only {} products were numbered differently",
        renumbered.get()
    );
}
