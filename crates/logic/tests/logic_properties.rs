//! Property-based tests of the CCTL checker: semantic laws that must hold
//! for every formula on every model — NNF preservation, negation duality,
//! bounded/unbounded operator coherence, and chaos-weakening neutrality on
//! chaos-free models.
//!
//! Random inputs come from `muml-testkit` (deterministic splitmix64 cases).

use muml_automata::{Automaton, AutomatonBuilder, Universe, CHAOS_PROP};
use muml_logic::{Bound, Checker, Formula};
use muml_testkit::{cases, Rng};

/// Pure-data model description: up to `n` states, transitions as (from,
/// to) pairs (labels are irrelevant to CTL), two propositions p/q assigned
/// per state.
#[derive(Debug, Clone)]
struct ModelSpec {
    n: usize,
    edges: Vec<(usize, usize)>,
    p: Vec<bool>,
    q: Vec<bool>,
}

fn gen_model(rng: &mut Rng, max_states: usize, max_edges: usize) -> ModelSpec {
    let n = rng.range(1..=max_states);
    let n_edges = rng.range(0..=max_edges);
    let edges = rng.vec(n_edges, |r| (r.below(n), r.below(n)));
    let p = rng.vec(n, |r| r.bool());
    let q = rng.vec(n, |r| r.bool());
    ModelSpec { n, edges, p, q }
}

fn build(u: &Universe, spec: &ModelSpec) -> Automaton {
    let mut b = AutomatonBuilder::new(u, "m");
    for s in 0..spec.n {
        let name = format!("s{s}");
        b = b.state(&name);
        if spec.p[s] {
            b = b.prop(&name, "p");
        }
        if spec.q[s] {
            b = b.prop(&name, "q");
        }
    }
    b = b.initial("s0");
    for &(f, t) in &spec.edges {
        b = b.transition(&format!("s{f}"), [], [], &format!("s{t}"));
    }
    b.build().expect("model builds")
}

#[derive(Debug, Clone)]
enum FormulaSpec {
    P,
    Q,
    True,
    Deadlock,
    Not(Box<FormulaSpec>),
    And(Box<FormulaSpec>, Box<FormulaSpec>),
    Or(Box<FormulaSpec>, Box<FormulaSpec>),
    Ax(Box<FormulaSpec>),
    Ef(Box<FormulaSpec>),
    Ag(Box<FormulaSpec>),
    Af(Box<FormulaSpec>),
    AfB(Box<FormulaSpec>, u32, u32),
    EgB(Box<FormulaSpec>, u32, u32),
}

/// Recursive random CCTL formula over props p/q, at most `depth` operator
/// layers deep.
fn gen_formula(rng: &mut Rng, depth: u32) -> FormulaSpec {
    let leaf = |rng: &mut Rng| match rng.below(4) {
        0 => FormulaSpec::P,
        1 => FormulaSpec::Q,
        2 => FormulaSpec::True,
        _ => FormulaSpec::Deadlock,
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(12) {
        // Keep a share of leaves at every depth so sizes vary.
        0..=2 => leaf(rng),
        3 => FormulaSpec::Not(Box::new(gen_formula(rng, depth - 1))),
        4 => FormulaSpec::And(
            Box::new(gen_formula(rng, depth - 1)),
            Box::new(gen_formula(rng, depth - 1)),
        ),
        5 => FormulaSpec::Or(
            Box::new(gen_formula(rng, depth - 1)),
            Box::new(gen_formula(rng, depth - 1)),
        ),
        6 => FormulaSpec::Ax(Box::new(gen_formula(rng, depth - 1))),
        7 => FormulaSpec::Ef(Box::new(gen_formula(rng, depth - 1))),
        8 => FormulaSpec::Ag(Box::new(gen_formula(rng, depth - 1))),
        9 => FormulaSpec::Af(Box::new(gen_formula(rng, depth - 1))),
        10 => {
            let lo = rng.below(3) as u32;
            let d = rng.below(4) as u32;
            FormulaSpec::AfB(Box::new(gen_formula(rng, depth - 1)), lo, lo + d)
        }
        _ => {
            let lo = rng.below(3) as u32;
            let d = rng.below(4) as u32;
            FormulaSpec::EgB(Box::new(gen_formula(rng, depth - 1)), lo, lo + d)
        }
    }
}

fn to_formula(u: &Universe, s: &FormulaSpec) -> Formula {
    match s {
        FormulaSpec::P => Formula::prop_named(u, "p"),
        FormulaSpec::Q => Formula::prop_named(u, "q"),
        FormulaSpec::True => Formula::True,
        FormulaSpec::Deadlock => Formula::Deadlock,
        FormulaSpec::Not(f) => to_formula(u, f).not(),
        FormulaSpec::And(a, b) => to_formula(u, a).and(to_formula(u, b)),
        FormulaSpec::Or(a, b) => to_formula(u, a).or(to_formula(u, b)),
        FormulaSpec::Ax(f) => to_formula(u, f).ax(),
        FormulaSpec::Ef(f) => to_formula(u, f).ef(),
        FormulaSpec::Ag(f) => to_formula(u, f).ag(),
        FormulaSpec::Af(f) => to_formula(u, f).af(),
        FormulaSpec::AfB(f, lo, hi) => to_formula(u, f).af_within(*lo, *hi),
        FormulaSpec::EgB(f, lo, hi) => {
            Formula::Eg(Some(Bound::new(*lo, *hi)), Box::new(to_formula(u, f)))
        }
    }
}

/// NNF conversion preserves the satisfaction set.
#[test]
fn nnf_preserves_semantics() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 3);
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let direct = c.sat(&f).clone();
        assert_eq!(&direct, c.sat(&f.to_nnf()));
    });
}

/// Negation is complementation: sat(¬f) = ¬sat(f), pointwise.
#[test]
fn negation_complements() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 3);
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let pos = c.sat(&f).clone();
        assert_eq!(&pos.complement(), c.sat(&f.clone().not()));
    });
}

/// Bounded eventually implies unbounded: AF[lo,hi] f ⊆ AF f.
#[test]
fn bounded_af_implies_unbounded() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 2);
        let lo = rng.below(3) as u32;
        let d = rng.below(4) as u32;
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let bounded = c.sat(&f.clone().af_within(lo, lo + d)).clone();
        let unbounded = c.sat(&f.af());
        for s in 0..spec.n {
            assert!(
                !bounded.get(s) || unbounded.get(s),
                "AF[{lo},{}] must imply AF",
                lo + d
            );
        }
    });
}

/// Widening the window is monotone: AF[lo,hi] f ⊆ AF[lo,hi+1] f.
#[test]
fn widening_window_is_monotone() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 2);
        let lo = rng.below(3) as u32;
        let d = rng.below(3) as u32;
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let narrow = c.sat(&f.clone().af_within(lo, lo + d)).clone();
        let wide = c.sat(&f.af_within(lo, lo + d + 1));
        for s in 0..spec.n {
            assert!(!narrow.get(s) || wide.get(s));
        }
    });
}

/// AG f ∧ state satisfies f: AG f ⊆ f (G includes "now").
#[test]
fn ag_implies_now() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 2);
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let ag = c.sat(&f.clone().ag()).clone();
        let now = c.sat(&f);
        for s in 0..spec.n {
            assert!(!ag.get(s) || now.get(s));
        }
    });
}

/// De Morgan over path quantifiers: ¬EF f ≡ AG ¬f.
#[test]
fn ef_ag_duality() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 2);
        let u = Universe::new();
        let m = build(&u, &spec);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let not_ef = c.sat(&f.clone().ef().not()).clone();
        assert_eq!(&not_ef, c.sat(&f.not().ag()));
    });
}

/// Chaos weakening is the identity on models that never carry the
/// chaos proposition.
#[test]
fn weakening_neutral_without_chaos_states() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let fspec = gen_formula(rng, 3);
        let u = Universe::new();
        let m = build(&u, &spec);
        let chaos = u.prop(CHAOS_PROP);
        let f = to_formula(&u, &fspec);
        let mut c = Checker::new(&m);
        let plain = c.sat(&f).clone();
        assert_eq!(&plain, c.sat(&f.weaken_for_chaos(chaos)));
    });
}

/// `witness(EF p)` agrees with satisfiability and returns a valid run
/// ending in a p-state.
#[test]
fn ef_witness_agrees_with_sat() {
    cases(96, |rng| {
        let spec = gen_model(rng, 5, 10);
        let u = Universe::new();
        let m = build(&u, &spec);
        let p = Formula::prop_named(&u, "p");
        let f = p.clone().ef();
        let mut c = Checker::new(&m);
        let holds = m.initial_states().iter().any(|s| c.sat(&f)[s.index()]);
        match muml_logic::witness(&m, &f).unwrap() {
            Some(run) => {
                assert!(holds);
                assert!(run.validate_in(&m));
                assert!(m.props_of(run.last_state()).contains(u.prop("p")));
            }
            None => assert!(!holds),
        }
    });
}
