//! Differential test of the bitset/worklist checker kernel.
//!
//! Three independent implementations must agree on every `(automaton,
//! formula)` pair — the rewritten kernel ([`Checker`]), the pre-rewrite
//! sweep kernel ([`ReferenceChecker`], kept verbatim as an executable
//! specification), and a path-unrolling oracle defined directly from the
//! CCTL path semantics (below). 600 random pairs: automata of up to 8
//! states with out-degree ≤ 3 and deliberate deadlocks, formulas up to 4
//! operators deep over every CCTL connective with clock bounds ≤ 5.
//!
//! The oracle evaluates every operator over explicit path positions
//! `(state, offset)`, memoized; unbounded operators are decided by
//! unrolling to horizon `|S|`, which is exact by cycle pumping: a minimal
//! witness path visits distinct states (length < |S|), and any violating
//! path that survives |S|+1 positions repeats a state and can be pumped to
//! an infinite violation.

use muml_automata::{Automaton, AutomatonBuilder, StateId, Universe};
use muml_logic::{Bound, Checker, Formula};
use muml_testkit::{cases, ReferenceChecker, Rng};

/// Random automaton: `n ≤ 8` states, per-state out-degree `≤ 3` (with a
/// 1-in-4 chance of none — a deadlock), random p/q propositions.
fn gen_automaton(rng: &mut Rng, u: &Universe) -> Automaton {
    let n = rng.range(1..=8);
    let mut b = AutomatonBuilder::new(u, "m");
    for s in 0..n {
        let name = format!("s{s}");
        b = b.state(&name);
        if rng.bool() {
            b = b.prop(&name, "p");
        }
        if rng.bool() {
            b = b.prop(&name, "q");
        }
    }
    b = b.initial("s0");
    for s in 0..n {
        let degree = if rng.chance(1, 4) {
            0
        } else {
            rng.range(1..=3)
        };
        for _ in 0..degree {
            b = b.transition(&format!("s{s}"), [], [], &format!("s{}", rng.below(n)));
        }
    }
    b.build().expect("random model builds")
}

fn gen_bound(rng: &mut Rng) -> Option<Bound> {
    if rng.bool() {
        let lo = rng.below(4) as u32;
        let hi = lo + rng.below((6 - lo as usize).min(4)) as u32;
        Some(Bound::new(lo, hi.min(5)))
    } else {
        None
    }
}

/// Random CCTL formula, at most `depth` operators deep, over every
/// connective the AST has.
fn gen_formula(rng: &mut Rng, u: &Universe, depth: u32) -> Formula {
    if depth == 0 || rng.chance(1, 4) {
        return match rng.below(5) {
            0 => Formula::prop_named(u, "p"),
            1 => Formula::prop_named(u, "q"),
            2 => Formula::True,
            3 => Formula::False,
            _ => Formula::Deadlock,
        };
    }
    let sub = |rng: &mut Rng| Box::new(gen_formula(rng, u, depth - 1));
    match rng.below(12) {
        0 => Formula::Not(sub(rng)),
        1 => Formula::And(sub(rng), sub(rng)),
        2 => Formula::Or(sub(rng), sub(rng)),
        3 => Formula::Implies(sub(rng), sub(rng)),
        4 => Formula::Ax(sub(rng)),
        5 => Formula::Ex(sub(rng)),
        6 => Formula::Af(gen_bound(rng), sub(rng)),
        7 => Formula::Ef(gen_bound(rng), sub(rng)),
        8 => Formula::Ag(gen_bound(rng), sub(rng)),
        9 => Formula::Eg(gen_bound(rng), sub(rng)),
        10 => Formula::Au(gen_bound(rng), sub(rng), sub(rng)),
        _ => Formula::Eu(gen_bound(rng), sub(rng), sub(rng)),
    }
}

/// The path-unrolling oracle. Stutter loops at deadlock states keep the
/// path relation total, matching the checker's semantics.
struct Oracle<'a> {
    m: &'a Automaton,
    succs: Vec<Vec<usize>>,
    deadlocked: Vec<bool>,
}

impl<'a> Oracle<'a> {
    fn new(m: &'a Automaton) -> Self {
        let n = m.state_count();
        let mut succs = vec![Vec::new(); n];
        let mut deadlocked = vec![false; n];
        for s in m.state_ids() {
            let mut out: Vec<usize> = m
                .transitions_from(s)
                .iter()
                .filter(|t| m.guard(t.guard).sample_label().is_some())
                .map(|t| t.to.index())
                .collect();
            out.sort_unstable();
            out.dedup();
            if out.is_empty() {
                deadlocked[s.index()] = true;
                out.push(s.index());
            }
            succs[s.index()] = out;
        }
        Oracle {
            m,
            succs,
            deadlocked,
        }
    }

    fn eval(&self, f: &Formula) -> Vec<bool> {
        use Formula::*;
        let n = self.m.state_count();
        match f {
            True => vec![true; n],
            False => vec![false; n],
            Prop(p) => (0..n)
                .map(|s| self.m.props_of(StateId(s as u32)).contains(*p))
                .collect(),
            Deadlock => self.deadlocked.clone(),
            Not(g) => self.eval(g).iter().map(|b| !b).collect(),
            And(a, b) => zip_with(&self.eval(a), &self.eval(b), |x, y| x && y),
            Or(a, b) => zip_with(&self.eval(a), &self.eval(b), |x, y| x || y),
            Implies(a, b) => zip_with(&self.eval(a), &self.eval(b), |x, y| !x || y),
            Ax(g) => {
                let sg = self.eval(g);
                (0..n)
                    .map(|s| self.succs[s].iter().all(|&t| sg[t]))
                    .collect()
            }
            Ex(g) => {
                let sg = self.eval(g);
                (0..n)
                    .map(|s| self.succs[s].iter().any(|&t| sg[t]))
                    .collect()
            }
            Af(b, g) => self.until(*b, &vec![true; n], &self.eval(g), true),
            Ef(b, g) => self.until(*b, &vec![true; n], &self.eval(g), false),
            Au(b, l, r) => self.until(*b, &self.eval(l), &self.eval(r), true),
            Eu(b, l, r) => self.until(*b, &self.eval(l), &self.eval(r), false),
            Ag(b, g) => self.globally(*b, &self.eval(g), true),
            Eg(b, g) => self.globally(*b, &self.eval(g), false),
        }
    }

    /// Window of a bound, with unbounded operators unrolled to horizon
    /// `|S|` (exact by cycle pumping — see the module docs).
    fn window(&self, b: Option<Bound>) -> (usize, usize) {
        match b {
            Some(b) => (b.lo as usize, b.hi as usize),
            None => (0, self.m.state_count()),
        }
    }

    /// `Q[l U[lo,hi] r]`: along all (`universal`) or some paths, `r` holds
    /// at an offset in the window with `l` at every earlier offset.
    /// Memoized recursion over path positions `(state, offset)`.
    fn until(&self, b: Option<Bound>, l: &[bool], r: &[bool], universal: bool) -> Vec<bool> {
        let (lo, hi) = self.window(b);
        let n = self.m.state_count();
        let mut memo = vec![None; n * (hi + 1)];
        #[allow(clippy::too_many_arguments)]
        fn go(
            o: &Oracle<'_>,
            memo: &mut [Option<bool>],
            (lo, hi): (usize, usize),
            l: &[bool],
            r: &[bool],
            universal: bool,
            s: usize,
            t: usize,
        ) -> bool {
            if let Some(v) = memo[s * (hi + 1) + t] {
                return v;
            }
            let now = t >= lo && r[s];
            let v = now
                || (t < hi && l[s] && {
                    let step = |&x: &usize| go(o, memo, (lo, hi), l, r, universal, x, t + 1);
                    if universal {
                        o.succs[s].iter().all(step)
                    } else {
                        o.succs[s].iter().any(step)
                    }
                });
            memo[s * (hi + 1) + t] = Some(v);
            v
        }
        (0..n)
            .map(|s| go(self, &mut memo, (lo, hi), l, r, universal, s, 0))
            .collect()
    }

    /// `QG[lo,hi] g`: along all/some paths, `g` holds at every offset in
    /// the window.
    fn globally(&self, b: Option<Bound>, g: &[bool], universal: bool) -> Vec<bool> {
        let (lo, hi) = self.window(b);
        let n = self.m.state_count();
        let mut memo = vec![None; n * (hi + 1)];
        fn go(
            o: &Oracle<'_>,
            memo: &mut [Option<bool>],
            (lo, hi): (usize, usize),
            g: &[bool],
            universal: bool,
            s: usize,
            t: usize,
        ) -> bool {
            if let Some(v) = memo[s * (hi + 1) + t] {
                return v;
            }
            let now_ok = t < lo || g[s];
            let v = now_ok
                && (t >= hi || {
                    let step = |&x: &usize| go(o, memo, (lo, hi), g, universal, x, t + 1);
                    if universal {
                        o.succs[s].iter().all(step)
                    } else {
                        o.succs[s].iter().any(step)
                    }
                });
            memo[s * (hi + 1) + t] = Some(v);
            v
        }
        (0..n)
            .map(|s| go(self, &mut memo, (lo, hi), g, universal, s, 0))
            .collect()
    }
}

fn zip_with(a: &[bool], b: &[bool], f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// 600 random `(automaton, formula)` pairs: per-state satisfaction and the
/// initial-state verdict must agree across all three implementations.
#[test]
fn kernel_matches_reference_and_oracle() {
    cases(600, |rng| {
        let u = Universe::new();
        let m = gen_automaton(rng, &u);
        let f = gen_formula(rng, &u, 4);

        let mut new = Checker::new(&m);
        let new_sat: Vec<bool> = {
            let s = new.sat(&f);
            (0..m.state_count()).map(|i| s.get(i)).collect()
        };
        let mut old = ReferenceChecker::new(&m);
        let old_sat = old.sat(&f);
        let oracle_sat = Oracle::new(&m).eval(&f);

        assert_eq!(
            new_sat,
            old_sat,
            "new kernel vs reference kernel on {} over {} states",
            f.show(&u),
            m.state_count()
        );
        assert_eq!(
            new_sat,
            oracle_sat,
            "kernels vs path oracle on {} over {} states",
            f.show(&u),
            m.state_count()
        );
        assert_eq!(new.satisfies(&f), old.satisfies(&f));
    });
}
