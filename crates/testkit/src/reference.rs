//! The pre-rewrite satisfaction-set kernel, kept as an executable
//! specification.
//!
//! This is the textbook labelling engine the bitset/worklist kernel
//! [`muml_logic::Checker`] replaced: `Vec<bool>` satisfaction sets, a
//! `HashMap<Formula, Vec<bool>>` cache, and global-sweep fixpoints iterated
//! to stability. It is deliberately naive and deliberately unchanged —
//! the differential test (`crates/logic/tests/differential.rs`) pins the new kernel's
//! verdicts against it (and against a path-unrolling oracle) over random
//! automata and formulas, and `repro check --json` uses it as the *old*
//! side of the old-vs-new counters in `BENCH_check.json`.
//!
//! Semantics (stutter loops at deadlock states, the `deadlock` predicate,
//! bounded backward induction) are documented with [`muml_logic::Checker`].

use std::collections::HashMap;

use muml_automata::Automaton;

use muml_logic::{Bound, Formula};

/// The naive satisfaction-set evaluator. Same judgements as
/// [`Checker`](muml_logic::Checker), an order of magnitude more machine work.
pub struct ReferenceChecker<'a> {
    m: &'a Automaton,
    /// Successor lists with stutter loops at deadlock states.
    succs: Vec<Vec<usize>>,
    /// `true` for states with no real outgoing transition.
    deadlocked: Vec<bool>,
    cache: HashMap<Formula, Vec<bool>>,
    /// Number of fixpoint/backward-induction sweeps performed.
    pub iterations: u64,
    /// Number of `(state, subformula)` labelings computed — state count
    /// summed over every non-memoized subformula evaluation.
    pub labeled_states: u64,
}

impl<'a> ReferenceChecker<'a> {
    /// Creates a reference checker for `m`.
    pub fn new(m: &'a Automaton) -> Self {
        let n = m.state_count();
        let mut succs = vec![Vec::new(); n];
        let mut deadlocked = vec![false; n];
        for s in m.state_ids() {
            let mut out: Vec<usize> = Vec::new();
            for t in m.transitions_from(s) {
                let live = match m.guard(t.guard) {
                    muml_automata::Guard::Exact(_) => true,
                    muml_automata::Guard::Family(f) => !f.is_empty(),
                };
                if live {
                    out.push(t.to.index());
                }
            }
            out.sort_unstable();
            out.dedup();
            if out.is_empty() {
                deadlocked[s.index()] = true;
                out.push(s.index()); // stutter
            }
            succs[s.index()] = out;
        }
        ReferenceChecker {
            m,
            succs,
            deadlocked,
            cache: HashMap::new(),
            iterations: 0,
            labeled_states: 0,
        }
    }

    /// Returns `true` iff **all** initial states satisfy `f`.
    pub fn satisfies(&mut self, f: &Formula) -> bool {
        let sat = self.sat(f);
        self.m.initial_states().iter().all(|s| sat[s.index()])
    }

    /// The satisfaction set of `f` (indexed by state).
    pub fn sat(&mut self, f: &Formula) -> Vec<bool> {
        if let Some(v) = self.cache.get(f) {
            return v.clone();
        }
        let v = self.compute(f);
        self.labeled_states += v.len() as u64;
        self.cache.insert(f.clone(), v.clone());
        v
    }

    fn all(&self, val: bool) -> Vec<bool> {
        vec![val; self.m.state_count()]
    }

    fn compute(&mut self, f: &Formula) -> Vec<bool> {
        use Formula::*;
        match f {
            True => self.all(true),
            False => self.all(false),
            Prop(p) => self
                .m
                .state_ids()
                .map(|s| self.m.props_of(s).contains(*p))
                .collect(),
            Deadlock => self.deadlocked.clone(),
            Not(g) => self.sat(g).iter().map(|b| !b).collect(),
            And(a, b) => {
                let (x, y) = (self.sat(a), self.sat(b));
                x.iter().zip(&y).map(|(a, b)| *a && *b).collect()
            }
            Or(a, b) => {
                let (x, y) = (self.sat(a), self.sat(b));
                x.iter().zip(&y).map(|(a, b)| *a || *b).collect()
            }
            Implies(a, b) => {
                let (x, y) = (self.sat(a), self.sat(b));
                x.iter().zip(&y).map(|(a, b)| !*a || *b).collect()
            }
            Ax(g) => {
                let sg = self.sat(g);
                self.pre_all(&sg)
            }
            Ex(g) => {
                let sg = self.sat(g);
                self.pre_some(&sg)
            }
            Af(None, g) => {
                let sg = self.sat(g);
                self.fixpoint(sg.clone(), |me, y| {
                    let ax = me.pre_all(y);
                    or(&sg, &ax)
                })
            }
            Ef(None, g) => {
                let sg = self.sat(g);
                self.fixpoint(sg.clone(), |me, y| {
                    let ex = me.pre_some(y);
                    or(&sg, &ex)
                })
            }
            Ag(None, g) => {
                let sg = self.sat(g);
                self.fixpoint(sg.clone(), |me, y| {
                    let ax = me.pre_all(y);
                    and(&sg, &ax)
                })
            }
            Eg(None, g) => {
                let sg = self.sat(g);
                self.fixpoint(sg.clone(), |me, y| {
                    let ex = me.pre_some(y);
                    and(&sg, &ex)
                })
            }
            Au(None, l, r) => {
                let (sl, sr) = (self.sat(l), self.sat(r));
                self.fixpoint(sr.clone(), |me, y| {
                    let ax = me.pre_all(y);
                    or(&sr, &and(&sl, &ax))
                })
            }
            Eu(None, l, r) => {
                let (sl, sr) = (self.sat(l), self.sat(r));
                self.fixpoint(sr.clone(), |me, y| {
                    let ex = me.pre_some(y);
                    or(&sr, &and(&sl, &ex))
                })
            }
            Af(Some(b), g) => self.bounded(*b, g, None, true, false),
            Ef(Some(b), g) => self.bounded(*b, g, None, false, false),
            Ag(Some(b), g) => self.bounded(*b, g, None, true, true),
            Eg(Some(b), g) => self.bounded(*b, g, None, false, true),
            Au(Some(b), l, r) => self.bounded(*b, r, Some(l), true, false),
            Eu(Some(b), l, r) => self.bounded(*b, r, Some(l), false, false),
        }
    }

    fn pre_all(&mut self, y: &[bool]) -> Vec<bool> {
        self.iterations += 1;
        (0..y.len())
            .map(|s| self.succs[s].iter().all(|&t| y[t]))
            .collect()
    }

    fn pre_some(&mut self, y: &[bool]) -> Vec<bool> {
        self.iterations += 1;
        (0..y.len())
            .map(|s| self.succs[s].iter().any(|&t| y[t]))
            .collect()
    }

    /// Iterates `step` from `init` to stability. The least and greatest
    /// fixpoints share this loop: started from the operand set, the lfp step
    /// functions are monotone growing and the gfp ones monotone shrinking,
    /// so both converge to the respective fixpoint.
    fn fixpoint(
        &mut self,
        init: Vec<bool>,
        mut step: impl FnMut(&mut Self, &Vec<bool>) -> Vec<bool>,
    ) -> Vec<bool> {
        let mut y = init;
        loop {
            let next = step(self, &y);
            if next == y {
                return y;
            }
            y = next;
        }
    }

    /// Backward induction for bounded operators; `universal` selects the
    /// path quantifier and `globally` the `G` (vs `F`/`U`) semantics.
    fn bounded(
        &mut self,
        b: Bound,
        goal: &Formula,
        hold: Option<&Formula>,
        universal: bool,
        globally: bool,
    ) -> Vec<bool> {
        let sg = self.sat(goal);
        let sh = hold.map(|h| self.sat(h));
        let n = self.m.state_count();
        let hi = b.hi as usize;
        let lo = b.lo as usize;
        let mut layers: Vec<Vec<bool>> = vec![Vec::new(); hi + 1];
        for t in (0..=hi).rev() {
            let in_window = t >= lo;
            let next = if t < hi { Some(&layers[t + 1]) } else { None };
            let mut layer = Vec::with_capacity(n);
            for s in 0..n {
                let cont = match (next, universal) {
                    (Some(y), true) => self.succs[s].iter().all(|&x| y[x]),
                    (Some(y), false) => self.succs[s].iter().any(|&x| y[x]),
                    (None, _) => false,
                };
                let v = if globally {
                    let now_ok = !in_window || sg[s];
                    now_ok && (t >= hi || cont)
                } else {
                    let now = in_window && sg[s];
                    let held = sh.as_ref().map(|h| h[s]).unwrap_or(true);
                    now || (t < hi && held && cont)
                };
                layer.push(v);
            }
            self.iterations += 1;
            layers[t] = layer;
        }
        layers.into_iter().next().expect("layer 0 exists")
    }
}

fn and(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(x, y)| *x && *y).collect()
}

fn or(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(x, y)| *x || *y).collect()
}
