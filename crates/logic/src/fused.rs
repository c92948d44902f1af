//! Fused composition + checking: verdicts over a product that is expanded
//! on the fly, with early exit.
//!
//! The classic pipeline materializes the full reachable product
//! ([`muml_automata::compose`]) and only then checks it — for an invariant
//! that is falsified two steps from the initial state, almost all of that
//! composition work is wasted. [`fused_check_all`] instead drives a
//! [`LazyProduct`] row by row from the checker's own frontier:
//!
//! * `AG ψ` (ψ state-local) runs a forward BFS for a `¬ψ` state and stops —
//!   composition included — the moment one is found; only a falsified-free
//!   product is ever fully expanded.
//! * `EF ψ` stops expanding an initial state's cone as soon as a witness
//!   for ψ turns up.
//! * state-local formulas touch only the initial states.
//!
//! The *fusable fragment* is exactly conjunctions of state-local formulas,
//! `AG local`, and unbounded `EF local` — which covers the integration
//! loop's standing obligations (weakened invariants, `AG ¬δ`). Formulas
//! outside the fragment fall back to materializing the product and running
//! the classic [`Checker`] (reported via [`FusedReport::fell_back`]).
//!
//! # Verdict-and-trace equality contract
//!
//! For fusable formulas, [`fused_check_all`] is observationally identical
//! to `compose` + [`check_all_with`](crate::check_all_with):
//!
//! * same verdict, same violated conjunct (first And-leaf in order, first
//!   formula in list order);
//! * same counterexample *state-name and label sequence*: the BFS here
//!   visits the lazy product's deduplicated successor rows in emit order,
//!   which is exactly the order [`check_with`](crate::check_with)'s
//!   `bfs_path` walks the materialized rows (first-occurrence targets,
//!   first-guard sample labels);
//! * same typed error: a violated `EF` yields
//!   [`LogicError::UnsupportedCounterexample`], as on the classic path.
//!
//! Raw [`StateId`]s inside the run refer to the lazy product's discovery
//! numbering (BFS-shaped), not the canonical DFS numbering of the
//! materialized product — compare traces via
//! [`FusedRun::counterexample_names`] / labels, not ids. The differential
//! suite (`tests/fused_differential.rs`) pins all of this against both the
//! classic checker and [`ReferenceChecker`](crate::ReferenceChecker).

use std::collections::VecDeque;

use muml_automata::{Composition, LazyProduct, PropSet, Run, StateId};

use crate::ast::Formula;
use crate::checker::Checker;
use crate::counterexample::{check_all_with, is_state_local, Counterexample, Verdict};
use crate::error::LogicError;

/// Work accounting of one fused check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedReport {
    /// Product rows actually expanded (each row is one row-kernel solve
    /// over the component transition combinations).
    pub states_expanded: usize,
    /// Product states discovered (interned) — expanded rows plus frontier
    /// states whose rows were never needed.
    pub states_discovered: usize,
    /// Whether the verdict was reached without exhausting the reachable
    /// product (some discovered row was never expanded).
    pub early_exit: bool,
    /// Whether a non-fusable formula forced materializing the product and
    /// running the classic checker.
    pub fell_back: bool,
}

/// The product as it stood when the fused verdict was reached.
pub enum FusedProduct<'a> {
    /// The partially (or, without early exit, fully) expanded lazy product
    /// (boxed: the arena headers alone are hundreds of bytes).
    Lazy(Box<LazyProduct<'a>>),
    /// The materialized composition, when a non-fusable formula forced the
    /// classic path.
    Materialized(Box<Composition>),
}

/// The result of [`fused_check_all`]: verdict, work accounting, and the
/// product in whatever state the early exit left it.
pub struct FusedRun<'a> {
    /// The verdict, identical to the classic path's.
    pub verdict: Verdict,
    /// Work accounting.
    pub report: FusedReport,
    /// The product (lazy or materialized).
    pub product: FusedProduct<'a>,
}

impl FusedRun<'_> {
    /// The counterexample's state names, resolved against whichever product
    /// representation the run carries (lazy ids and canonical ids differ;
    /// names do not).
    pub fn counterexample_names(&self) -> Option<Vec<String>> {
        let c = self.verdict.counterexample()?;
        Some(match &self.product {
            FusedProduct::Lazy(lp) => c.run.states.iter().map(|s| lp.state_name(s.0)).collect(),
            FusedProduct::Materialized(comp) => c
                .run
                .states
                .iter()
                .map(|&s| comp.automaton.state_name(s).to_owned())
                .collect(),
        })
    }
}

/// Whether `f` lies in the fusable fragment: conjunctions of state-local
/// formulas, `AG local`, and unbounded `EF local`.
pub fn fusable(f: &Formula) -> bool {
    let mut leaves = Vec::new();
    flatten(f, &mut leaves);
    leaves.iter().all(|leaf| classify(leaf).is_some())
}

/// One checkable And-leaf of the fusable fragment.
enum Atom<'f> {
    /// A state-local formula: only the initial states matter.
    Local,
    /// `AG inner` with `inner` state-local.
    AgLocal(&'f Formula),
    /// `EF inner` with `inner` state-local.
    EfLocal(&'f Formula),
}

fn classify(f: &Formula) -> Option<Atom<'_>> {
    if is_state_local(f) {
        return Some(Atom::Local);
    }
    match f {
        Formula::Ag(None, inner) if is_state_local(inner) => Some(Atom::AgLocal(inner)),
        Formula::Ef(None, inner) if is_state_local(inner) => Some(Atom::EfLocal(inner)),
        _ => None,
    }
}

/// Flattens the And-tree of `f` in the order
/// [`check_with`](crate::check_with) recurses it (left conjunct first).
fn flatten<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    if let Formula::And(a, b) = f {
        flatten(a, out);
        flatten(b, out);
    } else {
        out.push(f);
    }
}

/// Whether evaluating `f` at a state needs to know the state's deadlock
/// status (which requires its row expanded).
fn needs_deadlock(f: &Formula) -> bool {
    match f {
        Formula::Deadlock => true,
        Formula::Not(g) => needs_deadlock(g),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            needs_deadlock(a) || needs_deadlock(b)
        }
        _ => false,
    }
}

/// Evaluates a state-local formula against one state's labelling and
/// deadlock status.
fn eval_local(f: &Formula, props: PropSet, deadlocked: bool) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Prop(p) => props.contains(*p),
        Formula::Deadlock => deadlocked,
        Formula::Not(g) => !eval_local(g, props, deadlocked),
        Formula::And(a, b) => eval_local(a, props, deadlocked) && eval_local(b, props, deadlocked),
        Formula::Or(a, b) => eval_local(a, props, deadlocked) || eval_local(b, props, deadlocked),
        Formula::Implies(a, b) => {
            !eval_local(a, props, deadlocked) || eval_local(b, props, deadlocked)
        }
        _ => unreachable!("eval_local on a non-state-local formula"),
    }
}

/// Growable seen-set over lazy product ids (the id space grows while the
/// BFS runs, so a fixed-size bitset cannot be allocated up front).
#[derive(Default)]
struct Seen(Vec<bool>);

impl Seen {
    fn insert(&mut self, s: u32) -> bool {
        let i = s as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, false);
        }
        !std::mem::replace(&mut self.0[i], true)
    }
}

/// Evaluates `inner` (state-local) at `s`, expanding the row first when the
/// formula inspects the deadlock predicate.
fn eval_at(
    lp: &mut LazyProduct<'_>,
    inner: &Formula,
    nd: bool,
    s: u32,
) -> Result<bool, LogicError> {
    if nd {
        lp.expand_row(s)?;
    }
    Ok(eval_local(inner, lp.props_of(s), nd && lp.is_deadlock(s)))
}

/// Checks `fs` (in order, first violation wins) against the on-the-fly
/// product, expanding only the rows the verdict needs.
///
/// Formulas outside the fusable fragment force materialization: the
/// product must then have been built with `keep_guards`
/// ([`LazyProduct::new`]), as for [`muml_automata::compose`]. Callers that
/// build a guard-free product should gate on [`fusable`] first.
///
/// # Errors
///
/// * [`LogicError::UnsupportedCounterexample`] for a violated `EF` —
///   exactly as on the classic path (the witness would be a lasso).
/// * [`LogicError::Automata`] for expansion failures (state-space limit,
///   free-signal overflow).
pub fn fused_check_all<'a>(
    mut lp: LazyProduct<'a>,
    fs: &[Formula],
) -> Result<FusedRun<'a>, LogicError> {
    let mut leaves = Vec::new();
    for f in fs {
        flatten(f, &mut leaves);
    }
    if !leaves.iter().all(|leaf| classify(leaf).is_some()) {
        // Classic path: materialize and hand the original list to the full
        // checker so non-fusable shapes get its complete fragment.
        let comp = lp.into_composition()?;
        let verdict = {
            let mut checker = Checker::with_csr(&comp.automaton, &comp.csr);
            check_all_with(&mut checker, fs)?
        };
        let n = comp.automaton.state_count();
        return Ok(FusedRun {
            verdict,
            report: FusedReport {
                states_expanded: n,
                states_discovered: n,
                early_exit: false,
                fell_back: true,
            },
            product: FusedProduct::Materialized(Box::new(comp)),
        });
    }

    let inits: Vec<u32> = lp.initial_states().to_vec();
    let mut verdict = Verdict::Holds;
    'leaves: for leaf in &leaves {
        match classify(leaf).expect("checked fusable above") {
            Atom::Local => {
                let nd = needs_deadlock(leaf);
                for &init in &inits {
                    if !eval_at(&mut lp, leaf, nd, init)? {
                        verdict = violation(&lp, leaf, vec![init], Vec::new());
                        break 'leaves;
                    }
                }
            }
            Atom::AgLocal(inner) => {
                let nd = needs_deadlock(inner);
                for &init in &inits {
                    if let Some((states, labels)) =
                        bfs_to(&mut lp, init, |lp, s| Ok(!eval_at(lp, inner, nd, s)?))?
                    {
                        verdict = violation(&lp, leaf, states, labels);
                        break 'leaves;
                    }
                }
            }
            Atom::EfLocal(inner) => {
                let nd = needs_deadlock(inner);
                for &init in &inits {
                    if bfs_to(&mut lp, init, |lp, s| eval_at(lp, inner, nd, s))?.is_none() {
                        // Violated EF: the classic path fails the same way
                        // when extracting the (lasso-shaped) witness.
                        return Err(LogicError::UnsupportedCounterexample {
                            formula: leaf.show(lp.universe()),
                        });
                    }
                }
            }
        }
    }

    let report = FusedReport {
        states_expanded: lp.expanded_rows(),
        states_discovered: lp.state_count(),
        early_exit: lp.expanded_rows() < lp.state_count(),
        fell_back: false,
    };
    Ok(FusedRun {
        verdict,
        report,
        product: FusedProduct::Lazy(Box::new(lp)),
    })
}

/// Builds the Violated verdict exactly as [`check_with`](crate::check_with)
/// does: path states, first-guard sample labels, formula text and product
/// name in the description.
fn violation(
    lp: &LazyProduct<'_>,
    leaf: &Formula,
    states: Vec<u32>,
    labels: Vec<muml_automata::Label>,
) -> Verdict {
    let run = Run::regular(states.into_iter().map(StateId).collect(), labels);
    Verdict::Violated(Counterexample {
        description: format!("violation of {} in {}", leaf.show(lp.universe()), lp.name()),
        violated: leaf.clone(),
        run,
    })
}

/// A witness path through the lazy product: state ids plus the label
/// taken out of each state.
type LazyPath = (Vec<u32>, Vec<muml_automata::Label>);

/// Breadth-first search from `from` for a state satisfying `target`,
/// expanding rows as the frontier reaches them. Returns the shortest path
/// as `(states, labels)` with `states[0] == from`, or `None` when the
/// reachable cone holds no target.
///
/// This replicates the classic `bfs_path` exactly: seen-marking at
/// discovery, row-order iteration over first-occurrence targets, break on
/// the first target found mid-row, labels from the first guard to each
/// target — so the path (by state name and label) is identical to the one
/// the materialized checker extracts.
fn bfs_to(
    lp: &mut LazyProduct<'_>,
    from: u32,
    mut target: impl FnMut(&mut LazyProduct<'_>, u32) -> Result<bool, LogicError>,
) -> Result<Option<LazyPath>, LogicError> {
    let mut seen = Seen::default();
    let mut parent: Vec<(u32, u32)> = Vec::new(); // (child, parent) in discovery order
    let mut q = VecDeque::new();
    seen.insert(from);
    let mut found = None;
    if target(lp, from)? {
        found = Some(from);
    } else {
        q.push_back(from);
    }
    while found.is_none() {
        let Some(s) = q.pop_front() else {
            return Ok(None);
        };
        lp.expand_row(s)?;
        // The row borrow ends before `target` may expand further rows.
        let row: Vec<u32> = lp.successors(s).to_vec();
        for t in row {
            if !seen.insert(t) {
                continue;
            }
            parent.push((t, s));
            if target(lp, t)? {
                found = Some(t);
                break;
            }
            q.push_back(t);
        }
    }
    let found = found.expect("loop exits only on found or return");
    let mut states = vec![found];
    loop {
        let here = *states.last().expect("nonempty");
        if here == from {
            break;
        }
        let p = parent
            .iter()
            .find(|(c, _)| *c == here)
            .expect("every discovered state has a parent")
            .1;
        states.push(p);
    }
    states.reverse();
    let labels = states
        .windows(2)
        .map(|w| {
            lp.first_label_to(w[0], w[1])
                .expect("product guards always sample a label")
        })
        .collect();
    Ok(Some((states, labels)))
}
