//! The refinement check `M ⊑ M′` (Definition 4).
//!
//! `M ⊑ M′` demands (1) every run of `M` has a matching run of `M′` with the
//! same observable trace and the same labelling at the final state, and
//! (2) every deadlock run of `M` is a deadlock run of `M′`. Refinement
//! implies simulation and preserves ACTL properties *and* deadlock freedom
//! (Lemma 1), and is a precongruence for parallel composition (Lemma 2).
//!
//! The check explores pairs `(s, S′)` where `S′` is the set of abstract
//! states reachable on the trace so far (a powerset construction — exact for
//! finite automata, exponential only in the degree of abstract
//! nondeterminism). Per pair it verifies:
//!
//! 1. some `s′ ∈ S′` matches `L(s)` (condition 1), and
//! 2. every label enabled by *all* of `S′` is enabled by `s` — equivalently,
//!    every interaction `s` refuses is refused by at least one member of
//!    `S′`, so the deadlock run exists abstractly (condition 2).

use std::collections::HashMap;

use crate::automaton::{Automaton, StateId};
use crate::error::{AutomataError, Result};
use crate::label::{Label, LabelFamily};
use crate::prop::PropSet;

/// Options for [`refines_with`].
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Abstract states labelled with any of these propositions match *any*
    /// concrete labelling. This implements the Section 2.7 weakening: chaos
    /// states carry a fresh proposition `p′` and are considered to fulfil
    /// every positive and negative proposition.
    pub wildcard_props: PropSet,
    /// Cap on expanding symbolic guards of the *concrete* side.
    pub expand_cap: usize,
    /// Maximum number of `(s, S′)` pairs explored.
    pub max_nodes: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            wildcard_props: PropSet::EMPTY,
            expand_cap: 16,
            max_nodes: 2_000_000,
        }
    }
}

/// Why a refinement check failed, with a witness trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementFailure {
    /// A trace of the concrete automaton is not a trace of the abstract one
    /// (condition 1, trace part). The final label is the step with no
    /// abstract counterpart.
    TraceNotIncluded {
        /// The offending trace.
        trace: Vec<Label>,
    },
    /// After `trace`, no trace-equivalent abstract state carries the same
    /// labelling as concrete state `state` (condition 1, labelling part).
    LabelMismatch {
        /// The trace leading to the mismatch.
        trace: Vec<Label>,
        /// Name of the concrete state whose labelling is unmatched.
        state: String,
    },
    /// After `trace`, the concrete state refuses `label` but every
    /// trace-equivalent abstract state enables it, so the concrete deadlock
    /// run has no abstract counterpart (condition 2).
    RefusalNotMatched {
        /// The trace leading to the refusal.
        trace: Vec<Label>,
        /// The refused interaction.
        label: Label,
    },
}

/// Checks `concrete ⊑ abstr` with default options. Returns `None` on
/// success or a [`RefinementFailure`] witness.
///
/// # Errors
///
/// See [`refines_with`].
pub fn refines(concrete: &Automaton, abstr: &Automaton) -> Result<Option<RefinementFailure>> {
    refines_with(concrete, abstr, &RefineOptions::default())
}

/// Checks `concrete ⊑ abstr` (Definition 4).
///
/// # Errors
///
/// * [`AutomataError::UniverseMismatch`] on different universes.
/// * [`AutomataError::FreeSignalOverflow`] if a symbolic guard on the
///   concrete side exceeds `opts.expand_cap`.
/// * [`AutomataError::Limit`] if the powerset exploration exceeds
///   `opts.max_nodes`.
pub fn refines_with(
    concrete: &Automaton,
    abstr: &Automaton,
    opts: &RefineOptions,
) -> Result<Option<RefinementFailure>> {
    if !concrete.universe().same_as(abstr.universe()) {
        return Err(AutomataError::UniverseMismatch);
    }

    #[derive(Clone)]
    struct Node {
        s: StateId,
        abs: Vec<StateId>, // sorted
        parent: Option<(usize, Label)>,
    }

    let mut nodes: Vec<Node> = Vec::new();
    let mut seen: HashMap<(StateId, Vec<StateId>), ()> = HashMap::new();
    let mut worklist: Vec<usize> = Vec::new();

    let abs_init: Vec<StateId> = {
        let mut v = abstr.initial_states().to_vec();
        v.sort();
        v.dedup();
        v
    };
    for &s in concrete.initial_states() {
        let key = (s, abs_init.clone());
        if seen.insert(key, ()).is_none() {
            nodes.push(Node {
                s,
                abs: abs_init.clone(),
                parent: None,
            });
            worklist.push(nodes.len() - 1);
        }
    }

    let trace_of = |nodes: &[Node], mut i: usize| -> Vec<Label> {
        let mut rev = Vec::new();
        while let Some((p, l)) = nodes[i].parent {
            rev.push(l);
            i = p;
        }
        rev.reverse();
        rev
    };

    while let Some(ni) = worklist.pop() {
        if nodes.len() > opts.max_nodes {
            return Err(AutomataError::Limit {
                what: "refinement powerset exploration".into(),
                max: opts.max_nodes,
            });
        }
        let (s, abs) = (nodes[ni].s, nodes[ni].abs.clone());

        // Condition 1 (labelling): some abstract state matches L(s).
        let ls = concrete.props_of(s);
        let matched = abs.iter().any(|&a| {
            let la = abstr.props_of(a);
            !la.is_disjoint(opts.wildcard_props) || la == ls
        });
        if !matched {
            return Ok(Some(RefinementFailure::LabelMismatch {
                trace: trace_of(&nodes, ni),
                state: concrete.state_name(s).to_owned(),
            }));
        }

        // Concrete enabled labels (expanded).
        let mut enabled: Vec<Label> = Vec::new();
        for t in concrete.transitions_from(s) {
            for l in concrete.guard(t.guard).enumerate(opts.expand_cap)? {
                if !enabled.contains(&l) {
                    enabled.push(l);
                }
            }
        }

        // Condition 2: every label enabled by all abstract states must be
        // enabled by s.
        if let Some(witness) = refusal_witness(abstr, &abs, &enabled, opts)? {
            return Ok(Some(RefinementFailure::RefusalNotMatched {
                trace: trace_of(&nodes, ni),
                label: witness,
            }));
        }

        // Successors.
        for &l in &enabled {
            let mut abs_next: Vec<StateId> = Vec::new();
            for &a in &abs {
                for t in abstr.transitions_from(a) {
                    if abstr.guard(t.guard).admits(l) && !abs_next.contains(&t.to) {
                        abs_next.push(t.to);
                    }
                }
            }
            if abs_next.is_empty() {
                let mut trace = trace_of(&nodes, ni);
                trace.push(l);
                return Ok(Some(RefinementFailure::TraceNotIncluded { trace }));
            }
            abs_next.sort();
            for t in concrete.transitions_from(s) {
                if !concrete.guard(t.guard).admits(l) {
                    continue;
                }
                let key = (t.to, abs_next.clone());
                if seen.insert(key, ()).is_none() {
                    nodes.push(Node {
                        s: t.to,
                        abs: abs_next.clone(),
                        parent: Some((ni, l)),
                    });
                    worklist.push(nodes.len() - 1);
                }
            }
        }
    }
    Ok(None)
}

/// Finds a label enabled by *every* state in `abs` but missing from
/// `concrete_enabled`, if one exists.
fn refusal_witness(
    abstr: &Automaton,
    abs: &[StateId],
    concrete_enabled: &[Label],
    opts: &RefineOptions,
) -> Result<Option<Label>> {
    // Intersection of the abstract states' enabled-label sets, as a union of
    // boxes (families) with exclusion lists.
    let first = match abs.first() {
        Some(&a) => a,
        None => return Ok(None),
    };
    let mut boxes: Vec<LabelFamily> = abstr
        .transitions_from(first)
        .iter()
        .map(|t| abstr.guard(t.guard).to_family())
        .collect();
    for &a in &abs[1..] {
        let guards: Vec<LabelFamily> = abstr
            .transitions_from(a)
            .iter()
            .map(|t| abstr.guard(t.guard).to_family())
            .collect();
        let mut next = Vec::new();
        for b in &boxes {
            for g in &guards {
                if let Some(i) = b.intersect(g) {
                    if !i.is_empty() {
                        next.push(i);
                    }
                }
            }
        }
        boxes = next;
        if boxes.is_empty() {
            return Ok(None); // nothing is enabled by all → no obligation
        }
    }
    for f in &boxes {
        // Every member of f must be in concrete_enabled. If the box holds
        // more members than |concrete_enabled|, a witness certainly exists;
        // lazily enumerate members until one misses (bounded by
        // |concrete_enabled| + 1 draws).
        let needed = concrete_enabled.len() + 1;
        let mut drawn = 0usize;
        if f.free_count() <= opts.expand_cap {
            for l in f.enumerate(opts.expand_cap)? {
                if !concrete_enabled.contains(&l) {
                    return Ok(Some(l));
                }
                drawn += 1;
                if drawn >= needed {
                    break;
                }
            }
        } else {
            // Box too large to enumerate fully, but we only need up to
            // `needed` distinct members: walk subsets lazily.
            let mut count = 0usize;
            'outer: for ain in f.in_free.subsets() {
                for bout in f.out_free.subsets() {
                    let l = Label::new(f.in_must.union(ain), f.out_must.union(bout));
                    if f.excluded.contains(&l) {
                        continue;
                    }
                    if !concrete_enabled.contains(&l) {
                        return Ok(Some(l));
                    }
                    count += 1;
                    if count >= needed + f.excluded.len() {
                        break 'outer;
                    }
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::chaos::chaotic_automaton;
    use crate::signal::SignalSet;
    use crate::universe::Universe;

    #[test]
    fn automaton_refines_itself() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", [], ["b"], "s0")
            .build()
            .unwrap();
        assert_eq!(refines(&m, &m).unwrap(), None);
    }

    #[test]
    fn restriction_refines_nondeterministic_superset() {
        let u = Universe::new();
        let abstr = AutomatonBuilder::new(&u, "abs")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", ["a"], [], "s2")
            .transition("s1", [], [], "s1")
            .build()
            .unwrap();
        // Concrete picks the s1 branch and keeps looping — and crucially, it
        // refuses things the abstract can also refuse (s2 blocks everything).
        let conc = AutomatonBuilder::new(&u, "conc")
            .input("a")
            .state("t0")
            .initial("t0")
            .state("t1")
            .transition("t0", ["a"], [], "t1")
            .transition("t1", [], [], "t1")
            .build()
            .unwrap();
        assert_eq!(refines(&conc, &abstr).unwrap(), None);
    }

    #[test]
    fn new_trace_breaks_refinement() {
        let u = Universe::new();
        let abstr = AutomatonBuilder::new(&u, "abs")
            .input("a")
            .state("s0")
            .initial("s0")
            .transition("s0", ["a"], [], "s0")
            .build()
            .unwrap();
        let conc = AutomatonBuilder::new(&u, "conc")
            .inputs(["a", "b"])
            .state("t0")
            .initial("t0")
            .transition("t0", ["a"], [], "t0")
            .transition("t0", ["b"], [], "t0")
            .build()
            .unwrap();
        match refines(&conc, &abstr).unwrap() {
            Some(RefinementFailure::TraceNotIncluded { trace }) => {
                assert_eq!(trace.len(), 1);
                assert!(trace[0].inputs.contains(u.signal("b")));
            }
            other => panic!("expected TraceNotIncluded, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_refusal_breaks_refinement() {
        let u = Universe::new();
        // Abstract always enables {a} (deterministically, one target) and
        // never deadlocks on it.
        let abstr = AutomatonBuilder::new(&u, "abs")
            .input("a")
            .state("s0")
            .initial("s0")
            .transition("s0", ["a"], [], "s0")
            .transition("s0", [], [], "s0")
            .build()
            .unwrap();
        // Concrete refuses {a} (only enables the empty step). The deadlock
        // run t0,{a}/{} exists concretely but not abstractly.
        let conc = AutomatonBuilder::new(&u, "conc")
            .input("a")
            .state("t0")
            .initial("t0")
            .transition("t0", [], [], "t0")
            .build()
            .unwrap();
        match refines(&conc, &abstr).unwrap() {
            Some(RefinementFailure::RefusalNotMatched { label, .. }) => {
                assert!(label.inputs.contains(u.signal("a")));
            }
            other => panic!("expected RefusalNotMatched, got {other:?}"),
        }
    }

    #[test]
    fn refusal_matched_by_other_branch() {
        let u = Universe::new();
        // Abstract can, after every trace of empty steps, be in a state that
        // refuses {a}: nondeterministic initial choice {loop, idle}, where
        // idle keeps pace on the empty label but never accepts {a}.
        let abstr = AutomatonBuilder::new(&u, "abs")
            .input("a")
            .state("loop")
            .initial("loop")
            .state("idle")
            .initial("idle")
            .transition("loop", ["a"], [], "loop")
            .transition("loop", [], [], "loop")
            .transition("idle", [], [], "idle")
            .build()
            .unwrap();
        let conc = AutomatonBuilder::new(&u, "conc")
            .input("a")
            .state("t0")
            .initial("t0")
            .transition("t0", [], [], "t0")
            .build()
            .unwrap();
        assert_eq!(refines(&conc, &abstr).unwrap(), None);
    }

    #[test]
    fn label_mismatch_detected() {
        let u = Universe::new();
        let abstr = AutomatonBuilder::new(&u, "abs")
            .state("s0")
            .initial("s0")
            .prop("s0", "p")
            .build()
            .unwrap();
        let conc = AutomatonBuilder::new(&u, "conc")
            .state("t0")
            .initial("t0")
            .prop("t0", "q")
            .build()
            .unwrap();
        match refines(&conc, &abstr).unwrap() {
            Some(RefinementFailure::LabelMismatch { state, .. }) => assert_eq!(state, "t0"),
            other => panic!("expected LabelMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_props_match_anything() {
        let u = Universe::new();
        let chaos = u.prop("chaos");
        let abstr = AutomatonBuilder::new(&u, "abs")
            .state("s0")
            .initial("s0")
            .prop("s0", "chaos")
            .build()
            .unwrap();
        let conc = AutomatonBuilder::new(&u, "conc")
            .state("t0")
            .initial("t0")
            .prop("t0", "q")
            .build()
            .unwrap();
        assert!(refines(&conc, &abstr).unwrap().is_some());
        let opts = RefineOptions {
            wildcard_props: PropSet::singleton(chaos),
            ..RefineOptions::default()
        };
        // With the weakening, the chaos-labelled abstract state matches any
        // concrete labelling — but the abstract still deadlocks everywhere,
        // matching the concrete deadlock. Refinement holds.
        assert_eq!(refines_with(&conc, &abstr, &opts).unwrap(), None);
    }

    #[test]
    fn everything_refines_the_chaotic_automaton() {
        // Theorem 1 degenerate case: the chaotic automaton abstracts any
        // behaviour over the same interface.
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", [], ["b"], "s0")
            .build()
            .unwrap();
        let mc = chaotic_automaton(&u, "mc", m.inputs(), m.outputs(), None);
        assert_eq!(refines(&m, &mc).unwrap(), None);
    }

    #[test]
    fn chaotic_automaton_does_not_refine_a_small_model() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .transition("s0", ["a"], [], "s0")
            .build()
            .unwrap();
        let mc = chaotic_automaton(&u, "mc", m.inputs(), SignalSet::EMPTY, None);
        // chaos has the empty-label trace which m lacks
        assert!(refines(&mc, &m).unwrap().is_some());
    }

    #[test]
    fn universe_mismatch_rejected() {
        let u1 = Universe::new();
        let u2 = Universe::new();
        let a = AutomatonBuilder::new(&u1, "a")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u2, "b")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert_eq!(
            refines(&a, &b).unwrap_err(),
            AutomataError::UniverseMismatch
        );
    }
}
