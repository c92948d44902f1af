//! Minimization (partition refinement) and language/behaviour equivalence.
//!
//! Learned models (Figures 6/7) and flattened statecharts may contain
//! behaviourally equivalent states; [`minimize`] merges them while
//! preserving bisimilarity — and hence all the structures the method cares
//! about: traces, refusals, and CTL-observable behaviour (propositions).

use std::collections::HashMap;

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardTable, Label};
use crate::refine::{refines, RefinementFailure};

/// Minimizes a concrete automaton by merging bisimilar states (equal
/// propositions, and for every label, successors in equal blocks).
///
/// State names of merged blocks are joined with `+` (deterministic order),
/// so the result stays human-readable in figures.
///
/// # Examples
///
/// ```
/// use muml_automata::{AutomatonBuilder, Universe, minimize, equivalent};
/// let u = Universe::new();
/// let mut b = AutomatonBuilder::new(&u, "ring").input("t");
/// for i in 0..4 { b = b.state(&format!("r{i}")); }
/// b = b.initial("r0");
/// for i in 0..4 {
///     b = b.transition(&format!("r{i}"), ["t"], [], &format!("r{}", (i + 1) % 4));
/// }
/// let m = b.build()?;
/// let min = minimize(&m)?;
/// assert_eq!(min.state_count(), 1);
/// assert!(equivalent(&m, &min)?);
/// # Ok::<(), muml_automata::AutomataError>(())
/// ```
///
/// # Errors
///
/// [`AutomataError::SymbolicUnsupported`] if the automaton carries symbolic
/// guard families (minimize the concrete learned models, not closures).
pub fn minimize(m: &Automaton) -> Result<Automaton> {
    for (_, t) in m.transitions() {
        if !matches!(m.guard(t.guard), Guard::Exact(_)) {
            return Err(AutomataError::SymbolicUnsupported {
                detail: format!("minimization of `{}`", m.name()),
            });
        }
    }
    let n = m.state_count();
    // Initial partition: by proposition set.
    let mut block: Vec<usize> = Vec::with_capacity(n);
    {
        let mut index: HashMap<u128, usize> = HashMap::new();
        for s in m.state_ids() {
            let key = m
                .props_of(s)
                .iter()
                .fold(0u128, |acc, p| acc | (1u128 << p.index()));
            let next = index.len();
            let b = *index.entry(key).or_insert(next);
            block.push(b);
        }
    }
    // Refine until stable: signature = props block + sorted (label, succ
    // block) multiset.
    loop {
        let mut index: HashMap<(usize, Vec<(Label, usize)>), usize> = HashMap::new();
        let mut next_block = vec![0usize; n];
        for s in m.state_ids() {
            let mut sig: Vec<(Label, usize)> = m
                .transitions_from(s)
                .iter()
                .map(|t| {
                    let l = m.guard(t.guard).as_exact().expect("checked concrete");
                    (l, block[t.to.index()])
                })
                .collect();
            sig.sort();
            sig.dedup();
            let key = (block[s.index()], sig);
            let next = index.len();
            next_block[s.index()] = *index.entry(key).or_insert(next);
        }
        if next_block == block {
            break;
        }
        block = next_block;
    }

    // Build the quotient.
    let block_count = block.iter().max().map(|b| b + 1).unwrap_or(0);
    let mut names: Vec<Vec<&str>> = vec![Vec::new(); block_count];
    let mut props = vec![crate::PropSet::EMPTY; block_count];
    for s in m.state_ids() {
        names[block[s.index()]].push(m.state_name(s));
        props[block[s.index()]] = m.props_of(s);
    }
    let states: Vec<StateData> = names
        .iter()
        .zip(&props)
        .map(|(ns, &p)| {
            let mut ns = ns.clone();
            ns.sort();
            StateData {
                name: ns.join("+"),
                props: p,
            }
        })
        .collect();
    let mut guards = GuardTable::default();
    let mut adj: Vec<Vec<Transition>> = vec![Vec::new(); block_count];
    for (s, t) in m.transitions() {
        let tr = Transition {
            guard: guards.intern(m.guard(t.guard).clone()),
            to: StateId(block[t.to.index()] as u32),
        };
        let from = block[s.index()];
        if !adj[from].contains(&tr) {
            adj[from].push(tr);
        }
    }
    let mut initial: Vec<StateId> = m
        .initial_states()
        .iter()
        .map(|s| StateId(block[s.index()] as u32))
        .collect();
    initial.sort();
    initial.dedup();
    let out = Automaton::from_rows(
        m.universe().clone(),
        format!("{}~min", m.name()),
        (m.inputs(), m.outputs()),
        states,
        (guards, adj),
        initial,
    );
    out.validate()?;
    Ok(out.trim())
}

/// Checks mutual refinement `a ⊑ b ∧ b ⊑ a` — behavioural equivalence in
/// the sense of Definition 4 (trace *and* refusal equivalence with matching
/// labelling).
///
/// # Errors
///
/// Propagates kernel failures of the underlying refinement checks.
pub fn equivalent(a: &Automaton, b: &Automaton) -> Result<bool> {
    Ok(refines(a, b)?.is_none() && refines(b, a)?.is_none())
}

/// Like [`equivalent`] but returning the direction and witness of the
/// first failure.
///
/// # Errors
///
/// Propagates kernel failures of the underlying refinement checks.
pub fn equivalence_witness(
    a: &Automaton,
    b: &Automaton,
) -> Result<Option<(bool, RefinementFailure)>> {
    if let Some(f) = refines(a, b)? {
        return Ok(Some((true, f)));
    }
    if let Some(f) = refines(b, a)? {
        return Ok(Some((false, f)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    #[test]
    fn merges_bisimilar_states() {
        let u = Universe::new();
        // s1 and s2 behave identically (both loop on `a` to s1/s2 resp. and
        // the loops are bisimilar).
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", [], [], "s2")
            .transition("s1", ["a"], [], "s1")
            .transition("s2", ["a"], [], "s2")
            .build()
            .unwrap();
        let min = minimize(&m).unwrap();
        // s1 and s2 have identical behaviour... but only if their outgoing
        // labels match: s1 loops on a, s2 loops on a — yes, merged.
        assert_eq!(min.state_count(), 2);
        assert!(equivalent(&m, &min).unwrap());
    }

    #[test]
    fn props_prevent_merging() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .prop("s1", "p")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", [], [], "s2")
            .transition("s1", ["a"], [], "s1")
            .transition("s2", ["a"], [], "s2")
            .build()
            .unwrap();
        let min = minimize(&m).unwrap();
        assert_eq!(min.state_count(), 3); // p distinguishes s1 from s2
    }

    #[test]
    fn chain_collapses_to_cycle() {
        let u = Universe::new();
        // A 4-state cycle of identical steps minimizes to 1 state.
        let mut b = AutomatonBuilder::new(&u, "ring").input("t");
        for i in 0..4 {
            b = b.state(&format!("r{i}"));
        }
        b = b.initial("r0");
        for i in 0..4 {
            b = b.transition(&format!("r{i}"), ["t"], [], &format!("r{}", (i + 1) % 4));
        }
        let m = b.build().unwrap();
        let min = minimize(&m).unwrap();
        assert_eq!(min.state_count(), 1);
        assert!(equivalent(&m, &min).unwrap());
    }

    #[test]
    fn deadlock_states_stay_distinct_from_live_ones() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("live")
            .initial("live")
            .state("dead")
            .transition("live", ["a"], [], "dead")
            .build()
            .unwrap();
        let min = minimize(&m).unwrap();
        assert_eq!(min.state_count(), 2);
        assert!(equivalent(&m, &min).unwrap());
    }

    #[test]
    fn symbolic_guards_rejected() {
        let u = Universe::new();
        let m = crate::chaotic_automaton(&u, "c", u.signals(["a"]), crate::SignalSet::EMPTY, None);
        assert!(matches!(
            minimize(&m),
            Err(AutomataError::SymbolicUnsupported { .. })
        ));
    }

    #[test]
    fn equivalence_witness_direction() {
        let u = Universe::new();
        let a = AutomatonBuilder::new(&u, "a")
            .input("x")
            .state("s")
            .initial("s")
            .transition("s", ["x"], [], "s")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "b")
            .inputs(["x", "y"])
            .state("s")
            .initial("s")
            .transition("s", ["x"], [], "s")
            .transition("s", ["y"], [], "s")
            .build()
            .unwrap();
        // a ⊑ b fails on the refusal side (b never refuses y after ε… but a
        // does); b ⊑ a fails on the trace side. Either way a witness exists.
        let w = equivalence_witness(&a, &b).unwrap();
        assert!(w.is_some());
        assert!(!equivalent(&a, &b).unwrap());
        assert!(equivalent(&a, &a).unwrap());
    }
}
