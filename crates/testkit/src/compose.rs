//! The classic composition kernel, kept as the executable specification of
//! [`muml_automata::compose`].
//!
//! This is the materializing exploration the one product engine replaced:
//! a `HashMap<Vec<u32>, StateId>` interner, per-state `Vec` rows, full
//! expansion before returning, and the original per-signal constraint
//! solver (one `HashMap<SignalId, SignalRole>` walk per transition
//! combination, no memo) instead of the engine's bitset row kernel. The
//! lazy differential suite (`crates/automata/tests/lazy_differential.rs`)
//! pins `compose` to it bit for bit: state numbering, rows, origin tuples,
//! CSR, work counters and errors.

use std::collections::HashMap;

use muml_automata::{
    AutomataError, Automaton, ComposeOptions, ComposeStats, Composition, Guard, Label, LabelFamily,
    Result, SignalId, SignalSet, StateId, Transition,
};

/// The classic materializing composition of `parts` (see the module docs):
/// explores the reachable product depth-first off a LIFO worklist from the
/// cartesian initial states, then assembles it with
/// [`Composition::from_rows`].
///
/// # Errors
///
/// Same as [`muml_automata::compose`].
pub fn compose_reference(parts: &[&Automaton], opts: &ComposeOptions) -> Result<Composition> {
    assert!(!parts.is_empty(), "compose requires at least one automaton");
    let universe = parts[0].universe();
    for p in parts {
        if !p.universe().same_as(universe) {
            return Err(AutomataError::UniverseMismatch);
        }
    }
    // Pairwise composability (Section 2): distinct inputs and outputs.
    for (i, a) in parts.iter().enumerate() {
        for b in &parts[i + 1..] {
            if !a.composable_with(b) {
                return Err(AutomataError::NotComposable {
                    detail: format!(
                        "`{}` and `{}` share inputs {} / outputs {}",
                        a.name(),
                        b.name(),
                        universe.show_signals(a.inputs().intersection(b.inputs())),
                        universe.show_signals(a.outputs().intersection(b.outputs())),
                    ),
                });
            }
        }
    }

    let all_inputs = parts
        .iter()
        .fold(SignalSet::EMPTY, |acc, p| acc.union(p.inputs()));
    let all_outputs = parts
        .iter()
        .fold(SignalSet::EMPTY, |acc, p| acc.union(p.outputs()));

    // Signal roles: each signal has at most one sender and one receiver.
    let roles = signal_roles(parts);

    // Product exploration.
    let mut index: HashMap<Vec<u32>, StateId> = HashMap::new();
    let mut tuples: Vec<Vec<u32>> = Vec::new();
    let mut rows: Vec<Vec<(Guard, StateId)>> = Vec::new();
    let mut worklist: Vec<StateId> = Vec::new();
    let mut stats = ComposeStats::default();

    let intern = |tuple: Vec<u32>,
                  index: &mut HashMap<Vec<u32>, StateId>,
                  tuples: &mut Vec<Vec<u32>>,
                  rows: &mut Vec<Vec<(Guard, StateId)>>,
                  worklist: &mut Vec<StateId>|
     -> StateId {
        if let Some(&id) = index.get(&tuple) {
            return id;
        }
        let id = StateId(tuples.len() as u32);
        rows.push(Vec::new());
        tuples.push(tuple.clone());
        index.insert(tuple, id);
        worklist.push(id);
        id
    };

    // Initial product states: Q'' = Q₁ × … × Qₙ.
    let mut initial_tuples = vec![Vec::new()];
    for p in parts {
        let mut next = Vec::new();
        for tuple in &initial_tuples {
            for &q in p.initial_states() {
                let mut t: Vec<u32> = tuple.clone();
                t.push(q.0);
                next.push(t);
            }
        }
        initial_tuples = next;
    }
    let mut initial = Vec::new();
    for t in initial_tuples {
        initial.push(intern(t, &mut index, &mut tuples, &mut rows, &mut worklist));
    }

    while let Some(ps) = worklist.pop() {
        if tuples.len() > opts.max_states {
            return Err(AutomataError::Limit {
                what: "composed state space".into(),
                max: opts.max_states,
            });
        }
        let tuple = tuples[ps.index()].clone();
        expand_tuple(
            parts,
            &tuple,
            &roles,
            all_inputs,
            all_outputs,
            opts,
            &mut stats,
            |guard, target| {
                let to = intern(
                    target.to_vec(),
                    &mut index,
                    &mut tuples,
                    &mut rows,
                    &mut worklist,
                );
                let entry = (guard, to);
                if !rows[ps.index()].contains(&entry) {
                    rows[ps.index()].push(entry);
                }
            },
        )?;
    }
    Composition::from_rows(parts, &tuples, &rows, initial, stats)
}

/// Who sends / receives a signal within a composition.
#[derive(Debug, Clone, Copy, Default)]
struct SignalRole {
    sender: Option<usize>,
    receiver: Option<usize>,
}

/// Derives the per-signal sender/receiver roles of a composition: each
/// signal has at most one sender and one receiver among `parts`.
fn signal_roles(parts: &[&Automaton]) -> HashMap<SignalId, SignalRole> {
    let mut roles: HashMap<SignalId, SignalRole> = HashMap::new();
    for (i, p) in parts.iter().enumerate() {
        for s in p.inputs().iter() {
            roles.entry(s).or_default().receiver = Some(i);
        }
        for s in p.outputs().iter() {
            roles.entry(s).or_default().sender = Some(i);
        }
    }
    roles
}

/// Expands the outgoing transitions of one product state (given as the tuple
/// of component states) by iterating all transition combinations and solving
/// the per-signal constraint system for each. `emit` receives each composed
/// guard together with the target component-state tuple.
///
/// # Errors
///
/// [`AutomataError::FreeSignalOverflow`] as for [`muml_automata::compose`].
#[allow(clippy::too_many_arguments)]
fn expand_tuple(
    parts: &[&Automaton],
    tuple: &[u32],
    roles: &HashMap<SignalId, SignalRole>,
    all_inputs: SignalSet,
    all_outputs: SignalSet,
    opts: &ComposeOptions,
    stats: &mut ComposeStats,
    mut emit: impl FnMut(Guard, &[u32]),
) -> Result<()> {
    let n = parts.len();
    // Iterate over all transition combinations (one per component).
    let per_comp: Vec<&[Transition]> = parts
        .iter()
        .enumerate()
        .map(|(i, p)| p.transitions_from(StateId(tuple[i])))
        .collect();
    if per_comp.iter().any(|ts| ts.is_empty()) {
        return Ok(()); // some component blocks everything → product deadlock
    }
    let mut combo = vec![0usize; n];
    'combos: loop {
        let chosen: Vec<&Transition> = combo
            .iter()
            .enumerate()
            .map(|(i, &j)| &per_comp[i][j])
            .collect();
        let target: Vec<u32> = chosen.iter().map(|t| t.to.0).collect();
        stats.combos += 1;
        solve_combo(
            parts,
            &chosen,
            roles,
            all_inputs,
            all_outputs,
            opts,
            stats,
            |guard| emit(guard, &target),
        )?;
        // advance combination counter
        for i in 0..n {
            combo[i] += 1;
            if combo[i] < per_comp[i].len() {
                continue 'combos;
            }
            combo[i] = 0;
        }
        break;
    }
    Ok(())
}

/// Per-signal assignment derived from the guards of one transition
/// combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    True,
    False,
    Free,
}

impl Assign {
    fn meet(self, other: Assign) -> Option<Assign> {
        use Assign::*;
        match (self, other) {
            (Free, x) | (x, Free) => Some(x),
            (True, True) => Some(True),
            (False, False) => Some(False),
            _ => None,
        }
    }
}

/// Solves the per-signal constraint system for one transition combination
/// and emits zero or more composed guards via `emit`.
#[allow(clippy::too_many_arguments)]
fn solve_combo(
    parts: &[&Automaton],
    chosen: &[&Transition],
    roles: &HashMap<SignalId, SignalRole>,
    all_inputs: SignalSet,
    all_outputs: SignalSet,
    opts: &ComposeOptions,
    stats: &mut ComposeStats,
    mut emit: impl FnMut(Guard),
) -> Result<()> {
    let fams: Vec<LabelFamily> = chosen
        .iter()
        .zip(parts)
        .map(|(t, p)| p.guard(t.guard).to_family())
        .collect();

    // Per-signal assignment after propagating guard domains + handshake.
    let mut in_must = SignalSet::EMPTY; // composed A'' forced members
    let mut out_must = SignalSet::EMPTY; // composed B'' forced members
    let mut free_in_only = SignalSet::EMPTY; // free, input side only
    let mut free_out_only = SignalSet::EMPTY; // free, output side only
    let mut free_both = SignalSet::EMPTY; // free internal signals (coupled)

    for (&sig, role) in roles {
        let recv_dom = role.receiver.map(|k| {
            let f = &fams[k];
            if f.in_must.contains(sig) {
                Assign::True
            } else if f.in_free.contains(sig) {
                Assign::Free
            } else {
                Assign::False
            }
        });
        let send_dom = role.sender.map(|j| {
            let f = &fams[j];
            if f.out_must.contains(sig) {
                Assign::True
            } else if f.out_free.contains(sig) {
                Assign::Free
            } else {
                Assign::False
            }
        });
        let joint = match (recv_dom, send_dom) {
            (Some(r), Some(s)) => match r.meet(s) {
                Some(j) => j,
                None => return Ok(()), // handshake conflict → combo infeasible
            },
            (Some(r), None) => r,
            (None, Some(s)) => s,
            (None, None) => unreachable!("signal without any role"),
        };
        let is_input = role.receiver.is_some();
        let is_output = role.sender.is_some();
        match joint {
            Assign::True => {
                if is_input {
                    in_must.insert(sig);
                }
                if is_output {
                    out_must.insert(sig);
                }
            }
            Assign::False => {}
            Assign::Free => match (is_input, is_output) {
                (true, true) => free_both.insert(sig),
                (true, false) => free_in_only.insert(sig),
                (false, true) => free_out_only.insert(sig),
                (false, false) => unreachable!(),
            },
        }
    }

    // Components with exclusion lists need their own labels concrete, so any
    // free signal touching their interface must be enumerated as well.
    let mut enumerate = free_both;
    for (i, f) in fams.iter().enumerate() {
        if !f.excluded.is_empty() {
            let support = parts[i].inputs().union(parts[i].outputs());
            enumerate = enumerate
                .union(free_in_only.intersection(support))
                .union(free_out_only.intersection(support));
        }
    }
    let sym_in = free_in_only.difference(enumerate);
    let sym_out = free_out_only.difference(enumerate);

    if enumerate.len() > opts.expand_cap {
        return Err(AutomataError::FreeSignalOverflow {
            free: enumerate.len(),
            cap: opts.expand_cap,
        });
    }

    for chosen_free in enumerate.subsets() {
        let a_must = in_must.union(chosen_free.intersection(all_inputs));
        let b_must = out_must.union(chosen_free.intersection(all_outputs));
        // Filter component exclusions: each component's own label must not be
        // in its exclusion list. (Only checkable when concrete — guaranteed
        // by the `enumerate` construction above.)
        let mut excluded = false;
        for (i, f) in fams.iter().enumerate() {
            if f.excluded.is_empty() {
                continue;
            }
            let own = Label::new(
                a_must.intersection(parts[i].inputs()),
                b_must.intersection(parts[i].outputs()),
            );
            if f.excluded.contains(&own) {
                excluded = true;
                break;
            }
        }
        if excluded {
            continue;
        }
        let guard = if sym_in.is_empty() && sym_out.is_empty() {
            stats.expanded_labels += 1;
            Guard::Exact(Label::new(a_must, b_must))
        } else {
            stats.family_guards += 1;
            Guard::from(LabelFamily {
                in_must: a_must,
                in_free: sym_in,
                out_must: b_must,
                out_free: sym_out,
                excluded: Vec::new(),
            })
        };
        emit(guard);
    }
    Ok(())
}
