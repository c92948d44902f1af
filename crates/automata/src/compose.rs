//! Synchronous parallel composition (Definition 3 of the paper).
//!
//! `M ∥ M′` executes all components in lockstep: one transition of every
//! component per time unit, with synchronous communication — a signal output
//! by one component and input by another must be sent and received in the
//! same step. Formally, for each pair of components the matching condition
//! `A ∩ O′ = B′ ∩ I` and `A′ ∩ O = B ∩ I′` must hold (Definition 3 states
//! this for closed two-party composition as `(A ∩ O′) = B′`; the
//! intersection with the receiver's inputs generalizes it soundly to open
//! systems where a component may also emit signals nobody in the composition
//! consumes).
//!
//! The composition is computed on the fly over *reachable* product states
//! only, and solves symbolic [`Guard`](crate::Guard) families as signal-set
//! boxes ([`RowKernel`]), so that composing a concrete context with a
//! chaotic closure never expands the closure's exponential `*` transitions
//! beyond what the context admits.

use std::collections::HashMap;
use std::ops::Deref;

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::csr::Csr;
use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardId, GuardTable, Label, LabelFamily};
use crate::lazy::TupleArena;
use crate::run::{Run, RunKind};
use crate::signal::SignalSet;

/// Options controlling composition.
#[derive(Debug, Clone)]
pub struct ComposeOptions {
    /// Maximum number of free signals expanded concretely per transition
    /// combination (`2^expand_cap` labels). Internal channel signals left
    /// free by *both* endpoints, and free signals of components carrying
    /// exclusion lists, must be expanded; exceeding the cap is an error.
    pub expand_cap: usize,
    /// Maximum number of reachable product states before aborting.
    pub max_states: usize,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            expand_cap: 16,
            max_states: 4_000_000,
        }
    }
}

/// Work counters from one composition run — how much the on-the-fly
/// product exploration actually did, independent of wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComposeStats {
    /// Transition combinations solved (one per tuple of component
    /// transitions at each explored product state).
    pub combos: u64,
    /// Concrete labels emitted while expanding free-signal subsets (the
    /// symbolic-family expansions the context forced).
    pub expanded_labels: u64,
    /// Symbolic family guards emitted un-expanded (free signals the
    /// context did not pin down).
    pub family_guards: u64,
}

/// The result of a parallel composition: the product automaton plus the
/// provenance needed to project runs back onto components.
///
/// A product built by [`compose`] contains exactly its reachable states.
/// The product a [`CompositionCache`](crate::CompositionCache) keeps across
/// learn iterations keeps state ids stable instead, so it may also hold
/// states that became unreachable: their rows are empty, nothing reachable
/// leads to them, and [`Composition::reachable_state_count`] excludes them.
#[derive(Debug, Clone)]
pub struct Composition {
    /// The product automaton.
    pub automaton: Automaton,
    /// Names of the composed components, in order.
    pub component_names: Vec<String>,
    /// `(inputs, outputs)` of each component, in order.
    pub interfaces: Vec<(SignalSet, SignalSet)>,
    /// Work counters of the exploration that built this product.
    pub stats: ComposeStats,
    /// The guard-erased transition relation of the product in CSR form
    /// (successors deduplicated, predecessors inverted, stutter loops at
    /// deadlock states). Built once here so checkers over the product
    /// ([`Checker::with_csr`](https://docs.rs/muml-logic)) borrow it instead
    /// of re-deriving the relation the exploration just enumerated.
    pub csr: Csr,
    /// The component-state tuple of every product state, interned.
    pub(crate) tuples: TupleArena,
    /// Number of states reachable from the initial states.
    pub(crate) reachable: usize,
}

impl Composition {
    /// The component states underlying product state `s`, in component
    /// order.
    pub fn tuple(&self, s: StateId) -> &[u32] {
        self.tuples.tuple(s.0)
    }

    /// The component state of product state `s` for component `idx`.
    pub fn component_state(&self, s: StateId, idx: usize) -> StateId {
        StateId(self.tuple(s)[idx])
    }

    /// Number of product states reachable from the initial states — the
    /// size of the product the loop reports, whatever else the automaton
    /// keeps.
    pub fn reachable_state_count(&self) -> usize {
        self.reachable
    }

    /// Heap bytes the product holds, by capacity: the automaton (row
    /// buffer, guard table, names, labelling, row spans), the interned
    /// component-state tuples and the CSR relation. Deterministic for a
    /// given sequence of compositions, so runs can compare it exactly.
    pub fn heap_bytes(&self) -> usize {
        self.automaton.heap_bytes() + self.tuples.heap_bytes() + self.csr.heap_bytes()
    }

    /// Index of a component by name.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.component_names.iter().position(|n| n == name)
    }

    /// Projects a run of the product automaton onto component `idx`
    /// (Section 4.1: "the counterexample restricted to `M_a^i`").
    ///
    /// Labels are restricted to the component's interface and product states
    /// are mapped to component states. The run kind is preserved.
    pub fn project_run(&self, run: &Run, idx: usize) -> Run {
        let (ins, outs) = self.interfaces[idx];
        let states = run
            .states
            .iter()
            .map(|&s| self.component_state(s, idx))
            .collect();
        let labels = run.labels.iter().map(|l| l.restrict(ins, outs)).collect();
        Run {
            states,
            labels,
            kind: run.kind,
        }
    }

    /// Renders a product state in the style of the paper's listings:
    /// `shuttle1.noConvoy, shuttle2.s_all`.
    pub fn show_state(&self, s: StateId, components: &[&Automaton]) -> String {
        let parts: Vec<String> = self
            .tuple(s)
            .iter()
            .zip(components)
            .map(|(&cs, c)| format!("{}.{}", c.name(), c.state_name(StateId(cs))))
            .collect();
        parts.join(", ")
    }
}

/// One part guard as the four signal boxes the row kernel combines,
/// restricted to its part's interface: what the part must and may
/// receive, and must and may send, on a transition with this guard.
#[derive(Debug, Clone, Copy, Default)]
struct GuardSets {
    recv_must: SignalSet,
    recv_free: SignalSet,
    send_must: SignalSet,
    send_free: SignalSet,
    /// Whether the guard carves an exclusion list out of its box.
    excludes: bool,
}

impl GuardSets {
    /// The boxes of `guard` on a part with interface `(ins, outs)`. A
    /// signal in both a must and a free set counts as must, as in the
    /// per-signal solver.
    fn of(guard: &Guard, ins: SignalSet, outs: SignalSet) -> GuardSets {
        match guard {
            Guard::Exact(l) => GuardSets {
                recv_must: l.inputs.intersection(ins),
                recv_free: SignalSet::EMPTY,
                send_must: l.outputs.intersection(outs),
                send_free: SignalSet::EMPTY,
                excludes: false,
            },
            Guard::Family(f) => GuardSets {
                recv_must: f.in_must.intersection(ins),
                recv_free: f.in_free.difference(f.in_must).intersection(ins),
                send_must: f.out_must.intersection(outs),
                send_free: f.out_free.difference(f.out_must).intersection(outs),
                excludes: !f.excluded.is_empty(),
            },
        }
    }

    fn join(self, other: GuardSets) -> GuardSets {
        GuardSets {
            recv_must: self.recv_must.union(other.recv_must),
            recv_free: self.recv_free.union(other.recv_free),
            send_must: self.send_must.union(other.send_must),
            send_free: self.send_free.union(other.send_free),
            excludes: self.excludes || other.excludes,
        }
    }
}

/// What one combination of part guards emits, memoized by the row kernel:
/// the product guard ids in emit order (`emitted[start..start + len]`),
/// how many of them are exact labels, and how many free signals the
/// combination enumerated (checked against the expansion cap on every
/// use).
#[derive(Debug, Clone, Copy)]
struct Solved {
    start: u32,
    len: u32,
    exact: u32,
    enumerated: u32,
}

/// The production row kernel: expands one product state (a tuple of
/// component states) by solving every combination of component transitions
/// with [`SignalSet`] algebra.
///
/// For one combination, `R_must` / `R_free` are the unions of each chosen
/// guard's must / free input sets, each restricted to its part's inputs;
/// `S_must` / `S_free` are built the same way over outputs. Every signal
/// has at most one receiver and one sender, so these unions are exactly the
/// per-signal domains of [`compose_reference`]'s solver. Then:
///
/// * the combination is infeasible iff a signal is must on one side of a
///   handshake and impossible on the other — one mask test, since
///   `R_must ∖ (S_must ∪ S_free)` and its mirror only contain signals that
///   are both received and sent (the internal signals);
/// * `A_must = R_must ∪ (S_must ∩ I)` and `B_must = S_must ∪ (R_must ∩ O)`;
/// * internal signals free on both sides (`R_free ∩ S_free`), and one-sided
///   free signals of parts carrying exclusion lists, are expanded
///   concretely; the remaining one-sided free signals stay symbolic.
///
/// A combination's result depends only on the chosen guards, so the kernel
/// works on guard ids: it computes each part's boxes once per guard id,
/// and memoizes the solution per tuple of chosen part guard ids as the
/// product guard ids it emits. Only a memo miss builds [`Guard`]s, and
/// interns them into the product's guard table; emitting a transition
/// otherwise copies ids. A kernel must therefore always be handed the same
/// product guard table (append-only, so ids stay valid), and its parts'
/// guard ids must keep naming the same guards — both hold for a product's
/// lifetime and for a [`CompositionCache`](crate::CompositionCache) across
/// recomposes.
#[derive(Debug, Clone)]
pub(crate) struct RowKernel {
    /// `(inputs, outputs)` of each part.
    interfaces: Vec<(SignalSet, SignalSet)>,
    all_inputs: SignalSet,
    all_outputs: SignalSet,
    /// Per part, the boxes of its guards by guard id, filled on first use.
    boxes: Vec<Vec<GuardSets>>,
    /// Every solved tuple of part guard ids, interned; `solved[i]` is the
    /// result for key `i`.
    memo: TupleArena,
    solved: Vec<Solved>,
    /// Product guard ids of every memo entry, back to back.
    emitted: Vec<GuardId>,
    /// The outer parts' positions in their rows (entry 0 is unused: part
    /// 0's row is the inner loop).
    combo: Vec<usize>,
    /// The chosen guard ids and target tuple of the current combination.
    key: Vec<u32>,
    target: Vec<u32>,
}

impl RowKernel {
    /// A kernel for the product of `parts`.
    pub(crate) fn new<P: Deref<Target = Automaton>>(parts: &[P]) -> RowKernel {
        let interfaces: Vec<(SignalSet, SignalSet)> =
            parts.iter().map(|p| (p.inputs(), p.outputs())).collect();
        let (all_inputs, all_outputs) = interfaces
            .iter()
            .fold((SignalSet::EMPTY, SignalSet::EMPTY), |(ai, ao), &(i, o)| {
                (ai.union(i), ao.union(o))
            });
        let k = interfaces.len();
        RowKernel {
            all_inputs,
            all_outputs,
            boxes: vec![Vec::new(); k],
            memo: TupleArena::new(k),
            solved: Vec::new(),
            emitted: Vec::new(),
            combo: Vec::with_capacity(k),
            key: Vec::with_capacity(k),
            target: Vec::with_capacity(k),
            interfaces,
        }
    }

    /// The composed input set (union of the parts' inputs).
    pub(crate) fn all_inputs(&self) -> SignalSet {
        self.all_inputs
    }

    /// The composed output set (union of the parts' outputs).
    pub(crate) fn all_outputs(&self) -> SignalSet {
        self.all_outputs
    }

    /// Expands the outgoing transitions of the product state `tuple` (part
    /// state ids, packed as in [`TupleArena`]): iterates all transition
    /// combinations (part 0's index varying fastest) and hands each
    /// composed guard's id in `guards`, in emit order, to `emit` together
    /// with the packed target tuple.
    ///
    /// Part 0's row is the inner loop, walked as a slice; the other parts
    /// advance like an odometer once per pass over it, and only the part
    /// that advanced (or wrapped) rewrites its entry of the key and target.
    ///
    /// This is the per-row kernel shared by [`compose`] (through
    /// [`LazyProduct`](crate::LazyProduct)) and the incremental
    /// recomposition cache (which runs it only over invalidated rows).
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] as for [`compose`].
    pub(crate) fn expand<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        tuple: &[u32],
        opts: &ComposeOptions,
        stats: &mut ComposeStats,
        guards: &mut GuardTable,
        mut emit: impl FnMut(GuardId, &[u32]),
    ) -> Result<()> {
        // The first combination: every part's first transition.
        self.key.clear();
        self.target.clear();
        for (p, &s) in parts.iter().zip(tuple) {
            let Some(first) = p.transitions_from(StateId(s)).first() else {
                return Ok(()); // some component blocks everything → product deadlock
            };
            self.key.push(first.guard.0);
            self.target.push(first.to.0);
        }
        self.combo.clear();
        self.combo.resize(parts.len(), 0);
        let inner = parts[0].transitions_from(StateId(tuple[0]));
        loop {
            for t in inner {
                stats.combos += 1;
                self.key[0] = t.guard.0;
                self.target[0] = t.to.0;
                let solved = match self.memo.get(&self.key) {
                    Some(entry) => self.solved[entry as usize],
                    None => self.solve(parts, opts, guards)?,
                };
                if solved.enumerated as usize > opts.expand_cap {
                    return Err(AutomataError::FreeSignalOverflow {
                        free: solved.enumerated as usize,
                        cap: opts.expand_cap,
                    });
                }
                stats.expanded_labels += u64::from(solved.exact);
                stats.family_guards += u64::from(solved.len - solved.exact);
                for &g in &self.emitted[solved.start as usize..][..solved.len as usize] {
                    emit(g, &self.target);
                }
            }
            // Advance the outer parts: a part that wraps restarts its row
            // and carries into the next one; when the last one wraps, every
            // combination has been solved.
            let mut i = 1;
            loop {
                let Some(p) = parts.get(i) else {
                    return Ok(());
                };
                let row = p.transitions_from(StateId(tuple[i]));
                let c = &mut self.combo[i];
                *c += 1;
                if *c == row.len() {
                    *c = 0;
                }
                self.key[i] = row[*c].guard.0;
                self.target[i] = row[*c].to.0;
                if *c != 0 {
                    break;
                }
                i += 1;
            }
        }
    }

    /// The boxes of guard `id` of part `i`.
    fn boxes_of(&mut self, i: usize, part: &Automaton, id: u32) -> GuardSets {
        let (ins, outs) = self.interfaces[i];
        let boxes = &mut self.boxes[i];
        while boxes.len() <= id as usize {
            let g = part.guard(GuardId(boxes.len() as u32));
            boxes.push(GuardSets::of(g, ins, outs));
        }
        boxes[id as usize]
    }

    /// Solves the current combination (the part guard ids in `key`; see
    /// the type docs), interns its composed guards into `guards` and
    /// memoizes the result. An overflowing combination is reported and not
    /// memoized.
    fn solve<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        opts: &ComposeOptions,
        guards: &mut GuardTable,
    ) -> Result<Solved> {
        let mut joint = GuardSets::default();
        for (i, p) in parts.iter().enumerate() {
            joint = joint.join(self.boxes_of(i, p, self.key[i]));
        }
        let GuardSets {
            recv_must,
            recv_free,
            send_must,
            send_free,
            excludes,
        } = joint;
        let start = self.emitted.len() as u32;
        let mut solved = Solved {
            start,
            len: 0,
            exact: 0,
            enumerated: 0,
        };
        let recv_never = self.all_inputs.difference(recv_must.union(recv_free));
        let send_never = self.all_outputs.difference(send_must.union(send_free));
        if recv_must.is_disjoint(send_never) && send_must.is_disjoint(recv_never) {
            // otherwise a handshake conflict makes the combination infeasible
            let in_must = recv_must.union(send_must.intersection(self.all_inputs));
            let out_must = send_must.union(recv_must.intersection(self.all_outputs));
            let free_in_only = recv_free.difference(self.all_outputs);
            let free_out_only = send_free.difference(self.all_inputs);

            // Parts with exclusion lists need their own labels concrete, so
            // any free signal touching their interface must be enumerated
            // as well.
            let mut enumerate = recv_free.intersection(send_free);
            if excludes {
                let one_sided = free_in_only.union(free_out_only);
                for (i, &(ins, outs)) in self.interfaces.iter().enumerate() {
                    if self.boxes[i][self.key[i] as usize].excludes {
                        enumerate = enumerate.union(one_sided.intersection(ins.union(outs)));
                    }
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
            solved.enumerated = enumerate.len() as u32;
            for chosen_free in enumerate.subsets() {
                let a_must = in_must.union(chosen_free.intersection(self.all_inputs));
                let b_must = out_must.union(chosen_free.intersection(self.all_outputs));
                if excludes && self.excluded(parts, a_must, b_must) {
                    continue;
                }
                let guard = if sym_in.is_empty() && sym_out.is_empty() {
                    solved.exact += 1;
                    Guard::Exact(Label::new(a_must, b_must))
                } else {
                    Guard::from(LabelFamily {
                        in_must: a_must,
                        in_free: sym_in,
                        out_must: b_must,
                        out_free: sym_out,
                        excluded: Vec::new(),
                    })
                };
                self.emitted.push(guards.intern(guard));
            }
        }
        solved.len = self.emitted.len() as u32 - start;
        self.memo.intern(&self.key);
        self.solved.push(solved);
        Ok(solved)
    }

    /// Whether some part's own share of the concrete label `(a, b)` is in
    /// the exclusion list of its chosen guard. Only checkable when that
    /// share is concrete, which the `enumerate` construction guarantees.
    fn excluded<P: Deref<Target = Automaton>>(
        &self,
        parts: &[P],
        a: SignalSet,
        b: SignalSet,
    ) -> bool {
        parts.iter().enumerate().any(|(i, p)| {
            let Guard::Family(f) = p.guard(GuardId(self.key[i])) else {
                return false;
            };
            let (ins, outs) = self.interfaces[i];
            !f.excluded.is_empty()
                && f.excluded
                    .contains(&Label::new(a.intersection(ins), b.intersection(outs)))
        })
    }
}

/// Composes two automata with default options. See [`compose`].
///
/// # Errors
///
/// Same as [`compose`].
pub fn compose2(a: &Automaton, b: &Automaton) -> Result<Composition> {
    compose(&[a, b], &ComposeOptions::default())
}

/// Composes `parts` synchronously (n-way generalization of Definition 3).
///
/// Implemented as a full expansion of the arena-backed on-the-fly product
/// ([`crate::lazy::LazyProduct`]); the classic HashMap-interned exploration
/// is retained as [`compose_reference`] and the two are differentially
/// tested to produce bit-identical results.
///
/// # Errors
///
/// * [`AutomataError::UniverseMismatch`] if the parts disagree on the universe.
/// * [`AutomataError::NotComposable`] if two parts share an input or output
///   signal.
/// * [`AutomataError::FreeSignalOverflow`] if a transition combination needs
///   more concrete expansion than `opts.expand_cap` allows.
/// * [`AutomataError::Limit`] if the reachable product exceeds
///   `opts.max_states`.
pub fn compose(parts: &[&Automaton], opts: &ComposeOptions) -> Result<Composition> {
    crate::lazy::LazyProduct::new(parts, opts)?.into_composition()
}

/// The classic materializing composition: `HashMap<Vec<StateId>, StateId>`
/// interner, per-state `Vec<Transition>` rows, full expansion before
/// returning, and the original per-signal constraint solver (one
/// `HashMap<SignalId, SignalRole>` walk per transition combination, no
/// memo) instead of the bitset [`RowKernel`]. Kept as the differential
/// oracle for the arena-backed [`compose`]; not intended for production
/// callers.
///
/// # Errors
///
/// Same as [`compose`].
#[doc(hidden)]
pub fn compose_reference(parts: &[&Automaton], opts: &ComposeOptions) -> Result<Composition> {
    assert!(!parts.is_empty(), "compose requires at least one automaton");
    let universe = parts[0].universe().clone();
    for p in parts {
        if !p.universe().same_as(&universe) {
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
    let roles = reference::signal_roles(parts);

    // Product exploration.
    let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut origin: Vec<Vec<StateId>> = Vec::new();
    let mut states: Vec<StateData> = Vec::new();
    let mut guards = GuardTable::default();
    let mut adj: Vec<Vec<Transition>> = Vec::new();
    let mut worklist: Vec<StateId> = Vec::new();
    let mut stats = ComposeStats::default();

    let intern = |tuple: Vec<StateId>,
                  index: &mut HashMap<Vec<StateId>, StateId>,
                  origin: &mut Vec<Vec<StateId>>,
                  states: &mut Vec<StateData>,
                  adj: &mut Vec<Vec<Transition>>,
                  worklist: &mut Vec<StateId>|
     -> StateId {
        if let Some(&id) = index.get(&tuple) {
            return id;
        }
        let id = StateId(states.len() as u32);
        let name = tuple
            .iter()
            .zip(parts)
            .map(|(&s, p)| p.state_name(s).to_owned())
            .collect::<Vec<_>>()
            .join("||");
        let props = tuple
            .iter()
            .zip(parts)
            .fold(crate::PropSet::EMPTY, |acc, (&s, p)| {
                acc.union(p.props_of(s))
            });
        states.push(StateData { name, props });
        adj.push(Vec::new());
        origin.push(tuple.clone());
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
                let mut t: Vec<StateId> = tuple.clone();
                t.push(q);
                next.push(t);
            }
        }
        initial_tuples = next;
    }
    let mut initial = Vec::new();
    for t in initial_tuples {
        initial.push(intern(
            t,
            &mut index,
            &mut origin,
            &mut states,
            &mut adj,
            &mut worklist,
        ));
    }

    while let Some(ps) = worklist.pop() {
        if states.len() > opts.max_states {
            return Err(AutomataError::Limit {
                what: "composed state space".into(),
                max: opts.max_states,
            });
        }
        let tuple = origin[ps.index()].clone();
        reference::expand_tuple(
            parts,
            &tuple,
            &roles,
            all_inputs,
            all_outputs,
            opts,
            &mut stats,
            |guard, target| {
                let tgt = intern(
                    target.to_vec(),
                    &mut index,
                    &mut origin,
                    &mut states,
                    &mut adj,
                    &mut worklist,
                );
                let tr = Transition {
                    guard: guards.intern(guard),
                    to: tgt,
                };
                if !adj[ps.index()].contains(&tr) {
                    adj[ps.index()].push(tr);
                }
            },
        )?;
    }

    let name = parts
        .iter()
        .map(|p| p.name().to_owned())
        .collect::<Vec<_>>()
        .join("||");
    let automaton = Automaton::from_rows(
        universe,
        name,
        (all_inputs, all_outputs),
        states,
        (guards, adj),
        initial,
    );
    automaton.validate()?;
    let csr = Csr::of(&automaton);
    let mut tuples = TupleArena::new(parts.len());
    for t in &origin {
        tuples.intern(&t.iter().map(|s| s.0).collect::<Vec<_>>());
    }
    Ok(Composition {
        reachable: automaton.state_count(),
        automaton,
        component_names: parts.iter().map(|p| p.name().to_owned()).collect(),
        interfaces: parts.iter().map(|p| (p.inputs(), p.outputs())).collect(),
        stats,
        csr,
        tuples,
    })
}

/// The per-signal constraint solver of the classic kernel, kept only as the
/// row kernel of [`compose_reference`]: for every transition combination it
/// walks the signal roles one signal at a time, meeting the receiver's and
/// the sender's domains. [`RowKernel`] solves the same system with set
/// algebra; the lazy differential suite pins the two to equal output.
mod reference {
    use std::collections::HashMap;

    use super::{ComposeOptions, ComposeStats};
    use crate::automaton::{Automaton, StateId, Transition};
    use crate::error::{AutomataError, Result};
    use crate::label::{Guard, Label, LabelFamily};
    use crate::signal::{SignalId, SignalSet};

    /// Who sends / receives a signal within a composition.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct SignalRole {
        sender: Option<usize>,
        receiver: Option<usize>,
    }

    /// Derives the per-signal sender/receiver roles of a composition: each
    /// signal has at most one sender and one receiver among `parts`.
    pub(super) fn signal_roles(parts: &[&Automaton]) -> HashMap<SignalId, SignalRole> {
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
    /// [`AutomataError::FreeSignalOverflow`] as for [`compose`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn expand_tuple(
        parts: &[&Automaton],
        tuple: &[StateId],
        roles: &HashMap<SignalId, SignalRole>,
        all_inputs: SignalSet,
        all_outputs: SignalSet,
        opts: &ComposeOptions,
        stats: &mut ComposeStats,
        mut emit: impl FnMut(Guard, &[StateId]),
    ) -> Result<()> {
        let n = parts.len();
        // Iterate over all transition combinations (one per component).
        let per_comp: Vec<&[Transition]> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| p.transitions_from(tuple[i]))
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
            let target: Vec<StateId> = chosen.iter().map(|t| t.to).collect();
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
}

/// Restricts a run of a composition to one component and drops the leading
/// product context — convenience wrapper used by the synthesis loop.
pub fn project_to_component(comp: &Composition, run: &Run, component: &str) -> Option<Run> {
    let idx = comp.component_index(component)?;
    let mut r = comp.project_run(run, idx);
    // A projected deadlock run keeps its kind; a projected regular run may
    // legitimately end anywhere.
    if r.kind == RunKind::Deadlock && r.labels.len() == r.states.len() + 1 {
        // cannot happen by construction, but keep the invariant explicit
        r.labels.pop();
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    /// A simple request/response pair: `client` sends `req` and waits for
    /// `rsp`; `server` consumes `req` and replies `rsp`.
    fn client(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "client")
            .output("req")
            .input("rsp")
            .state("idle")
            .initial("idle")
            .state("waiting")
            .transition("idle", [], ["req"], "waiting")
            .transition("waiting", ["rsp"], [], "idle")
            .build()
            .unwrap()
    }

    fn server(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("busy")
            .transition("ready", ["req"], [], "busy")
            .transition("busy", [], ["rsp"], "ready")
            .build()
            .unwrap()
    }

    #[test]
    fn closed_handshake_composes() {
        let u = Universe::new();
        let c = client(&u);
        let s = server(&u);
        let comp = compose2(&c, &s).unwrap();
        let m = &comp.automaton;
        // lockstep: (idle,ready) --req--> (waiting,busy) --rsp--> (idle,ready)
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.transition_count(), 2);
        assert!(m.is_deterministic());
        let req = u.signal("req");
        let rsp = u.signal("rsp");
        let init = m.initial_states()[0];
        let l = Label::new(SignalSet::singleton(req), SignalSet::singleton(req));
        assert!(m.enables(init, l));
        let next = m.successors(init, l)[0];
        let l2 = Label::new(SignalSet::singleton(rsp), SignalSet::singleton(rsp));
        assert!(m.enables(next, l2));
    }

    #[test]
    fn mismatched_handshake_deadlocks() {
        let u = Universe::new();
        let c = client(&u);
        // server that never answers
        let s = AutomatonBuilder::new(&u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("stuck")
            .transition("ready", ["req"], [], "stuck")
            .build()
            .unwrap();
        let comp = compose2(&c, &s).unwrap();
        let m = &comp.automaton;
        assert_eq!(m.state_count(), 2);
        // (waiting, stuck): client needs rsp, server produces nothing → no
        // joint transition.
        let dead = m
            .state_ids()
            .find(|&st| m.transitions_from(st).is_empty())
            .expect("deadlock state exists");
        assert!(m.is_deadlock(dead));
    }

    #[test]
    fn shared_outputs_are_rejected() {
        let u = Universe::new();
        let a = AutomatonBuilder::new(&u, "a")
            .output("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "b")
            .output("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(matches!(
            compose2(&a, &b),
            Err(AutomataError::NotComposable { .. })
        ));
    }

    #[test]
    fn universe_mismatch_is_rejected() {
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
            compose2(&a, &b).unwrap_err(),
            AutomataError::UniverseMismatch
        );
    }

    #[test]
    fn family_guard_is_pinned_by_concrete_partner() {
        let u = Universe::new();
        let c = client(&u);
        // A chaotic-ish partner that accepts any subset of {req} and outputs
        // any subset of {rsp}.
        let req = u.signal("req");
        let rsp = u.signal("rsp");
        let fam = Guard::from(LabelFamily::all(
            SignalSet::singleton(req),
            SignalSet::singleton(rsp),
        ));
        let s = AutomatonBuilder::new(&u, "anyserver")
            .input("req")
            .output("rsp")
            .state("s")
            .initial("s")
            .transition_guard("s", fam, "s")
            .build()
            .unwrap();
        let comp = compose2(&c, &s).unwrap();
        let m = &comp.automaton;
        // From (idle,s): client forces A_client = {}, B_client = {req}.
        // Partner must receive req; partner's rsp output is free, but the
        // client at `idle` does not accept rsp, so rsp is pinned false.
        let init = m.initial_states()[0];
        let ts = m.transitions_from(init);
        assert_eq!(ts.len(), 1);
        let l = m
            .guard(ts[0].guard)
            .as_exact()
            .expect("concrete after pinning");
        assert!(l.outputs.contains(req));
        assert!(!l.outputs.contains(rsp));
        assert!(m.is_concrete());
    }

    #[test]
    fn open_input_stays_symbolic() {
        let u = Universe::new();
        // Component with an environment input `env` nobody drives.
        let a = AutomatonBuilder::new(&u, "a")
            .input("env")
            .output("out")
            .state("s")
            .initial("s")
            .transition_guard(
                "s",
                Guard::from(LabelFamily::all(
                    SignalSet::singleton(u.signal("env")),
                    SignalSet::EMPTY,
                )),
                "s",
            )
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "b")
            .input("out")
            .state("t")
            .initial("t")
            .transition("t", [], [], "t")
            .build()
            .unwrap();
        let comp = compose2(&a, &b).unwrap();
        let m = &comp.automaton;
        let init = m.initial_states()[0];
        let ts = m.transitions_from(init);
        assert_eq!(ts.len(), 1);
        // env stays a free input in the composed guard
        match m.guard(ts[0].guard) {
            Guard::Family(f) => {
                assert!(f.in_free.contains(u.signal("env")));
            }
            Guard::Exact(_) => panic!("expected symbolic guard"),
        }
    }

    #[test]
    fn projection_recovers_component_run() {
        let u = Universe::new();
        let c = client(&u);
        let s = server(&u);
        let comp = compose2(&c, &s).unwrap();
        let m = &comp.automaton;
        let init = m.initial_states()[0];
        let l = m
            .guard(m.transitions_from(init)[0].guard)
            .as_exact()
            .unwrap();
        let next = m.successors(init, l)[0];
        let run = Run::regular(vec![init, next], vec![l]);
        let cr = comp.project_run(&run, comp.component_index("client").unwrap());
        assert!(cr.validate_in(&c));
        let sr = comp.project_run(&run, comp.component_index("server").unwrap());
        assert!(sr.validate_in(&s));
    }

    #[test]
    fn three_way_composition() {
        let u = Universe::new();
        // a → b → c pipeline: a emits x, b turns x into y, c consumes y.
        let a = AutomatonBuilder::new(&u, "a")
            .output("x")
            .state("s")
            .initial("s")
            .transition("s", [], ["x"], "s")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "b")
            .input("x")
            .output("y")
            .state("s")
            .initial("s")
            .transition("s", ["x"], ["y"], "s")
            .build()
            .unwrap();
        let c = AutomatonBuilder::new(&u, "c")
            .input("y")
            .state("s")
            .initial("s")
            .transition("s", ["y"], [], "s")
            .build()
            .unwrap();
        let comp = compose(&[&a, &b, &c], &ComposeOptions::default()).unwrap();
        let m = &comp.automaton;
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.transition_count(), 1);
        let l = m
            .guard(m.transitions_from(m.initial_states()[0])[0].guard)
            .as_exact()
            .unwrap();
        assert_eq!(l.inputs.len(), 2); // x received by b, y received by c
        assert_eq!(l.outputs.len(), 2); // x sent by a, y sent by b
    }

    #[test]
    fn labels_union_in_product() {
        let u = Universe::new();
        let a = AutomatonBuilder::new(&u, "a")
            .state("s")
            .initial("s")
            .prop("s", "pa")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "b")
            .state("t")
            .initial("t")
            .prop("t", "pb")
            .transition("t", [], [], "t")
            .build()
            .unwrap();
        let comp = compose2(&a, &b).unwrap();
        let m = &comp.automaton;
        let st = m.initial_states()[0];
        assert!(m.props_of(st).contains(u.prop("pa")));
        assert!(m.props_of(st).contains(u.prop("pb")));
    }

    #[test]
    fn exclusions_remove_specific_combo() {
        let u = Universe::new();
        let req = u.signal("req");
        // Partner admits any subset of {req} as input except exactly {req}.
        let mut fam = LabelFamily::all(SignalSet::singleton(req), SignalSet::EMPTY);
        fam.excluded
            .push(Label::new(SignalSet::singleton(req), SignalSet::EMPTY));
        let s = AutomatonBuilder::new(&u, "srv")
            .input("req")
            .state("s")
            .initial("s")
            .transition_guard("s", Guard::from(fam), "s")
            .build()
            .unwrap();
        // Client that insists on sending req.
        let c = AutomatonBuilder::new(&u, "cli")
            .output("req")
            .state("t")
            .initial("t")
            .transition("t", [], ["req"], "t")
            .build()
            .unwrap();
        let comp = compose2(&c, &s).unwrap();
        // The only possible joint step is excluded → initial state deadlocks.
        let m = &comp.automaton;
        assert!(m.transitions_from(m.initial_states()[0]).is_empty());
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

    /// A memoized combination is still checked against the expansion cap
    /// of the call that reuses it.
    #[test]
    fn memo_hits_respect_the_expansion_cap() {
        let u = Universe::new();
        let sig = u.signals(["x", "y"]);
        // Two closure-like parts that leave the internal signals free on
        // both sides, which must be enumerated.
        let any = |name: &str, ins: &[&str], outs: &[&str]| {
            AutomatonBuilder::new(&u, name)
                .inputs(ins.iter().copied())
                .outputs(outs.iter().copied())
                .state("s")
                .initial("s")
                .transition_guard(
                    "s",
                    Guard::from(LabelFamily::all(
                        u.signals(ins.iter().copied()),
                        u.signals(outs.iter().copied()),
                    )),
                    "s",
                )
                .build()
                .unwrap()
        };
        let a = any("a", &[], &["x", "y"]);
        let b = any("b", &["x", "y"], &[]);
        let parts = [&a, &b];
        let mut kernel = RowKernel::new(&parts);
        let mut guards = GuardTable::default();
        let mut stats = ComposeStats::default();
        let mut emitted = 0;
        let tuple = [0, 0];
        let wide = ComposeOptions::default();
        kernel
            .expand(&parts, &tuple, &wide, &mut stats, &mut guards, |_, _| {
                emitted += 1
            })
            .unwrap();
        assert_eq!(emitted, 4); // every subset of {x, y}
        assert_eq!(guards.len(), 4);
        let narrow = ComposeOptions {
            expand_cap: 1,
            ..ComposeOptions::default()
        };
        let err = kernel
            .expand(&parts, &tuple, &narrow, &mut stats, &mut guards, |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            AutomataError::FreeSignalOverflow {
                free: sig.len(),
                cap: 1
            }
        );
        assert_eq!(stats.combos, 2);
        assert_eq!(stats.expanded_labels, 4);
    }
}
