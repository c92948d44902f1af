//! The core automaton type (Definition 1 of the paper, extended with the
//! state labelling of Section 2.1).
//!
//! An automaton is a 6-tuple `M = (S, I, O, T, L, Q)`: finite states `S`,
//! input signals `I`, output signals `O`, transitions
//! `T ⊆ S × ℘(I) × ℘(O) × S`, labelling `L : S → ℘(P)`, and initial states
//! `Q`. Time semantics: every transition takes exactly one time unit.

use std::fmt;

use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardId, GuardTable, Label};
use crate::prop::PropSet;
use crate::signal::SignalSet;
use crate::universe::Universe;

/// Index of a state within one [`Automaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-state data handed to [`Automaton::from_rows`]: a display name and
/// the atomic propositions holding in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StateData {
    /// Human-readable name (e.g. `noConvoy::default`).
    pub name: String,
    /// The labelling `L(s)`.
    pub props: PropSet,
}

/// An outgoing transition: the id of its [`Guard`] (one label or a
/// symbolic family) in the owning automaton's guard table, and the target
/// state. Resolve the guard with [`Automaton::guard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The label(s) on which this transition fires.
    pub guard: GuardId,
    /// The successor state.
    pub to: StateId,
}

/// Where one state's row lives in [`Automaton`]'s transition buffer: `len`
/// transitions from `start`, in a slot of `cap` entries.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Filler for fresh transition-buffer entries no row holds yet.
const VACANT: Transition = Transition {
    guard: GuardId(u32::MAX),
    to: StateId(u32::MAX),
};

/// A finite discrete-time I/O automaton with state labelling.
///
/// Construct via [`AutomatonBuilder`](crate::AutomatonBuilder). The struct is
/// immutable after construction; all kernel operations
/// ([`compose`](crate::compose), [`refines`](crate::refines),
/// [`chaotic_closure`](crate::chaotic_closure), …) produce new automata.
///
/// Storage is flat: all state names share one string buffer, and all rows
/// share one buffer of 8-byte [`Transition`]s in which each state owns a
/// slot. Each distinct guard is stored once, in the automaton's guard
/// table, and transitions refer to it by [`GuardId`]. Adding a state or
/// rewriting a row (what the crate's incremental products and patched
/// closures do) therefore allocates nothing per state: a rewritten row
/// stays in its slot when it fits, and otherwise moves to a vacated slot
/// of the right size class or to a fresh power-of-two slot at the end.
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, AutomatonBuilder};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "front")
///     .input("proposal")
///     .output("accept")
///     .state("idle")
///     .initial("idle")
///     .state("busy")
///     .transition("idle", ["proposal"], [], "busy")
///     .transition("busy", [], ["accept"], "idle")
///     .build()
///     .unwrap();
/// assert_eq!(m.state_count(), 2);
/// assert!(m.is_deterministic());
/// ```
#[derive(Clone)]
pub struct Automaton {
    pub(crate) universe: Universe,
    pub(crate) name: String,
    pub(crate) inputs: SignalSet,
    pub(crate) outputs: SignalSet,
    /// State names back to back: state `s` is `names[name_end[s-1]..name_end[s]]`.
    names: String,
    name_end: Vec<u32>,
    /// The labelling `L(s)` per state.
    props: Vec<PropSet>,
    /// Every distinct guard, interned; ids are append-only.
    guards: GuardTable,
    /// Every row's transitions; row `s` is `trans[rows[s].start..][..rows[s].len]`.
    trans: Vec<Transition>,
    rows: Vec<Span>,
    /// Transitions held by rows; the rest of `trans` is vacant.
    live: usize,
    /// Vacated slots `(start, cap)` by size class: `free[c]` holds slots
    /// with `cap` in `[2^c, 2^(c+1))`.
    free: Vec<Vec<(u32, u32)>>,
    pub(crate) initial: Vec<StateId>,
}

impl Automaton {
    /// The universe this automaton was built against.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The automaton's name (used in diagnostics and DOT output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input signal set `I`.
    pub fn inputs(&self) -> SignalSet {
        self.inputs
    }

    /// The output signal set `O`.
    pub fn outputs(&self) -> SignalSet {
        self.outputs
    }

    /// Number of states `|S|`.
    pub fn state_count(&self) -> usize {
        self.props.len()
    }

    /// Total number of transition entries (symbolic families count once).
    pub fn transition_count(&self) -> usize {
        self.live
    }

    /// The guard with id `id` (a [`Transition::guard`] of this automaton).
    pub fn guard(&self, id: GuardId) -> &Guard {
        self.guards.get(id)
    }

    /// Number of distinct guards in the guard table. The table is
    /// append-only, so it may also hold guards no row uses any more.
    pub fn guard_count(&self) -> usize {
        self.guards.len()
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.state_count() as u32).map(StateId)
    }

    /// The display name of state `s`.
    pub fn state_name(&self, s: StateId) -> &str {
        let start = match s.index() {
            0 => 0,
            i => self.name_end[i - 1] as usize,
        };
        &self.names[start..self.name_end[s.index()] as usize]
    }

    /// The labelling `L(s)`.
    pub fn props_of(&self, s: StateId) -> PropSet {
        self.props[s.index()]
    }

    /// Looks up a state id by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.state_ids().find(|&s| self.state_name(s) == name)
    }

    /// The initial state set `Q`.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// The outgoing transitions of state `s`.
    pub fn transitions_from(&self, s: StateId) -> &[Transition] {
        let Span { start, len, .. } = self.rows[s.index()];
        &self.trans[start as usize..(start + len) as usize]
    }

    /// Iterates over all `(source, transition)` pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &Transition)> + '_ {
        self.state_ids()
            .flat_map(move |s| self.transitions_from(s).iter().map(move |t| (s, t)))
    }

    /// Returns `true` if state `s` enables the concrete label `(A, B)`, i.e.
    /// a transition `(s, A, B, s')` exists.
    pub fn enables(&self, s: StateId, label: Label) -> bool {
        self.transitions_from(s)
            .iter()
            .any(|t| self.guard(t.guard).admits(label))
    }

    /// All successor states of `s` under the concrete label `(A, B)`.
    pub fn successors(&self, s: StateId, label: Label) -> Vec<StateId> {
        self.transitions_from(s)
            .iter()
            .filter(|t| self.guard(t.guard).admits(label))
            .map(|t| t.to)
            .collect()
    }

    /// Returns `true` if `s` has no outgoing transition at all — a deadlock
    /// state in the sense used for the `δ` predicate.
    pub fn is_deadlock(&self, s: StateId) -> bool {
        self.transitions_from(s)
            .iter()
            .all(|t| match self.guard(t.guard) {
                Guard::Exact(_) => false,
                Guard::Family(f) => f.is_empty(),
            })
    }

    /// Whether the automaton is deterministic: for any state and concrete
    /// label there is at most one successor, and there is exactly one
    /// initial state.
    ///
    /// Symbolic guards are compared pairwise via box intersection, so the
    /// check is exact without enumerating label families.
    pub fn is_deterministic(&self) -> bool {
        self.determinism_violation().is_none()
    }

    /// If the automaton is nondeterministic, returns the offending state.
    pub fn determinism_violation(&self) -> Option<StateId> {
        if self.initial.len() != 1 {
            return self.initial.first().copied().or(Some(StateId(0)));
        }
        for s in self.state_ids() {
            let ts = self.transitions_from(s);
            for (a, ta) in ts.iter().enumerate() {
                for tb in &ts[a + 1..] {
                    if ta.to == tb.to && ta.guard == tb.guard {
                        continue; // duplicate entry, harmless
                    }
                    let fa = self.guard(ta.guard).to_family();
                    let fb = self.guard(tb.guard).to_family();
                    if let Some(ix) = fa.intersect(&fb) {
                        if !ix.is_empty() {
                            return Some(s);
                        }
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if every transition guard is an exact label.
    pub fn is_concrete(&self) -> bool {
        self.transitions()
            .all(|(_, t)| matches!(self.guard(t.guard), Guard::Exact(_)))
    }

    /// The union of all propositions used in any state labelling — the label
    /// set `𝓛(M)` of Section 2.1.
    pub fn prop_support(&self) -> PropSet {
        self.props
            .iter()
            .fold(PropSet::EMPTY, |acc, &p| acc.union(p))
    }

    /// Checks composability with `other`: `I ∩ I' = ∅` and `O ∩ O' = ∅`
    /// (Section 2).
    pub fn composable_with(&self, other: &Automaton) -> bool {
        self.inputs.is_disjoint(other.inputs) && self.outputs.is_disjoint(other.outputs)
    }

    /// Checks orthogonality with `other`: composable and additionally
    /// `I ∩ O' = ∅` and `O ∩ I' = ∅` (no communication at all).
    pub fn orthogonal_to(&self, other: &Automaton) -> bool {
        self.composable_with(other)
            && self.inputs.is_disjoint(other.outputs)
            && self.outputs.is_disjoint(other.inputs)
    }

    /// Returns the set of states reachable from `Q`.
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.state_count()];
        let mut stack: Vec<StateId> = self.initial.clone();
        let mut out = Vec::new();
        for &s in &self.initial {
            seen[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            out.push(s);
            for t in self.transitions_from(s) {
                if !seen[t.to.index()] {
                    seen[t.to.index()] = true;
                    stack.push(t.to);
                }
            }
        }
        out.sort();
        out
    }

    /// Produces a copy containing only the reachable part of the automaton
    /// (Definition 3 requires composition results to be trimmed this way).
    #[must_use]
    pub fn trim(&self) -> Automaton {
        let mut keep = vec![false; self.state_count()];
        for s in self.reachable_states() {
            keep[s.index()] = true;
        }
        let mut out = self.clone();
        out.retain_states(&keep);
        out
    }

    /// Replaces the outgoing transitions of state `s` with `(guard,
    /// target)` pairs, interning each guard in this automaton's guard
    /// table.
    ///
    /// Used to build one-step "slice" automata (e.g. the exact joint-step
    /// decision in `muml-core`'s frontier probing).
    ///
    /// # Panics
    ///
    /// Panics if a new transition leaves the declared interface or targets
    /// a missing state.
    pub fn replace_transitions(
        &mut self,
        s: StateId,
        transitions: impl IntoIterator<Item = (Guard, StateId)>,
    ) {
        let mut row: Vec<Transition> = Vec::new();
        for (guard, to) in transitions {
            assert!(
                to.index() < self.state_count(),
                "transition target out of range"
            );
            assert!(
                guard.input_support().is_subset(self.inputs)
                    && guard.output_support().is_subset(self.outputs),
                "transition guard leaves the declared interface"
            );
            row.push(Transition {
                guard: self.guards.intern(guard),
                to,
            });
        }
        self.set_row(s, &mut row);
    }

    /// The guard table, to intern guards into (interning only appends, so
    /// every id handed out stays valid).
    pub(crate) fn guards_mut(&mut self) -> &mut GuardTable {
        &mut self.guards
    }

    /// Assembles an automaton from per-state data and rows whose guard ids
    /// refer to `guards`.
    pub(crate) fn from_rows(
        universe: Universe,
        name: String,
        (inputs, outputs): (SignalSet, SignalSet),
        states: Vec<StateData>,
        (guards, adj): (GuardTable, Vec<Vec<Transition>>),
        initial: Vec<StateId>,
    ) -> Automaton {
        debug_assert_eq!(states.len(), adj.len(), "one row per state");
        let mut m = Automaton::empty(universe, name, (inputs, outputs), guards, initial);
        m.trans.reserve(adj.iter().map(Vec::len).sum());
        for (data, row) in states.into_iter().zip(adj) {
            let s = m.push_state(data.props, |buf| buf.push_str(&data.name));
            for t in row {
                m.push_transition(s, t);
            }
        }
        m
    }

    /// An automaton without states over the guard table `guards`, to be
    /// filled by [`Self::push_state`] and [`Self::push_transition`].
    pub(crate) fn empty(
        universe: Universe,
        name: String,
        (inputs, outputs): (SignalSet, SignalSet),
        guards: GuardTable,
        initial: Vec<StateId>,
    ) -> Automaton {
        Automaton {
            universe,
            name,
            inputs,
            outputs,
            names: String::new(),
            name_end: Vec::new(),
            props: Vec::new(),
            guards,
            trans: Vec::new(),
            rows: Vec::new(),
            live: 0,
            free: Vec::new(),
            initial,
        }
    }

    /// Trims the per-state arrays and the row buffer, which a product
    /// built state by state grows by doubling, to their length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.name_end.shrink_to_fit();
        self.props.shrink_to_fit();
        self.rows.shrink_to_fit();
        self.trans.shrink_to_fit();
    }

    /// Appends a state with an empty row; `name` writes its display name
    /// into the shared name buffer.
    pub(crate) fn push_state(&mut self, props: PropSet, name: impl FnOnce(&mut String)) -> StateId {
        let s = StateId(self.props.len() as u32);
        name(&mut self.names);
        self.name_end
            .push(u32::try_from(self.names.len()).expect("state names exceed the u32 range"));
        self.props.push(props);
        self.rows.push(Span::default());
        s
    }

    /// Sets the labelling of state `s`.
    pub(crate) fn set_props(&mut self, s: StateId, props: PropSet) {
        self.props[s.index()] = props;
    }

    /// Appends `t` to the row of `s` while building rows one after the
    /// other at the end of the buffer: the row must be empty or the last
    /// one built this way.
    pub(crate) fn push_transition(&mut self, s: StateId, t: Transition) {
        let end = u32::try_from(self.trans.len()).expect("transitions exceed the u32 range");
        let row = &mut self.rows[s.index()];
        if row.cap == 0 {
            row.start = end;
        }
        debug_assert!(
            row.start + row.cap == end && row.len == row.cap,
            "rows are built one at a time, at the end of the buffer"
        );
        row.len += 1;
        row.cap += 1;
        self.live += 1;
        self.trans.push(t);
    }

    /// Writes the row of `s`, which has none yet, packed at the end of the
    /// buffer, draining `row`: how a product is built row after row.
    pub(crate) fn push_row(&mut self, s: StateId, row: &mut Vec<Transition>) {
        debug_assert_eq!(self.rows[s.index()].cap, 0, "the state has a row");
        let start = u32::try_from(self.trans.len()).expect("transitions exceed the u32 range");
        let len = row.len() as u32;
        self.live += row.len();
        self.trans.append(row);
        self.rows[s.index()] = Span {
            start,
            len,
            cap: len,
        };
    }

    /// Replaces the row of `s` with the transitions in `row` (guard ids of
    /// this automaton), draining it (so a caller can reuse one scratch row
    /// for every state). The row keeps its slot when it fits, takes a
    /// vacated slot of its size class otherwise, or a fresh power-of-two
    /// slot at the end of the buffer.
    pub(crate) fn set_row(&mut self, s: StateId, row: &mut Vec<Transition>) {
        let mut span = self.rows[s.index()];
        if row.len() > span.cap as usize {
            self.vacate(span);
            span = self.slot(row.len());
        } else {
            self.live -= span.len as usize;
        }
        span.len = row.len() as u32;
        self.live += row.len();
        self.trans[span.start as usize..][..row.len()].copy_from_slice(row);
        row.clear();
        self.rows[s.index()] = span;
    }

    /// Empties the row of `s`, vacating its slot.
    pub(crate) fn clear_row(&mut self, s: StateId) {
        let span = std::mem::take(&mut self.rows[s.index()]);
        self.vacate(span);
    }

    /// Vacates a row's slot and files it in the free lists.
    fn vacate(&mut self, span: Span) {
        self.live -= span.len as usize;
        if span.cap > 0 {
            let class = span.cap.ilog2() as usize;
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push((span.start, span.cap));
        }
    }

    /// An empty slot for at least `len` transitions: a vacated one whose
    /// size class guarantees the room, or a power-of-two slot appended.
    fn slot(&mut self, len: usize) -> Span {
        if len == 0 {
            return Span::default();
        }
        let class = len.next_power_of_two().trailing_zeros() as usize;
        if let Some((start, cap)) = self.free.get_mut(class).and_then(Vec::pop) {
            return Span { start, len: 0, cap };
        }
        let start = u32::try_from(self.trans.len()).expect("transitions exceed the u32 range");
        let cap = len.next_power_of_two();
        // Grow by an eighth rather than doubling: the buffer is the
        // product's largest allocation, and splices append a little at a
        // time.
        if self.trans.capacity() < self.trans.len() + cap {
            self.trans.reserve_exact(cap + self.trans.len() / 8);
        }
        self.trans.resize(self.trans.len() + cap, VACANT);
        Span {
            start,
            len: 0,
            cap: cap as u32,
        }
    }

    /// Repacks the transition buffer row after row once vacant entries
    /// outnumber live ones, so rewriting rows keeps memory linear in the
    /// live relation.
    pub(crate) fn compact_rows(&mut self) {
        if self.trans.len() - self.live <= self.live {
            return;
        }
        let mut trans = Vec::with_capacity(self.live);
        for row in &mut self.rows {
            let start = trans.len() as u32;
            trans
                .extend_from_slice(&self.trans[row.start as usize..(row.start + row.len) as usize]);
            *row = Span {
                start,
                len: row.len,
                cap: row.len,
            };
        }
        self.trans = trans;
        self.free.clear();
    }

    /// Keeps exactly the states with `keep[s]`, in order, renumbering
    /// transition targets and initial states. Kept rows must only target
    /// kept states; dropped initial states are dropped from `Q`. The guard
    /// table, and so every guard id, is kept.
    pub(crate) fn retain_states(&mut self, keep: &[bool]) {
        let mut remap = vec![u32::MAX; self.state_count()];
        let mut next = 0u32;
        for (s, &k) in keep.iter().enumerate() {
            if k {
                remap[s] = next;
                next += 1;
            }
        }
        let name = std::mem::take(&mut self.name);
        let guards = std::mem::take(&mut self.guards);
        let fresh = Automaton::empty(
            self.universe.clone(),
            name,
            (self.inputs, self.outputs),
            guards,
            Vec::new(),
        );
        let old = std::mem::replace(self, fresh);
        self.trans.reserve(old.transition_count());
        for s in old.state_ids().filter(|s| keep[s.index()]) {
            let new = self.push_state(old.props_of(s), |buf| buf.push_str(old.state_name(s)));
            for t in old.transitions_from(s) {
                let to = remap[t.to.index()];
                assert!(to != u32::MAX, "a kept row targets a dropped state");
                self.push_transition(
                    new,
                    Transition {
                        guard: t.guard,
                        to: StateId(to),
                    },
                );
            }
        }
        self.initial = old
            .initial
            .iter()
            .filter(|q| keep[q.index()])
            .map(|q| StateId(remap[q.index()]))
            .collect();
    }

    /// Internal validation: every guard stays within the declared interface,
    /// every target exists, and there is at least one initial state. Each
    /// distinct guard is checked once; targets are checked per entry.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.initial.is_empty() {
            return Err(AutomataError::NoInitialState(self.name.clone()));
        }
        let leaves: Vec<bool> = self
            .guards
            .as_slice()
            .iter()
            .map(|g| {
                !g.input_support().is_subset(self.inputs)
                    || !g.output_support().is_subset(self.outputs)
            })
            .collect();
        for s in self.state_ids() {
            for t in self.transitions_from(s) {
                if t.to.index() >= self.state_count() {
                    return Err(AutomataError::UnknownState(format!(
                        "transition target #{} from state `{}`",
                        t.to.0,
                        self.state_name(s)
                    )));
                }
                if leaves[t.guard.index()] {
                    return Err(AutomataError::UndeclaredSignal {
                        automaton: self.name.clone(),
                        detail: format!(
                            "guard {} on state `{}` leaves interface",
                            self.guard(t.guard),
                            self.state_name(s)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Heap bytes the automaton holds, by capacity: names, labelling, the
    /// guard table, the transition buffer, row spans, free lists and
    /// initial states.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.name.capacity()
            + self.names.capacity()
            + self.name_end.capacity() * size_of::<u32>()
            + self.props.capacity() * size_of::<PropSet>()
            + self.guards.heap_bytes()
            + self.trans.capacity() * size_of::<Transition>()
            + self.rows.capacity() * size_of::<Span>()
            + self.free.capacity() * size_of::<Vec<(u32, u32)>>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * size_of::<(u32, u32)>())
                .sum::<usize>()
            + self.initial.capacity() * size_of::<StateId>()
    }
}

/// Structural equality: the same universe, name and interface, the same
/// states (names and labels) with the same transition rows in the same
/// order, and the same initial states. Rows are compared by resolved
/// guard, so equality does not depend on the order guards were interned
/// in. Equal automata compose identically.
impl PartialEq for Automaton {
    fn eq(&self, other: &Automaton) -> bool {
        self.universe.same_as(&other.universe)
            && self.name == other.name
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.initial == other.initial
            && self.state_count() == other.state_count()
            && self.state_ids().all(|s| {
                let (a, b) = (self.transitions_from(s), other.transitions_from(s));
                self.state_name(s) == other.state_name(s)
                    && self.props_of(s) == other.props_of(s)
                    && a.len() == b.len()
                    && a.iter().zip(b).all(|(ta, tb)| {
                        ta.to == tb.to && self.guard(ta.guard) == other.guard(tb.guard)
                    })
            })
    }
}

impl Eq for Automaton {}

impl fmt::Debug for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Automaton")
            .field("name", &self.name)
            .field("states", &self.state_count())
            .field("transitions", &self.transition_count())
            .field("initial", &self.initial)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::label::LabelFamily;

    #[test]
    fn transition_is_8_bytes() {
        // Rows hold guard ids; each distinct guard lives once in the table.
        assert_eq!(std::mem::size_of::<Transition>(), 8);
    }

    fn family(u: &Universe, excluded: &[Label]) -> Guard {
        let mut f = LabelFamily::all(u.signals(["a"]), u.signals(["b"]));
        f.excluded = excluded.to_vec();
        Guard::from(f)
    }

    #[test]
    fn equal_guards_share_one_id() {
        let u = Universe::new();
        let a = Label::new(u.signals(["a"]), SignalSet::EMPTY);
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", ["a"], [], "s0")
            .transition("s1", ["a"], [], "s1")
            .transition("s0", [], [], "s0")
            .build()
            .unwrap();
        assert_eq!(m.transition_count(), 4);
        assert_eq!(m.guard_count(), 2);
        // Rows in state order: s0 = [a → s1, ε → s0], s1 = [a → s0, a → s1].
        let ids: Vec<GuardId> = m.transitions().map(|(_, t)| t.guard).collect();
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(m.guard(ids[0]), &Guard::Exact(a));
    }

    #[test]
    fn a_family_guard_is_stored_once() {
        let u = Universe::new();
        let excl = [Label::new(u.signals(["a"]), SignalSet::EMPTY)];
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition_guard("s0", family(&u, &excl), "s0")
            .transition_guard("s0", family(&u, &excl), "s1")
            .transition_guard("s1", family(&u, &excl), "s0")
            .transition_guard("s1", family(&u, &[]), "s0")
            .build()
            .unwrap();
        // Exclusion lists are part of a guard's identity.
        assert_eq!(m.guard_count(), 2);
        let families = m
            .guards
            .as_slice()
            .iter()
            .filter(|g| matches!(g, Guard::Family(_)))
            .count();
        assert_eq!(families, 2);
        // Closures box each escape family once, however many states share it.
        let mut im = crate::incomplete::IncompleteAutomaton::trivial(
            &u,
            "c",
            u.signals(["a"]),
            u.signals(["b"]),
            "s",
        );
        im.learn(&crate::incomplete::Observation::regular(
            vec!["s".into(), "t".into()],
            vec![Label::EMPTY],
        ))
        .unwrap();
        let closure = crate::chaos::chaotic_closure(&im, None);
        let distinct: Vec<&Guard> = closure.guards.as_slice().iter().collect();
        for (i, g) in distinct.iter().enumerate() {
            assert!(!distinct[..i].contains(g), "guard stored twice: {g}");
        }
        assert!(closure.transition_count() > closure.guard_count());
    }

    #[test]
    fn ids_survive_row_rewrites_retain_and_clone() {
        let u = Universe::new();
        let mut m = two_state(&u);
        let fam = family(&u, &[]);
        m.replace_transitions(
            StateId(0),
            [(fam.clone(), StateId(0)), (fam.clone(), StateId(1))],
        );
        let fam_id = m.transitions_from(StateId(0))[0].guard;
        let exact_id = m.transitions_from(StateId(1))[0].guard;
        let guards_before: Vec<Guard> = m.guards.as_slice().to_vec();
        let check = |m: &Automaton| {
            assert_eq!(m.guard(fam_id), &fam);
            assert_eq!(
                m.guards.as_slice()[..guards_before.len()],
                guards_before[..]
            );
        };
        // set_row with ids interned earlier
        let mut row = vec![Transition {
            guard: fam_id,
            to: StateId(1),
        }];
        m.set_row(StateId(1), &mut row);
        check(&m);
        assert_eq!(m.transitions_from(StateId(1))[0].guard, fam_id);
        m.clear_row(StateId(0));
        check(&m);
        m.compact_rows();
        check(&m);
        let c = m.clone();
        check(&c);
        assert_eq!(c, m);
        let mut r = m.clone();
        r.retain_states(&[false, true]);
        check(&r);
        assert_eq!(
            r.transitions_from(StateId(0)),
            &[Transition {
                guard: fam_id,
                to: StateId(0),
            }]
        );
        // The exact guard is no longer used by any row but keeps its id.
        assert_eq!(m.guard(exact_id), r.guard(exact_id));
    }

    #[test]
    fn equality_ignores_guard_interning_order() {
        let u = Universe::new();
        let build = |order: &[usize]| {
            let mut m = AutomatonBuilder::new(&u, "m")
                .input("a")
                .output("b")
                .state("s0")
                .initial("s0")
                .state("s1")
                .build()
                .unwrap();
            // Intern the guards in the given order first, then write the
            // same rows.
            let guards = [
                Guard::Exact(Label::new(u.signals(["a"]), SignalSet::EMPTY)),
                Guard::Exact(Label::new(SignalSet::EMPTY, u.signals(["b"]))),
                family(&u, &[Label::EMPTY]),
            ];
            for &i in order {
                m.guards_mut().intern(guards[i].clone());
            }
            m.replace_transitions(
                StateId(0),
                [
                    (guards[0].clone(), StateId(1)),
                    (guards[2].clone(), StateId(0)),
                ],
            );
            m.replace_transitions(StateId(1), [(guards[1].clone(), StateId(0))]);
            m
        };
        let (a, b) = (build(&[0, 1, 2]), build(&[2, 1, 0]));
        assert_ne!(
            a.transitions_from(StateId(0))[0].guard,
            b.transitions_from(StateId(0))[0].guard
        );
        assert_eq!(a, b);
        let mut c = build(&[0, 1, 2]);
        c.replace_transitions(StateId(1), [(family(&u, &[]), StateId(0))]);
        assert_ne!(a, c);
    }

    fn two_state(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "m")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", [], ["b"], "s0")
            .build()
            .unwrap()
    }

    #[test]
    fn accessors() {
        let u = Universe::new();
        let m = two_state(&u);
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.transition_count(), 2);
        assert_eq!(m.name(), "m");
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        assert_eq!(m.initial_states(), &[s0]);
        assert_eq!(m.state_name(s1), "s1");
        assert!(m.find_state("nope").is_none());
    }

    #[test]
    fn enables_and_successors() {
        let u = Universe::new();
        let m = two_state(&u);
        let a = u.signal("a");
        let s0 = m.find_state("s0").unwrap();
        let s1 = m.find_state("s1").unwrap();
        let l = Label::new(SignalSet::singleton(a), SignalSet::EMPTY);
        assert!(m.enables(s0, l));
        assert!(!m.enables(s1, l));
        assert_eq!(m.successors(s0, l), vec![s1]);
        assert!(m.successors(s0, Label::EMPTY).is_empty());
    }

    #[test]
    fn determinism_detection() {
        let u = Universe::new();
        let m = two_state(&u);
        assert!(m.is_deterministic());

        let nd = AutomatonBuilder::new(&u, "nd")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s1")
            .transition("s0", ["a"], [], "s2")
            .build()
            .unwrap();
        assert!(!nd.is_deterministic());
        assert_eq!(nd.determinism_violation(), nd.find_state("s0"));
    }

    #[test]
    fn determinism_with_overlapping_families() {
        let u = Universe::new();
        let a = u.signal("a");
        let mut m = two_state(&u);
        // add a family transition on s0 that overlaps the exact one
        let mut row: Vec<(Guard, StateId)> = m
            .transitions_from(StateId(0))
            .iter()
            .map(|t| (m.guard(t.guard).clone(), t.to))
            .collect();
        row.push((
            Guard::from(LabelFamily::all(SignalSet::singleton(a), SignalSet::EMPTY)),
            StateId(0),
        ));
        m.replace_transitions(StateId(0), row);
        assert!(!m.is_deterministic());
    }

    #[test]
    fn deadlock_detection() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "d")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("dead")
            .transition("s0", ["a"], [], "dead")
            .build()
            .unwrap();
        assert!(m.is_deadlock(m.find_state("dead").unwrap()));
        assert!(!m.is_deadlock(m.find_state("s0").unwrap()));
    }

    #[test]
    fn trim_removes_unreachable() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "t")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("island")
            .transition("island", ["a"], [], "s0")
            .build()
            .unwrap();
        assert_eq!(m.state_count(), 2);
        let t = m.trim();
        assert_eq!(t.state_count(), 1);
        assert_eq!(t.state_name(StateId(0)), "s0");
        t.validate().unwrap();
    }

    #[test]
    fn composability() {
        let u = Universe::new();
        let m1 = AutomatonBuilder::new(&u, "m1")
            .input("x")
            .output("y")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let m2 = AutomatonBuilder::new(&u, "m2")
            .input("y")
            .output("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        let m3 = AutomatonBuilder::new(&u, "m3")
            .input("x")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(m1.composable_with(&m2));
        assert!(!m1.orthogonal_to(&m2));
        assert!(!m1.composable_with(&m3)); // shared input x
        let m4 = AutomatonBuilder::new(&u, "m4")
            .input("z")
            .output("w")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert!(m1.orthogonal_to(&m4));
    }

    #[test]
    fn prop_support_unions_labels() {
        let u = Universe::new();
        let p = u.prop("p");
        let q = u.prop("q");
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .prop("s0", "p")
            .state("s1")
            .prop("s1", "q")
            .build()
            .unwrap();
        assert!(m.prop_support().contains(p));
        assert!(m.prop_support().contains(q));
        assert_eq!(m.prop_support().len(), 2);
    }
}
