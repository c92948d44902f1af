//! The CCTL satisfaction-set checker.
//!
//! A global, bottom-up labelling algorithm in the style of Clarke/Grumberg/
//! Peled, engineered as a bitset + worklist kernel:
//!
//! * **Bit-packed satisfaction sets.** Every subformula's satisfaction set
//!   is a [`BitSet`] (`u64` words), so boolean connectives are word-wise
//!   `&`/`|`/`!` over 64 states at a time — including the backward-induction
//!   layers of the bounded (clocked) operators.
//! * **Worklist fixpoints over CSR adjacency.** The transition relation is
//!   a [`Csr`] (successors deduplicated + predecessor lists + out-degrees),
//!   built once in [`Checker::new`] — or borrowed from a
//!   [`Composition`](muml_automata::Composition) via [`Checker::with_csr`].
//!   Unbounded operators run as worklist algorithms that propagate only
//!   from states that changed: existential reachability marks predecessors
//!   directly, and the universal operators count down a per-state successor
//!   counter (the Arnold–Crubille-style counting scheme), so each edge is
//!   processed a bounded number of times instead of once per global sweep.
//! * **Interned subformula table.** Satisfaction sets live in a
//!   `Vec<BitSet>` indexed by subformula id; [`Checker::sat`] returns a
//!   *borrowed* set, so repeated queries neither clone the formula nor the
//!   set. [`CheckStats::labeled_states`] therefore counts every distinct
//!   subformula exactly once, however often it is re-queried (see the
//!   `repeated_queries_do_not_relabel` test).
//!
//! Only the two least-fixpoint worklists exist; the greatest fixpoints
//! `AG`/`EG` are computed by duality (`AG φ = ¬E[true U ¬φ]`,
//! `EG φ = ¬A[true U ¬φ]`), which is sound here because the path relation
//! is total — see below.
//!
//! **Path semantics with deadlocks.** The discrete-time model allows states
//! without outgoing transitions (the composition of a context with `s_δ`,
//! for example). For path quantification such states *stutter*: they are
//! given an implicit self-loop, and the atomic predicate
//! [`Formula::Deadlock`] marks them so that deadlock freedom is expressible
//! as `AG ¬deadlock`. This keeps the CTL semantics total without hiding
//! deadlocks (and makes the `AG`/`EG` dualities exact).

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use muml_automata::{Automaton, Csr, PropId, StateId};

use crate::ast::{Bound, Formula};
use crate::bitset::BitSet;

/// Hash-consing key of one subformula: the operator plus the table ids of
/// its children. Interning on these instead of on `Formula` keys makes a
/// lookup O(1) — no subtree is ever deep-hashed or cloned — so resolving a
/// formula of `k` nodes against the table costs `O(k)` shallow lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    True,
    False,
    Prop(PropId),
    Deadlock,
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Ax(usize),
    Ex(usize),
    Af(Option<Bound>, usize),
    Ef(Option<Bound>, usize),
    Ag(Option<Bound>, usize),
    Eg(Option<Bound>, usize),
    Au(Option<Bound>, usize, usize),
    Eu(Option<Bound>, usize, usize),
}

/// FxHash-style multiply-fold hasher. The interning keys are a few machine
/// words; at that size SipHash (the `HashMap` default) dominates the whole
/// lookup, and this non-cryptographic fold is an order of magnitude
/// cheaper. Collisions only cost a comparison of two small `Key`s.
#[derive(Default)]
struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn fold(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

type KeyMap = HashMap<Key, usize, BuildHasherDefault<FoldHasher>>;

/// Machine-independent work counters of one [`Checker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Fixpoint solves, pre-image sweeps, and backward-induction layers
    /// performed (the coarse work measure the benchmarks track).
    pub fixpoint_iterations: u64,
    /// `(state, subformula)` labelings computed — state count summed over
    /// every *distinct* subformula evaluation (cache hits add nothing).
    pub labeled_states: u64,
    /// `u64` words read or written by bitset operations — the kernel's
    /// memory-traffic measure.
    pub words_touched: u64,
    /// States popped off the unbounded-operator worklists.
    pub worklist_pops: u64,
    /// Peak number of satisfaction sets resident in the interned
    /// subformula table.
    pub peak_resident_sets: u64,
}

/// A satisfaction-set evaluator over one automaton.
///
/// Construct once per automaton and query repeatedly; satisfaction sets are
/// interned per subformula and returned by reference.
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, AutomatonBuilder};
/// use muml_logic::{Checker, parse};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "m")
///     .input("a")
///     .state("s0").initial("s0").prop("s0", "idle")
///     .state("s1")
///     .transition("s0", ["a"], [], "s1")
///     .transition("s1", [], [], "s0")
///     .build().unwrap();
/// let mut c = Checker::new(&m);
/// assert!(c.satisfies(&parse(&u, "AG !deadlock").unwrap()));
/// assert!(c.satisfies(&parse(&u, "AG (idle -> AF[1,2] idle)").unwrap()));
/// ```
pub struct Checker<'a> {
    m: &'a Automaton,
    /// CSR adjacency with stutter loops at deadlock states — owned when
    /// built here, borrowed when the caller already has one.
    csr: Cow<'a, Csr>,
    /// Hash-consed subformula → interned satisfaction-set id.
    ids: KeyMap,
    /// Interned satisfaction sets, indexed by subformula id.
    table: Vec<BitSet>,
    /// Work counters.
    pub stats: CheckStats,
}

impl<'a> Checker<'a> {
    /// Creates a checker for `m`, deriving the CSR adjacency here.
    pub fn new(m: &'a Automaton) -> Self {
        Checker::over(m, Cow::Owned(Csr::of(m)))
    }

    /// Creates a checker for `m` borrowing a pre-built [`Csr`] — e.g. the
    /// one a [`Composition`](muml_automata::Composition) carries — so the
    /// relation is not re-derived per verification run.
    pub fn with_csr(m: &'a Automaton, csr: &'a Csr) -> Self {
        Checker::over(m, Cow::Borrowed(csr))
    }

    fn over(m: &'a Automaton, csr: Cow<'a, Csr>) -> Self {
        assert_eq!(
            csr.state_count(),
            m.state_count(),
            "CSR does not match the automaton"
        );
        Checker {
            m,
            csr,
            ids: KeyMap::with_capacity_and_hasher(32, Default::default()),
            table: Vec::with_capacity(32),
            stats: CheckStats::default(),
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &'a Automaton {
        self.m
    }

    /// Whether state `s` is a (real) deadlock state.
    pub fn is_deadlocked(&self, s: StateId) -> bool {
        self.csr.is_deadlocked(s.index())
    }

    /// Returns `true` iff **all** initial states satisfy `f` — the automaton
    /// level judgement `M ⊨ φ`.
    pub fn satisfies(&mut self, f: &Formula) -> bool {
        let id = self.sat_id(f);
        let sat = &self.table[id];
        self.m.initial_states().iter().all(|s| sat.get(s.index()))
    }

    /// An initial state violating `f`, if any.
    pub fn violating_initial(&mut self, f: &Formula) -> Option<StateId> {
        let id = self.sat_id(f);
        let sat = &self.table[id];
        self.m
            .initial_states()
            .iter()
            .copied()
            .find(|s| !sat.get(s.index()))
    }

    /// The satisfaction set of `f` (indexed by state), borrowed from the
    /// interned table — repeated calls with an equal formula are free.
    pub fn sat(&mut self, f: &Formula) -> &BitSet {
        let id = self.sat_id(f);
        &self.table[id]
    }

    /// Interns `f`, computing its satisfaction set on first sight, and
    /// returns its table id for use with [`Checker::sat_ref`]. The formula
    /// is resolved bottom-up into hash-consed [`Key`]s, so no subtree is
    /// hashed or cloned — a cache hit on a formula of `k` nodes costs `k`
    /// shallow map lookups.
    pub(crate) fn sat_id(&mut self, f: &Formula) -> usize {
        use Formula::*;
        let key = match f {
            True => Key::True,
            False => Key::False,
            Prop(p) => Key::Prop(*p),
            Deadlock => Key::Deadlock,
            Not(g) => Key::Not(self.sat_id(g)),
            And(a, b) => Key::And(self.sat_id(a), self.sat_id(b)),
            Or(a, b) => Key::Or(self.sat_id(a), self.sat_id(b)),
            Implies(a, b) => Key::Implies(self.sat_id(a), self.sat_id(b)),
            Ax(g) => Key::Ax(self.sat_id(g)),
            Ex(g) => Key::Ex(self.sat_id(g)),
            Af(b, g) => Key::Af(*b, self.sat_id(g)),
            Ef(b, g) => Key::Ef(*b, self.sat_id(g)),
            Ag(b, g) => Key::Ag(*b, self.sat_id(g)),
            Eg(b, g) => Key::Eg(*b, self.sat_id(g)),
            Au(b, l, r) => Key::Au(*b, self.sat_id(l), self.sat_id(r)),
            Eu(b, l, r) => Key::Eu(*b, self.sat_id(l), self.sat_id(r)),
        };
        self.intern(key)
    }

    /// The interned satisfaction set with id `id`.
    pub(crate) fn sat_ref(&self, id: usize) -> &BitSet {
        &self.table[id]
    }

    fn intern(&mut self, key: Key) -> usize {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.table.len();
        let set = self.compute(key);
        self.stats.labeled_states += set.len() as u64;
        self.table.push(set);
        self.stats.peak_resident_sets = self.stats.peak_resident_sets.max(self.table.len() as u64);
        self.ids.insert(key, id);
        id
    }

    fn compute(&mut self, key: Key) -> BitSet {
        let n = self.m.state_count();
        match key {
            Key::True => BitSet::full(n),
            Key::False => BitSet::empty(n),
            Key::Prop(p) => BitSet::from_fn(n, |s| self.m.props_of(StateId(s as u32)).contains(p)),
            Key::Deadlock => BitSet::from_fn(n, |s| self.csr.is_deadlocked(s)),
            Key::Not(g) => {
                let set = self.table[g].complement();
                self.stats.words_touched += set.word_count() as u64;
                set
            }
            Key::And(a, b) => {
                let mut set = self.table[a].clone();
                set.intersect_with(&self.table[b]);
                self.stats.words_touched += 2 * set.word_count() as u64;
                set
            }
            Key::Or(a, b) => {
                let mut set = self.table[a].clone();
                set.union_with(&self.table[b]);
                self.stats.words_touched += 2 * set.word_count() as u64;
                set
            }
            Key::Implies(a, b) => {
                let mut set = self.table[a].complement();
                set.union_with(&self.table[b]);
                self.stats.words_touched += 2 * set.word_count() as u64;
                set
            }
            Key::Ax(g) => {
                let set = pre_all(&self.csr, &self.table[g]);
                self.note_sweep(&set);
                set
            }
            Key::Ex(g) => {
                let set = pre_some(&self.csr, &self.table[g]);
                self.note_sweep(&set);
                set
            }
            // Unbounded least fixpoints: direct worklists.
            Key::Ef(None, g) => {
                let (set, pops) = exists_until(&self.csr, None, &self.table[g]);
                self.note_worklist(&set, pops);
                set
            }
            Key::Af(None, g) => {
                let (set, pops) = all_until(&self.csr, None, &self.table[g]);
                self.note_worklist(&set, pops);
                set
            }
            Key::Eu(None, l, r) => {
                let (set, pops) = exists_until(&self.csr, Some(&self.table[l]), &self.table[r]);
                self.note_worklist(&set, pops);
                set
            }
            Key::Au(None, l, r) => {
                let (set, pops) = all_until(&self.csr, Some(&self.table[l]), &self.table[r]);
                self.note_worklist(&set, pops);
                set
            }
            // Unbounded greatest fixpoints, by duality. The stutter loops
            // make the path relation total, so `AG φ = ¬EF ¬φ` and
            // `EG φ = ¬AF ¬φ` hold exactly and the two lfp worklists above
            // are the only fixpoint engines the kernel needs.
            Key::Ag(None, g) => {
                let bad = self.table[g].complement();
                let (reach, pops) = exists_until(&self.csr, None, &bad);
                self.note_worklist(&reach, pops);
                let set = reach.complement();
                self.stats.words_touched += 2 * set.word_count() as u64;
                set
            }
            Key::Eg(None, g) => {
                let bad = self.table[g].complement();
                let (must, pops) = all_until(&self.csr, None, &bad);
                self.note_worklist(&must, pops);
                let set = must.complement();
                self.stats.words_touched += 2 * set.word_count() as u64;
                set
            }
            Key::Af(Some(b), g) => self.bounded_ids(b, g, None, Mode::AllEventually),
            Key::Ef(Some(b), g) => self.bounded_ids(b, g, None, Mode::SomeEventually),
            Key::Ag(Some(b), g) => self.bounded_ids(b, g, None, Mode::AllGlobally),
            Key::Eg(Some(b), g) => self.bounded_ids(b, g, None, Mode::SomeGlobally),
            Key::Au(Some(b), l, r) => self.bounded_ids(b, r, Some(l), Mode::AllEventually),
            Key::Eu(Some(b), l, r) => self.bounded_ids(b, r, Some(l), Mode::SomeEventually),
        }
    }

    fn note_sweep(&mut self, set: &BitSet) {
        self.stats.fixpoint_iterations += 1;
        self.stats.words_touched += set.word_count() as u64;
    }

    fn note_worklist(&mut self, set: &BitSet, pops: u64) {
        self.stats.fixpoint_iterations += 1;
        self.stats.worklist_pops += pops;
        self.stats.words_touched += set.word_count() as u64;
    }

    /// Backward induction for bounded operators. `goal` is the eventuality /
    /// invariant operand (by table id); `hold` (for until) must hold before
    /// the goal.
    fn bounded_ids(&mut self, b: Bound, gid: usize, hid: Option<usize>, mode: Mode) -> BitSet {
        let layers = self.layers_ids(b, gid, hid, mode);
        layers.into_iter().next().expect("layer 0 exists")
    }

    /// All layers `Y_0 … Y_hi` of the backward induction for the *negation*
    /// of `goal` (used by counterexample extraction to steer window
    /// witnesses of `EG[lo,hi] ¬goal`). The negation is interned as a key
    /// over `goal`'s table id, so no negated formula is ever built.
    pub(crate) fn negated_window_layers(
        &mut self,
        b: Bound,
        goal: &Formula,
        mode: Mode,
    ) -> Vec<BitSet> {
        let gid = self.sat_id(goal);
        let nid = self.intern(Key::Not(gid));
        self.layers_ids(b, nid, None, mode)
    }

    fn layers_ids(&mut self, b: Bound, gid: usize, hid: Option<usize>, mode: Mode) -> Vec<BitSet> {
        let n = self.m.state_count();
        let hi = b.hi as usize;
        let lo = b.lo as usize;
        let sg = &self.table[gid];
        let sh = hid.map(|i| &self.table[i]);
        let csr: &Csr = &self.csr;
        let mut layers: Vec<BitSet> = vec![BitSet::empty(0); hi + 1];
        let mut words = 0u64;
        for t in (0..=hi).rev() {
            let in_window = t >= lo;
            let next = if t < hi { Some(&layers[t + 1]) } else { None };
            let mut layer = BitSet::empty(n);
            for s in 0..n {
                let cont = match (next, mode.universal()) {
                    (Some(y), true) => csr.successors(s).iter().all(|&x| y.get(x as usize)),
                    (Some(y), false) => csr.successors(s).iter().any(|&x| y.get(x as usize)),
                    (None, _) => false,
                };
                let v = match mode {
                    Mode::AllEventually | Mode::SomeEventually => {
                        let now = in_window && sg.get(s);
                        let held = sh.map(|h| h.get(s)).unwrap_or(true);
                        now || (t < hi && held && cont)
                    }
                    Mode::AllGlobally | Mode::SomeGlobally => {
                        let now_ok = !in_window || sg.get(s);
                        now_ok && (t >= hi || cont)
                    }
                };
                if v {
                    layer.insert(s);
                }
            }
            words += layer.word_count() as u64;
            layers[t] = layer;
        }
        self.stats.fixpoint_iterations += (hi + 1) as u64;
        self.stats.words_touched += words;
        layers
    }
}

/// `{s | every successor of s is in y}`, in one sweep.
fn pre_all(csr: &Csr, y: &BitSet) -> BitSet {
    let n = csr.state_count();
    BitSet::from_fn(n, |s| csr.successors(s).iter().all(|&t| y.get(t as usize)))
}

/// `{s | some successor of s is in y}`, in one sweep.
fn pre_some(csr: &Csr, y: &BitSet) -> BitSet {
    let n = csr.state_count();
    BitSet::from_fn(n, |s| csr.successors(s).iter().any(|&t| y.get(t as usize)))
}

/// Least fixpoint of `Z = goal ∨ (hold ∧ EX Z)` (with `hold = true` when
/// absent): existential reachability as a backward worklist. Each state
/// enters the worklist at most once — when it first becomes satisfied — and
/// propagation runs only over the predecessor lists of changed states, so
/// the pop count is the size of the result.
fn exists_until(csr: &Csr, hold: Option<&BitSet>, goal: &BitSet) -> (BitSet, u64) {
    let mut res = goal.clone();
    let mut work: Vec<u32> = res.iter_ones().map(|s| s as u32).collect();
    let mut pops = 0u64;
    while let Some(s) = work.pop() {
        pops += 1;
        for &p in csr.predecessors(s as usize) {
            let p = p as usize;
            if !res.get(p) && hold.is_none_or(|h| h.get(p)) {
                res.insert(p);
                work.push(p as u32);
            }
        }
    }
    (res, pops)
}

/// Least fixpoint of `Z = goal ∨ (hold ∧ AX Z)` by successor counting: each
/// state starts with its (deduplicated) out-degree and joins the fixpoint
/// when the counter reaches zero — i.e. when *all* successors are already
/// in. Self-loops (including the stutter loops at deadlock states) are
/// handled for free: the self-edge is only consumed after the state itself
/// is in, so a state whose only escape is a self-loop never spuriously
/// satisfies `AF`.
///
/// Every member is enqueued exactly once, when it joins the result: a
/// duplicate enqueue would decrement a predecessor's successor counter
/// twice for the same edge and unsoundly admit it.
fn all_until(csr: &Csr, hold: Option<&BitSet>, goal: &BitSet) -> (BitSet, u64) {
    let n = csr.state_count();
    let mut remaining: Vec<u32> = (0..n).map(|s| csr.out_degree(s)).collect();
    let mut res = goal.clone();
    let mut work: Vec<u32> = res.iter_ones().map(|s| s as u32).collect();
    let mut pops = 0u64;
    while let Some(s) = work.pop() {
        pops += 1;
        for &p in csr.predecessors(s as usize) {
            let p = p as usize;
            if res.get(p) {
                continue;
            }
            remaining[p] -= 1;
            if remaining[p] == 0 && hold.is_none_or(|h| h.get(p)) {
                res.insert(p);
                work.push(p as u32);
            }
        }
    }
    (res, pops)
}

/// Evaluation mode for bounded operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    AllEventually,
    SomeEventually,
    AllGlobally,
    SomeGlobally,
}

impl Mode {
    fn universal(self) -> bool {
        matches!(self, Mode::AllEventually | Mode::AllGlobally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use muml_automata::{AutomatonBuilder, Universe};

    /// s0(p) → s1 → s2(q); s2 loops; s1 also branches to dead (deadlock).
    fn diamond(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "m")
            .inputs(["a", "b"])
            .state("s0")
            .initial("s0")
            .prop("s0", "p")
            .state("s1")
            .state("s2")
            .prop("s2", "q")
            .state("dead")
            .transition("s0", ["a"], [], "s1")
            .transition("s1", ["a"], [], "s2")
            .transition("s1", ["b"], [], "dead")
            .transition("s2", [], [], "s2")
            .build()
            .unwrap()
    }

    fn holds(m: &Automaton, u: &Universe, f: &str) -> bool {
        Checker::new(m).satisfies(&parse(u, f).unwrap())
    }

    #[test]
    fn propositional_and_boolean() {
        let u = Universe::new();
        let m = diamond(&u);
        assert!(holds(&m, &u, "p"));
        assert!(!holds(&m, &u, "q"));
        assert!(holds(&m, &u, "p & !q"));
        assert!(holds(&m, &u, "q -> false"));
        assert!(holds(&m, &u, "true"));
        assert!(!holds(&m, &u, "false"));
    }

    #[test]
    fn next_operators() {
        let u = Universe::new();
        let m = diamond(&u);
        assert!(holds(&m, &u, "AX !p")); // only successor is s1
        assert!(holds(&m, &u, "EX !p"));
        assert!(!holds(&m, &u, "AX q"));
        assert!(holds(&m, &u, "AX (AX (q | deadlock))"));
    }

    #[test]
    fn reachability_and_invariants() {
        let u = Universe::new();
        let m = diamond(&u);
        assert!(holds(&m, &u, "EF q"));
        assert!(holds(&m, &u, "EF deadlock"));
        assert!(!holds(&m, &u, "AG !deadlock"));
        assert!(!holds(&m, &u, "AF q")); // the dead branch never reaches q
        assert!(holds(&m, &u, "AG (q -> AG q)")); // q is absorbing
        assert!(holds(&m, &u, "E[!q U q]"));
        assert!(holds(&m, &u, "A[!q U (q | deadlock)]"));
    }

    #[test]
    fn deadlock_free_on_total_system() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        assert!(holds(&m, &u, "AG !deadlock"));
        assert!(!holds(&m, &u, "EF deadlock"));
    }

    #[test]
    fn bounded_eventually() {
        let u = Universe::new();
        let m = diamond(&u);
        // q reachable in exactly 2 steps on the a-branch
        assert!(holds(&m, &u, "EF[2,2] q"));
        assert!(!holds(&m, &u, "EF[0,1] q"));
        assert!(!holds(&m, &u, "AF[0,2] q")); // dead branch
                                              // On the chain without branching, AF bound works:
        let chain = AutomatonBuilder::new(&u, "chain")
            .state("c0")
            .initial("c0")
            .state("c1")
            .state("c2")
            .prop("c2", "r")
            .transition("c0", [], [], "c1")
            .transition("c1", [], [], "c2")
            .transition("c2", [], [], "c2")
            .build()
            .unwrap();
        assert!(holds(&chain, &u, "AF[1,2] r"));
        assert!(holds(&chain, &u, "AF[2,2] r"));
        assert!(!holds(&chain, &u, "AF[1,1] r"));
        assert!(holds(&chain, &u, "AF[2,5] r"));
    }

    #[test]
    fn bounded_globally() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("g0")
            .initial("g0")
            .prop("g0", "ok")
            .state("g1")
            .prop("g1", "ok")
            .state("g2")
            .transition("g0", [], [], "g1")
            .transition("g1", [], [], "g2")
            .transition("g2", [], [], "g2")
            .build()
            .unwrap();
        assert!(holds(&m, &u, "AG[0,1] ok"));
        assert!(!holds(&m, &u, "AG[0,2] ok"));
        assert!(holds(&m, &u, "EG[0,1] ok"));
        // window entirely past the ok prefix
        assert!(!holds(&m, &u, "AG[2,3] ok"));
    }

    #[test]
    fn bounded_until() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("u0")
            .initial("u0")
            .prop("u0", "w")
            .state("u1")
            .prop("u1", "w")
            .state("u2")
            .prop("u2", "done")
            .transition("u0", [], [], "u1")
            .transition("u1", [], [], "u2")
            .transition("u2", [], [], "u2")
            .build()
            .unwrap();
        assert!(holds(&m, &u, "A[w U[1,2] done]"));
        assert!(!holds(&m, &u, "A[w U[1,1] done]"));
        assert!(holds(&m, &u, "E[w U[2,2] done]"));
        // Violating the hold part: require !w along the way.
        assert!(!holds(&m, &u, "A[!w U[1,2] done]"));
    }

    #[test]
    fn unbounded_until_holds_part_restricts_paths() {
        let u = Universe::new();
        // s0 → s1 → goal, but s1 lacks the hold prop.
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .prop("s0", "w")
            .state("s1")
            .state("goal")
            .prop("goal", "done")
            .transition("s0", [], [], "s1")
            .transition("s1", [], [], "goal")
            .transition("goal", [], [], "goal")
            .build()
            .unwrap();
        assert!(!holds(&m, &u, "A[w U done]"));
        assert!(!holds(&m, &u, "E[w U done]"));
        assert!(holds(&m, &u, "E[true U done]"));
    }

    #[test]
    fn maximal_delay_pattern() {
        // The paper's CCTL pattern for a maximal delay d:
        // AG(¬p1 ∨ AF[1,d] p2).
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("idle")
            .initial("idle")
            .state("trig")
            .prop("trig", "p1")
            .state("w1")
            .state("rsp")
            .prop("rsp", "p2")
            .transition("idle", [], [], "trig")
            .transition("trig", [], [], "w1")
            .transition("w1", [], [], "rsp")
            .transition("rsp", [], [], "idle")
            .build()
            .unwrap();
        assert!(holds(&m, &u, "AG (!p1 | AF[1,2] p2)"));
        assert!(!holds(&m, &u, "AG (!p1 | AF[1,1] p2)"));
    }

    #[test]
    fn deadlock_stutter_semantics() {
        let u = Universe::new();
        // dead state with prop x: under stutter, AG x holds *at* that state.
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .prop("s", "x")
            .build()
            .unwrap();
        assert!(holds(&m, &u, "AG x"));
        assert!(holds(&m, &u, "AG deadlock"));
        assert!(holds(&m, &u, "AF[3,5] x"));
    }

    #[test]
    fn violating_initial_found() {
        let u = Universe::new();
        let m = diamond(&u);
        let mut c = Checker::new(&m);
        let f = parse(&u, "AG !deadlock").unwrap();
        assert_eq!(c.violating_initial(&f), Some(m.initial_states()[0]));
        let g = parse(&u, "p").unwrap();
        assert_eq!(c.violating_initial(&g), None);
    }

    #[test]
    fn repeated_queries_do_not_relabel() {
        // Regression: `sat` used to clone the full satisfaction vector on
        // every cache hit and re-insert under a cloned Formula key; with the
        // interned table a repeated `satisfies` adds no labeling work.
        let u = Universe::new();
        let m = diamond(&u);
        let mut c = Checker::new(&m);
        let f = parse(&u, "AG (p -> AF[1,2] q)").unwrap();
        let first = c.satisfies(&f);
        let labeled = c.stats.labeled_states;
        let resident = c.stats.peak_resident_sets;
        assert!(labeled > 0);
        for _ in 0..10 {
            assert_eq!(c.satisfies(&f), first);
        }
        assert_eq!(c.stats.labeled_states, labeled);
        assert_eq!(c.stats.peak_resident_sets, resident);
    }

    #[test]
    fn with_csr_matches_new() {
        let u = Universe::new();
        let m = diamond(&u);
        let csr = Csr::of(&m);
        for f in [
            "AG !deadlock",
            "EF q",
            "AF q",
            "AG (p -> AF[1,2] q)",
            "E[!q U q]",
            "EG !q",
        ] {
            let f = parse(&u, f).unwrap();
            assert_eq!(
                Checker::new(&m).satisfies(&f),
                Checker::with_csr(&m, &csr).satisfies(&f)
            );
        }
    }

    #[test]
    fn worklist_counters_move() {
        let u = Universe::new();
        let m = diamond(&u);
        let mut c = Checker::new(&m);
        assert!(c.satisfies(&parse(&u, "EF q").unwrap()));
        assert!(c.stats.worklist_pops > 0);
        assert!(c.stats.words_touched > 0);
        assert!(c.stats.fixpoint_iterations > 0);
    }

    /// Both least-fixpoint engines pop every member of their result
    /// exactly once, over random relations, goals and hold sets. This is
    /// `all_until`'s soundness condition too: a state enqueued twice would
    /// decrement its predecessors' successor counters twice per edge.
    #[test]
    fn each_fixpoint_member_is_popped_once() {
        muml_testkit::cases(200, |rng| {
            let u = Universe::new();
            let n = rng.range(1..=150);
            let mut b = AutomatonBuilder::new(&u, "m");
            for s in 0..n {
                b = b.state(&format!("s{s}"));
            }
            b = b.initial("s0");
            for s in 0..n {
                for _ in 0..rng.below(4) {
                    let to = format!("s{}", rng.below(n));
                    b = b.transition(&format!("s{s}"), [], [], &to);
                }
            }
            let m = b.build().unwrap();
            let csr = Csr::of(&m);
            let goal = BitSet::from_fn(n, |_| rng.chance(1, 8));
            let hold = BitSet::from_fn(n, |_| rng.chance(2, 3));
            for hold in [None, Some(&hold)] {
                let (set, pops) = exists_until(&csr, hold, &goal);
                assert_eq!(pops, set.count_ones() as u64, "exists_until");
                let (set, pops) = all_until(&csr, hold, &goal);
                assert_eq!(pops, set.count_ones() as u64, "all_until");
            }
        });
    }
}
