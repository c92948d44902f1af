//! Compressed sparse row (CSR) adjacency with predecessor lists.
//!
//! The CCTL checker's fixpoints are pre-image computations: they propagate
//! satisfaction *backwards* along transitions. [`Csr`] packs the transition
//! relation of an [`Automaton`] — guards erased, targets deduplicated, and
//! the checker's stutter self-loops added at deadlock states — into four
//! flat arrays: successor offsets/targets and predecessor offsets/sources.
//! Building it is `O(V + E log E)`; every later traversal is a cache-friendly
//! slice walk instead of a per-state `Vec<Vec<_>>` pointer chase. A relation
//! can also be assembled row by row ([`Csr::from_rows`]), which is how the
//! incremental product re-sorts only the rows a learn step changed.
//!
//! Products built by [`compose`](crate::compose) carry their CSR (see
//! [`Composition::csr`](crate::Composition)), so a checker constructed from
//! a composition never re-derives the relation it just enumerated.

use crate::automaton::Automaton;
use crate::label::Guard;

/// The guard-erased transition relation of one automaton in CSR form, with
/// both successor and predecessor adjacency plus the successor counts the
/// universal (counting) fixpoints need.
///
/// Semantics match the checker's *total* path relation: duplicate targets
/// are collapsed, transitions whose guard family is empty are dropped, and
/// states left without any live outgoing transition get a stutter self-loop
/// and are flagged in [`Csr::is_deadlocked`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// `succ[succ_off[s]..succ_off[s+1]]` are the distinct successors of `s`.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// `pred[pred_off[s]..pred_off[s+1]]` are the distinct predecessors of
    /// `s` (the reverse of `succ`).
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    /// `true` for states with no live outgoing transition (stuttering).
    deadlocked: Vec<bool>,
}

/// Appends the sorted, deduplicated targets of `s`'s live transitions
/// (those whose guard admits at least one label) to `out`.
pub(crate) fn live_targets(m: &Automaton, s: usize, out: &mut Vec<u32>) {
    let start = out.len();
    for t in m.transitions_from(crate::StateId(s as u32)) {
        let live = match m.guard(t.guard) {
            Guard::Exact(_) => true,
            Guard::Family(f) => !f.is_empty(),
        };
        if live {
            out.push(t.to.0);
        }
    }
    // Sort-and-dedup keeps the per-state cost at O(d log d) even for the
    // fat out-degrees chaotic closures produce.
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

impl Csr {
    /// Heap bytes held by the relation's arrays, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.succ_off.capacity()
            + self.succ.capacity()
            + self.pred_off.capacity()
            + self.pred.capacity())
            * std::mem::size_of::<u32>()
            + self.deadlocked.capacity()
    }

    /// Builds the CSR relation of `m`.
    pub fn of(m: &Automaton) -> Csr {
        Csr::from_rows(m.state_count(), |s, out| live_targets(m, s, out))
    }

    /// Builds the relation of `n` states from their successor lists:
    /// `row(s, out)` appends state `s`'s sorted, deduplicated live
    /// successors to `out` (nothing for a deadlock). Rows are concatenated
    /// as given, deadlocks get their stutter loop, and predecessors are
    /// inverted by counting sort — `O(V + E)` beyond what `row` costs, so a
    /// caller that kept most rows from a previous relation (the
    /// incremental product copies them from its last CSR) pays the sort
    /// only for the rows that changed.
    pub(crate) fn from_rows(n: usize, mut row: impl FnMut(usize, &mut Vec<u32>)) -> Csr {
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ: Vec<u32> = Vec::new();
        let mut deadlocked = vec![false; n];
        succ_off.push(0u32);
        for (s, dead) in deadlocked.iter_mut().enumerate() {
            let start = succ.len();
            row(s, &mut succ);
            debug_assert!(
                succ[start..].windows(2).all(|w| w[0] < w[1]),
                "row {s} is not sorted and deduplicated"
            );
            if succ.len() == start {
                *dead = true;
                succ.push(s as u32); // stutter
            }
            succ_off.push(succ.len() as u32);
        }
        // Invert into predecessor lists by counting sort.
        let mut pred_off = vec![0u32; n + 1];
        for &t in &succ {
            pred_off[t as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut cursor = pred_off.clone();
        let mut pred = vec![0u32; succ.len()];
        for s in 0..n {
            for &t in &succ[succ_off[s] as usize..succ_off[s + 1] as usize] {
                pred[cursor[t as usize] as usize] = s as u32;
                cursor[t as usize] += 1;
            }
        }
        Csr {
            succ_off,
            succ,
            pred_off,
            pred,
            deadlocked,
        }
    }

    /// The successor list `s` had when this relation was built, as
    /// [`Csr::from_rows`] takes it: empty for a deadlock (no stutter loop).
    pub(crate) fn row(&self, s: usize) -> &[u32] {
        if self.deadlocked[s] {
            &[]
        } else {
            self.successors(s)
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.deadlocked.len()
    }

    /// Total number of (deduplicated) edges, stutter loops included.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// The distinct successors of state `s` (stutter loop included at
    /// deadlock states).
    pub fn successors(&self, s: usize) -> &[u32] {
        &self.succ[self.succ_off[s] as usize..self.succ_off[s + 1] as usize]
    }

    /// The distinct predecessors of state `s` under the same relation.
    pub fn predecessors(&self, s: usize) -> &[u32] {
        &self.pred[self.pred_off[s] as usize..self.pred_off[s + 1] as usize]
    }

    /// Number of distinct successors of `s` — the counter the universal
    /// worklist fixpoints start from.
    pub fn out_degree(&self, s: usize) -> u32 {
        self.succ_off[s + 1] - self.succ_off[s]
    }

    /// Whether `s` has no live outgoing transition (its only successor is
    /// the implicit stutter loop).
    pub fn is_deadlocked(&self, s: usize) -> bool {
        self.deadlocked[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    #[test]
    fn successors_are_deduped_and_sorted() {
        let u = Universe::new();
        // Two transitions to the same target under different labels must
        // collapse to one CSR edge.
        let m = AutomatonBuilder::new(&u, "m")
            .inputs(["a", "b"])
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", ["a"], [], "s2")
            .transition("s0", ["b"], [], "s2")
            .transition("s0", ["a", "b"], [], "s1")
            .transition("s1", [], [], "s0")
            .transition("s2", [], [], "s2")
            .build()
            .unwrap();
        let csr = Csr::of(&m);
        assert_eq!(csr.successors(0), &[1, 2]);
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.edge_count(), 4);
    }

    #[test]
    fn deadlock_states_get_stutter_loops() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("dead")
            .transition("s0", ["a"], [], "dead")
            .build()
            .unwrap();
        let csr = Csr::of(&m);
        assert!(!csr.is_deadlocked(0));
        assert!(csr.is_deadlocked(1));
        assert_eq!(csr.successors(1), &[1]);
        // dead's predecessors: s0 and the stutter loop itself
        assert_eq!(csr.predecessors(1), &[0, 1]);
    }

    #[test]
    fn predecessors_invert_successors() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", [], [], "s1")
            .transition("s0", [], [], "s2")
            .transition("s1", [], [], "s2")
            .transition("s2", [], [], "s0")
            .build()
            .unwrap();
        let csr = Csr::of(&m);
        for s in 0..csr.state_count() {
            for &t in csr.successors(s) {
                assert!(csr.predecessors(t as usize).contains(&(s as u32)));
            }
            for &p in csr.predecessors(s) {
                assert!(csr.successors(p as usize).contains(&(s as u32)));
            }
        }
        assert_eq!(
            (0..3).map(|s| csr.out_degree(s)).sum::<u32>() as usize,
            csr.edge_count()
        );
    }

    #[test]
    fn empty_automaton_yields_empty_csr() {
        // The builder refuses zero-state automata (it demands an initial
        // state), but kernel operations can in principle hand the checker a
        // vacuous product; the CSR must degrade gracefully rather than
        // index out of bounds.
        let u = Universe::new();
        let m = Automaton::empty(
            u.clone(),
            "empty".to_owned(),
            (
                crate::signal::SignalSet::EMPTY,
                crate::signal::SignalSet::EMPTY,
            ),
            Default::default(),
            Vec::new(),
        );
        let csr = Csr::of(&m);
        assert_eq!(csr.state_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn single_state_self_loop_is_not_deadlocked() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "loop")
            .state("s0")
            .initial("s0")
            .transition("s0", [], [], "s0")
            .build()
            .unwrap();
        let csr = Csr::of(&m);
        assert_eq!(csr.state_count(), 1);
        assert_eq!(csr.edge_count(), 1);
        // A *real* self-loop and a stutter loop have the same adjacency but
        // different deadlock flags.
        assert!(!csr.is_deadlocked(0));
        assert_eq!(csr.successors(0), &[0]);
        assert_eq!(csr.predecessors(0), &[0]);
        assert_eq!(csr.out_degree(0), 1);
    }

    #[test]
    fn successorless_state_keeps_predecessors_valid() {
        let u = Universe::new();
        // s1 has no outgoing transitions at all (not even infeasible ones);
        // its stutter loop must appear in both directions of the relation
        // and leave every offset slice in bounds.
        let m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .transition("s0", [], [], "s1")
            .transition("s0", [], [], "s2")
            .transition("s2", [], [], "s0")
            .build()
            .unwrap();
        let csr = Csr::of(&m);
        assert!(csr.is_deadlocked(1));
        assert!(!csr.is_deadlocked(0));
        assert_eq!(csr.successors(1), &[1]);
        assert_eq!(csr.predecessors(1), &[0, 1]);
        // s0 is only reachable from s2 (its own edges are outgoing).
        assert_eq!(csr.predecessors(0), &[2]);
        let total: usize = (0..csr.state_count())
            .map(|s| csr.predecessors(s).len())
            .sum();
        assert_eq!(total, csr.edge_count());
    }

    #[test]
    fn empty_family_guards_do_not_create_edges() {
        use crate::label::{Guard, LabelFamily};
        use crate::signal::SignalSet;
        let u = Universe::new();
        let mut m = AutomatonBuilder::new(&u, "m")
            .state("s0")
            .initial("s0")
            .state("s1")
            .transition("s1", [], [], "s1")
            .build()
            .unwrap();
        // s0 only has an empty-family (infeasible) transition → deadlocked.
        let mut fam = LabelFamily::all(SignalSet::EMPTY, SignalSet::EMPTY);
        fam.excluded.push(crate::label::Label::EMPTY);
        m.replace_transitions(crate::StateId(0), [(Guard::from(fam), crate::StateId(1))]);
        let csr = Csr::of(&m);
        assert!(csr.is_deadlocked(0));
        assert_eq!(csr.successors(0), &[0]);
    }
}
