//! Transition labels and symbolic guard families.
//!
//! A transition of Definition 1 is labelled with a concrete pair
//! `(A, B) ∈ ℘(I) × ℘(O)` — a [`Label`]. The chaotic automaton of
//! Definition 8, however, carries a transition *for every* such pair, which
//! is exponential in `|I| + |O|` if materialized. Transitions therefore carry
//! a [`Guard`]: either one exact label, or a symbolic *family* of labels
//! (a box `must ⊆ X ⊆ must ∪ free` per direction) minus a finite exclusion
//! list. Families are expanded lazily and only where the composition context
//! has already pinned most signals down.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::signal::SignalSet;
use crate::universe::Universe;

/// A concrete transition label `(A, B)`: the inputs consumed and outputs
/// produced in one time step.
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, Label, SignalSet};
/// let u = Universe::new();
/// let l = Label::new(
///     SignalSet::singleton(u.signal("convoyProposal")),
///     SignalSet::EMPTY,
/// );
/// assert!(l.outputs.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Label {
    /// The set of input signals `A ⊆ I` consumed in this step.
    pub inputs: SignalSet,
    /// The set of output signals `B ⊆ O` produced in this step.
    pub outputs: SignalSet,
}

impl Label {
    /// The label with no inputs and no outputs (an idle step).
    pub const EMPTY: Label = Label {
        inputs: SignalSet::EMPTY,
        outputs: SignalSet::EMPTY,
    };

    /// Creates a label from input and output sets.
    pub fn new(inputs: SignalSet, outputs: SignalSet) -> Self {
        Label { inputs, outputs }
    }

    /// Renders the label as `{a}/{b}` using universe names.
    pub fn show(&self, u: &Universe) -> String {
        format!(
            "{}/{}",
            u.show_signals(self.inputs),
            u.show_signals(self.outputs)
        )
    }

    /// Restricts the label to the given input/output signal sets.
    #[must_use]
    pub fn restrict(&self, inputs: SignalSet, outputs: SignalSet) -> Label {
        Label {
            inputs: self.inputs.intersection(inputs),
            outputs: self.outputs.intersection(outputs),
        }
    }
}

/// A symbolic set of labels: the box
/// `{(A,B) | in_must ⊆ A ⊆ in_must ∪ in_free, out_must ⊆ B ⊆ out_must ∪ out_free}`
/// minus the finite [`excluded`](LabelFamily::excluded) list.
///
/// The chaotic automaton's `*` transitions are one `LabelFamily` with
/// everything free; the chaotic closure's escape transitions are a family
/// minus the refused interactions `T̄(s)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LabelFamily {
    /// Inputs that every member must contain.
    pub in_must: SignalSet,
    /// Inputs that members may or may not contain (disjoint from `in_must`).
    pub in_free: SignalSet,
    /// Outputs that every member must contain.
    pub out_must: SignalSet,
    /// Outputs that members may or may not contain (disjoint from `out_must`).
    pub out_free: SignalSet,
    /// Concrete labels carved out of the box.
    pub excluded: Vec<Label>,
}

impl LabelFamily {
    /// The family of *all* labels over the given interface.
    pub fn all(inputs: SignalSet, outputs: SignalSet) -> Self {
        LabelFamily {
            in_must: SignalSet::EMPTY,
            in_free: inputs,
            out_must: SignalSet::EMPTY,
            out_free: outputs,
            excluded: Vec::new(),
        }
    }

    /// Returns `true` if `label` is a member of the family.
    pub fn admits(&self, label: Label) -> bool {
        self.in_must.is_subset(label.inputs)
            && label.inputs.is_subset(self.in_must.union(self.in_free))
            && self.out_must.is_subset(label.outputs)
            && label.outputs.is_subset(self.out_must.union(self.out_free))
            && !self.excluded.contains(&label)
    }

    /// Number of free signals (the family contains `2^free_count() - |excluded∩box|` labels).
    pub fn free_count(&self) -> usize {
        self.in_free.len() + self.out_free.len()
    }

    /// Number of member labels. `None` if it would overflow `u128`.
    pub fn count(&self) -> Option<u128> {
        let free = self.free_count();
        if free >= 128 {
            return None;
        }
        let boxed = 1u128 << free;
        let excluded_in_box = self
            .excluded
            .iter()
            .filter(|l| {
                // membership in the box (ignoring the exclusion list itself)
                self.in_must.is_subset(l.inputs)
                    && l.inputs.is_subset(self.in_must.union(self.in_free))
                    && self.out_must.is_subset(l.outputs)
                    && l.outputs.is_subset(self.out_must.union(self.out_free))
            })
            .count() as u128;
        Some(boxed.saturating_sub(excluded_in_box))
    }

    /// Returns `true` if the family has no members.
    pub fn is_empty(&self) -> bool {
        self.count() == Some(0)
    }

    /// Enumerates all member labels if `free_count() <= cap`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AutomataError::FreeSignalOverflow`] when the family
    /// has more than `2^cap` potential members.
    pub fn enumerate(&self, cap: usize) -> crate::Result<Vec<Label>> {
        if self.free_count() > cap {
            return Err(crate::AutomataError::FreeSignalOverflow {
                free: self.free_count(),
                cap,
            });
        }
        let mut out = Vec::with_capacity(1 << self.free_count());
        for ain in self.in_free.subsets() {
            for bout in self.out_free.subsets() {
                let l = Label::new(self.in_must.union(ain), self.out_must.union(bout));
                if !self.excluded.contains(&l) {
                    out.push(l);
                }
            }
        }
        Ok(out)
    }

    /// Intersects two families (exclusion lists are unioned).
    ///
    /// Returns `None` if the intersection box is empty.
    pub fn intersect(&self, other: &LabelFamily) -> Option<LabelFamily> {
        let in_must = self.in_must.union(other.in_must);
        let in_upper = self
            .in_must
            .union(self.in_free)
            .intersection(other.in_must.union(other.in_free));
        let out_must = self.out_must.union(other.out_must);
        let out_upper = self
            .out_must
            .union(self.out_free)
            .intersection(other.out_must.union(other.out_free));
        if !in_must.is_subset(in_upper) || !out_must.is_subset(out_upper) {
            return None;
        }
        let mut excluded = self.excluded.clone();
        for e in &other.excluded {
            if !excluded.contains(e) {
                excluded.push(*e);
            }
        }
        Some(LabelFamily {
            in_must,
            in_free: in_upper.difference(in_must),
            out_must,
            out_free: out_upper.difference(out_must),
            excluded,
        })
    }
}

/// The guard of a transition: either one concrete [`Label`] or a symbolic
/// [`LabelFamily`].
///
/// An automaton stores each distinct guard once, in its guard table, and
/// its transitions refer to guards by [`GuardId`]
/// ([`Automaton::guard`](crate::Automaton::guard) resolves one). The
/// family is boxed, so the table holds an exact label inline and a family
/// out of line. Build a family guard with `Guard::from(family)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Exactly one label.
    Exact(Label),
    /// A symbolic family of labels.
    Family(Box<LabelFamily>),
}

impl Guard {
    /// Returns `true` if the guard admits `label`.
    pub fn admits(&self, label: Label) -> bool {
        match self {
            Guard::Exact(l) => *l == label,
            Guard::Family(f) => f.admits(label),
        }
    }

    /// Returns the single label if the guard is exact.
    pub fn as_exact(&self) -> Option<Label> {
        match self {
            Guard::Exact(l) => Some(*l),
            Guard::Family(f) => {
                if f.free_count() == 0 && f.excluded.is_empty() {
                    Some(Label::new(f.in_must, f.out_must))
                } else {
                    None
                }
            }
        }
    }

    /// Converts the guard into a family (an exact guard becomes a
    /// zero-freedom box).
    pub fn to_family(&self) -> LabelFamily {
        match self {
            Guard::Exact(l) => LabelFamily {
                in_must: l.inputs,
                in_free: SignalSet::EMPTY,
                out_must: l.outputs,
                out_free: SignalSet::EMPTY,
                excluded: Vec::new(),
            },
            Guard::Family(f) => (**f).clone(),
        }
    }

    /// All input signals that may occur in a member label.
    pub fn input_support(&self) -> SignalSet {
        match self {
            Guard::Exact(l) => l.inputs,
            Guard::Family(f) => f.in_must.union(f.in_free),
        }
    }

    /// All output signals that may occur in a member label.
    pub fn output_support(&self) -> SignalSet {
        match self {
            Guard::Exact(l) => l.outputs,
            Guard::Family(f) => f.out_must.union(f.out_free),
        }
    }

    /// Enumerates all member labels (see [`LabelFamily::enumerate`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::AutomataError::FreeSignalOverflow`] if the family is
    /// too large to enumerate under `cap`.
    pub fn enumerate(&self, cap: usize) -> crate::Result<Vec<Label>> {
        match self {
            Guard::Exact(l) => Ok(vec![*l]),
            Guard::Family(f) => f.enumerate(cap),
        }
    }

    /// Returns one member label of the guard, if any (lazy — does not
    /// enumerate the full family). Used by counterexample extraction to pick
    /// a representative interaction for a symbolic transition.
    pub fn sample_label(&self) -> Option<Label> {
        match self {
            Guard::Exact(l) => Some(*l),
            Guard::Family(f) => {
                // The first non-excluded member appears within the first
                // |excluded| + 1 candidates, so this terminates quickly
                // unless the family is (nearly) fully excluded — which only
                // happens for tiny free sets.
                for ain in f.in_free.subsets() {
                    for bout in f.out_free.subsets() {
                        let l = Label::new(f.in_must.union(ain), f.out_must.union(bout));
                        if !f.excluded.contains(&l) {
                            return Some(l);
                        }
                    }
                }
                None
            }
        }
    }
}

impl From<Label> for Guard {
    fn from(l: Label) -> Guard {
        Guard::Exact(l)
    }
}

impl From<LabelFamily> for Guard {
    fn from(f: LabelFamily) -> Guard {
        Guard::Family(Box::new(f))
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Exact(l) => write!(f, "{:?}/{:?}", l.inputs, l.outputs),
            Guard::Family(fam) => write!(
                f,
                "*[{:?}+{:?}/{:?}+{:?} -{}]",
                fam.in_must,
                fam.in_free,
                fam.out_must,
                fam.out_free,
                fam.excluded.len()
            ),
        }
    }
}

/// Index of a guard in one automaton's guard table. Ids are append-only for
/// the automaton's lifetime and mean nothing in any other automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuardId(pub u32);

impl GuardId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Empty slot of a [`GuardTable`].
const NO_GUARD: u32 = u32::MAX;

/// Interned guards: every distinct guard once, in first-seen order, and an
/// open-addressed table of ids keyed by the guard's hash that probes the
/// guards themselves, so no guard is stored twice. Append-only: an id, once
/// handed out, names the same guard for the table's lifetime.
#[derive(Debug, Clone, Default)]
pub(crate) struct GuardTable {
    guards: Vec<Guard>,
    /// Power-of-two id slots ([`NO_GUARD`] when empty), at most half full.
    slots: Vec<u32>,
}

fn guard_hash(guard: &Guard) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    guard.hash(&mut h);
    h.finish()
}

impl GuardTable {
    /// Number of distinct guards.
    pub(crate) fn len(&self) -> usize {
        self.guards.len()
    }

    /// The guard with id `id`.
    pub(crate) fn get(&self, id: GuardId) -> &Guard {
        &self.guards[id.index()]
    }

    /// Every guard, by id.
    pub(crate) fn as_slice(&self) -> &[Guard] {
        &self.guards
    }

    /// The id of `guard`, appending it on first sight.
    pub(crate) fn intern(&mut self, guard: Guard) -> GuardId {
        if (self.guards.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = guard_hash(&guard) as usize & mask;
        loop {
            match self.slots[i] {
                NO_GUARD => {
                    let id = u32::try_from(self.guards.len())
                        .ok()
                        .filter(|&id| id != NO_GUARD)
                        .expect("guards exceed the u32 range");
                    self.slots[i] = id;
                    self.guards.push(guard);
                    return GuardId(id);
                }
                slot if self.guards[slot as usize] == guard => return GuardId(slot),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        let mask = cap - 1;
        let mut slots = vec![NO_GUARD; cap];
        for (id, g) in self.guards.iter().enumerate() {
            let mut i = guard_hash(g) as usize & mask;
            while slots[i] != NO_GUARD {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }

    /// Heap bytes held: the guard and slot buffers plus boxed families.
    pub(crate) fn heap_bytes(&self) -> usize {
        let boxed: usize = self
            .guards
            .iter()
            .map(|g| match g {
                Guard::Exact(_) => 0,
                Guard::Family(f) => {
                    std::mem::size_of::<LabelFamily>()
                        + f.excluded.capacity() * std::mem::size_of::<Label>()
                }
            })
            .sum();
        self.guards.capacity() * std::mem::size_of::<Guard>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + boxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalId;

    fn set(ids: &[u32]) -> SignalSet {
        ids.iter().map(|&i| SignalId(i)).collect()
    }

    #[test]
    fn family_all_admits_everything_within_interface() {
        let f = LabelFamily::all(set(&[0, 1]), set(&[2]));
        assert!(f.admits(Label::new(set(&[0]), set(&[2]))));
        assert!(f.admits(Label::EMPTY));
        assert!(f.admits(Label::new(set(&[0, 1]), set(&[]))));
        // outside the interface
        assert!(!f.admits(Label::new(set(&[3]), set(&[]))));
        assert!(!f.admits(Label::new(set(&[]), set(&[0]))));
        assert_eq!(f.count(), Some(8));
    }

    #[test]
    fn family_exclusion() {
        let mut f = LabelFamily::all(set(&[0]), set(&[]));
        f.excluded.push(Label::new(set(&[0]), set(&[])));
        assert!(f.admits(Label::EMPTY));
        assert!(!f.admits(Label::new(set(&[0]), set(&[]))));
        assert_eq!(f.count(), Some(1));
        let labels = f.enumerate(10).unwrap();
        assert_eq!(labels, vec![Label::EMPTY]);
    }

    #[test]
    fn family_must_constraints() {
        let f = LabelFamily {
            in_must: set(&[0]),
            in_free: set(&[1]),
            out_must: SignalSet::EMPTY,
            out_free: SignalSet::EMPTY,
            excluded: vec![],
        };
        assert!(f.admits(Label::new(set(&[0]), set(&[]))));
        assert!(f.admits(Label::new(set(&[0, 1]), set(&[]))));
        assert!(!f.admits(Label::EMPTY));
        assert_eq!(f.count(), Some(2));
    }

    #[test]
    fn enumerate_respects_cap() {
        let f = LabelFamily::all(set(&[0, 1, 2]), set(&[3, 4]));
        assert_eq!(f.free_count(), 5);
        assert!(f.enumerate(4).is_err());
        assert_eq!(f.enumerate(5).unwrap().len(), 32);
    }

    #[test]
    fn intersect_boxes() {
        let f1 = LabelFamily {
            in_must: set(&[0]),
            in_free: set(&[1, 2]),
            out_must: SignalSet::EMPTY,
            out_free: set(&[5]),
            excluded: vec![],
        };
        let f2 = LabelFamily {
            in_must: set(&[1]),
            in_free: set(&[0]),
            out_must: SignalSet::EMPTY,
            out_free: SignalSet::EMPTY,
            excluded: vec![],
        };
        let i = f1.intersect(&f2).unwrap();
        assert_eq!(i.in_must, set(&[0, 1]));
        assert_eq!(i.in_free, SignalSet::EMPTY);
        assert_eq!(i.out_free, SignalSet::EMPTY);
        assert_eq!(i.count(), Some(1));
    }

    #[test]
    fn intersect_empty_when_musts_conflict() {
        let f1 = LabelFamily {
            in_must: set(&[0]),
            in_free: SignalSet::EMPTY,
            out_must: SignalSet::EMPTY,
            out_free: SignalSet::EMPTY,
            excluded: vec![],
        };
        let f2 = LabelFamily {
            in_must: SignalSet::EMPTY,
            in_free: SignalSet::EMPTY, // cannot contain signal 0
            out_must: SignalSet::EMPTY,
            out_free: SignalSet::EMPTY,
            excluded: vec![],
        };
        assert_eq!(f1.intersect(&f2), None);
    }

    #[test]
    fn guard_exact_vs_family() {
        let l = Label::new(set(&[0]), set(&[1]));
        let g = Guard::Exact(l);
        assert!(g.admits(l));
        assert!(!g.admits(Label::EMPTY));
        assert_eq!(g.as_exact(), Some(l));
        let fam = Guard::from(LabelFamily::all(set(&[0]), set(&[1])));
        assert_eq!(fam.as_exact(), None);
        assert!(fam.admits(l));
        assert_eq!(fam.enumerate(8).unwrap().len(), 4);
    }

    #[test]
    fn zero_freedom_family_is_exact() {
        let fam = Guard::from(LabelFamily {
            in_must: set(&[0]),
            in_free: SignalSet::EMPTY,
            out_must: SignalSet::EMPTY,
            out_free: SignalSet::EMPTY,
            excluded: vec![],
        });
        assert_eq!(
            fam.as_exact(),
            Some(Label::new(set(&[0]), SignalSet::EMPTY))
        );
    }
}
