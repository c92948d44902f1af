//! Deterministic randomness and shared oracles for property-style tests.
//!
//! The workspace runs in hermetic environments without access to a crate
//! registry, so `proptest`/`rand` are not available. This crate provides the
//! pieces the test suites actually need:
//!
//! * [`Rng`] — a splitmix64 generator with convenience samplers, fully
//!   deterministic from its seed;
//! * [`cases`] — runs a closure over `n` derived seeds and reports the
//!   failing seed on panic, so a failure is reproducible with
//!   [`Rng::with_seed`];
//! * [`assert_same_product`] — the one comparison of two composed products
//!   up to a renaming of states, which is the contract between a cold
//!   composition and an incrementally maintained one;
//! * [`compose_reference`] — the classic materializing composition with
//!   its per-signal solver, kept as the executable specification of
//!   [`muml_automata::compose`];
//! * [`ReferenceChecker`] — the naive sweep kernel the bitset/worklist
//!   [`muml_logic::Checker`] replaced, kept as its executable
//!   specification;
//! * [`TempDir`] — a scratch directory that removes itself, so a test
//!   leaves nothing in the temp dir even when an assertion fails.
//!
//! There is no shrinking; generators should therefore keep their value
//! spaces small (as the original proptest strategies already did).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use muml_automata::{Composition, StateId};

mod compose;
mod reference;

pub use compose::compose_reference;
pub use reference::ReferenceChecker;

/// A splitmix64 pseudo-random generator (deterministic, `Copy`-cheap).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in the given range, e.g. `rng.range(1..=5)`.
    pub fn range(&mut self, r: std::ops::RangeInclusive<usize>) -> usize {
        let (lo, hi) = (*r.start(), *r.end());
        lo + self.below(hi - lo + 1)
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u32, den: u32) -> bool {
        (self.next_u64() % den as u64) < num as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector of `len` values drawn by `gen`.
    pub fn vec<T>(&mut self, len: usize, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Runs `body` for `n` deterministic cases. Each case gets an [`Rng`]
/// seeded from the case index; on panic the failing seed is printed so the
/// case can be replayed in isolation with [`Rng::with_seed`].
pub fn cases(n: u64, body: impl Fn(&mut Rng)) {
    for seed in 0..n {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::with_seed(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("testkit: case failed with seed {seed} (replay via Rng::with_seed({seed}))");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A fresh, empty directory `muml-{tag}-{pid}-{n}` under the system temp
/// dir, removed with everything in it when the guard drops — also when a
/// test panics, because unwinding runs the drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the next directory for `tag` in this process.
    pub fn new(tag: &str) -> TempDir {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "muml-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The reachable part of a product in canonical order: breadth-first from
/// the initial states (in order), following each row in emit order.
/// Returns `canon[s]` (the canonical index of `s`, if reachable) and the
/// states in canonical order.
fn canonical_order(comp: &Composition) -> (Vec<Option<usize>>, Vec<StateId>) {
    let m = &comp.automaton;
    let mut canon: Vec<Option<usize>> = vec![None; m.state_count()];
    let mut order: Vec<StateId> = Vec::new();
    for &q in m.initial_states() {
        if canon[q.index()].is_none() {
            canon[q.index()] = Some(order.len());
            order.push(q);
        }
    }
    let mut next = 0;
    while next < order.len() {
        let s = order[next];
        next += 1;
        for t in m.transitions_from(s) {
            if canon[t.to.index()].is_none() {
                canon[t.to.index()] = Some(order.len());
                order.push(t.to);
            }
        }
    }
    (canon, order)
}

/// Asserts that `lhs` and `rhs` are the same product up to a renaming of
/// states, over their reachable parts.
///
/// Both products are relabelled breadth-first from their initial states,
/// following rows in emit order. Then, exactly: the initial states in
/// order; for every reachable state its name, its props and its row
/// (resolved guards in order, so the order each product interned its
/// guards in does not matter; targets relabelled); and the CSR relation — each
/// state's successors, predecessors and deadlock flag, relabelled. Every
/// state outside the reachable part must have an empty row, and
/// [`Composition::reachable_state_count`] must count the reachable part.
/// This is everything a consumer that starts from the initial states can
/// observe: checker verdicts and witnesses, listings, projections and
/// probes read names, tuples and rows, never raw state numbers.
///
/// # Panics
///
/// Panics (naming `what` and the first difference) if the products differ.
pub fn assert_same_product(what: &str, lhs: &Composition, rhs: &Composition) {
    let (lc, lorder) = canonical_order(lhs);
    let (rc, rorder) = canonical_order(rhs);
    assert_eq!(
        lorder.len(),
        rorder.len(),
        "{what}: reachable state counts differ"
    );
    for (side, comp, canon, order) in [("lhs", lhs, &lc, &lorder), ("rhs", rhs, &rc, &rorder)] {
        assert_eq!(
            comp.reachable_state_count(),
            order.len(),
            "{what}: {side} miscounts its reachable states"
        );
        for s in comp.automaton.state_ids() {
            if canon[s.index()].is_none() {
                assert!(
                    comp.automaton.transitions_from(s).is_empty(),
                    "{what}: {side} keeps a row at unreachable state {}",
                    comp.automaton.state_name(s)
                );
            }
        }
    }
    let relabel = |canon: &[Option<usize>], ids: &[u32]| -> Vec<usize> {
        let mut v: Vec<usize> = ids
            .iter()
            .map(|&t| canon[t as usize].expect("reachable states only touch reachable states"))
            .collect();
        v.sort_unstable();
        v
    };
    let linit: Vec<Option<usize>> = lhs
        .automaton
        .initial_states()
        .iter()
        .map(|q| lc[q.index()])
        .collect();
    let rinit: Vec<Option<usize>> = rhs
        .automaton
        .initial_states()
        .iter()
        .map(|q| rc[q.index()])
        .collect();
    assert_eq!(linit, rinit, "{what}: initial states differ");
    for (i, (&ls, &rs)) in lorder.iter().zip(&rorder).enumerate() {
        let (lm, rm) = (&lhs.automaton, &rhs.automaton);
        let name = lm.state_name(ls);
        assert_eq!(name, rm.state_name(rs), "{what}: state #{i} renamed");
        assert_eq!(
            lm.props_of(ls),
            rm.props_of(rs),
            "{what}: props differ at {name}"
        );
        let lrow: Vec<_> = lm
            .transitions_from(ls)
            .iter()
            .map(|t| (lm.guard(t.guard), lc[t.to.index()]))
            .collect();
        let rrow: Vec<_> = rm
            .transitions_from(rs)
            .iter()
            .map(|t| (rm.guard(t.guard), rc[t.to.index()]))
            .collect();
        assert_eq!(lrow, rrow, "{what}: row of {name} differs");
        let (l, r) = (ls.index(), rs.index());
        assert_eq!(
            lhs.csr.is_deadlocked(l),
            rhs.csr.is_deadlocked(r),
            "{what}: CSR deadlock flag differs at {name}"
        );
        assert_eq!(
            relabel(&lc, lhs.csr.successors(l)),
            relabel(&rc, rhs.csr.successors(r)),
            "{what}: CSR successors differ at {name}"
        );
        assert_eq!(
            relabel(&lc, lhs.csr.predecessors(l)),
            relabel(&rc, rhs.csr.predecessors(r)),
            "{what}: CSR predecessors differ at {name}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::with_seed(42);
        let mut b = Rng::with_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_and_range_are_in_bounds() {
        let mut rng = Rng::with_seed(7);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            let v = rng.range(2..=4);
            assert!((2..=4).contains(&v));
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn cases_runs_all_seeds() {
        let mut count = std::sync::atomic::AtomicUsize::new(0);
        cases(10, |_rng| {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(*count.get_mut(), 10);
    }
}
