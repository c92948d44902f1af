//! Incremental recomposition across learn iterations.
//!
//! The verify → test → learn loop (paper §4) re-verifies the product
//! `M_a^c ∥ chaos(M_l^i)` after every learn step, but Definitions 11/12 only
//! ever *add* a few states, transitions or refusals per iteration — the
//! context half of the product and most of the closure are unchanged. This
//! module makes the per-iteration composition cost proportional to that
//! [`LearnDelta`](crate::LearnDelta) instead of the whole product:
//!
//! * [`ClosureCache`] patches the chaotic closure in place: only the chaos
//!   copies of *dirty* legacy states are rewired, new states are appended,
//!   and the frozen `s_∀`/`s_δ` rows are never touched. The patched closure
//!   is equal to a fresh [`chaotic_closure`](crate::chaotic_closure) up to a
//!   renaming of state ids (new copies sit at the end instead of
//!   interleaved), which composition is insensitive to.
//! * [`CompositionCache`] borrows its context for its whole lifetime and
//!   updates one product in place. Product state ids are stable: the cold
//!   build and every splice run the one product engine of
//!   [`compose`](crate::compose) over the same storage, with the row
//!   kernel that built the product (its memo and the product's guard table
//!   are kept across recomposes). Rows whose origin tuple touches a dirty
//!   closure state are re-expanded where they stand, and newly reached
//!   tuples are appended. One pass over the successors from the initial
//!   states then finds the reachable part; rows that fell out of it are
//!   cleared (and re-expanded if a later splice reaches them again), and
//!   the CSR relation is re-sorted only for the rows that changed. The
//!   product is the one a cold rebuild yields up to a renaming of states:
//!   the same initial order, and for every reachable state the same
//!   tuple, name, props and row in emit order.
//!   Nothing downstream reads state numbers — the checker's verdicts and
//!   witnesses start from the initial states and walk rows in emit order,
//!   and listings, projections and probes read names and tuples.
//!
//! Unreachable rows are dropped — the product compacted in id order — only
//! once they outnumber the reachable ones.
//!
//! A cold rebuild remains the fallback whenever the initial-state set grew,
//! the number of legacy components changed, or more than half of the
//! reachable rows are dirty. The context cannot change under a cache: a
//! different context needs a new cache.

use crate::automaton::{Automaton, StateId, Transition};
use crate::compose::{ComposeOptions, Composition};
use crate::error::Result;
use crate::incomplete::{IncompleteAutomaton, LearnDelta};
use crate::label::{Guard, GuardId, LabelFamily};
use crate::lazy::Product;
use crate::prop::PropId;

/// The dirty fraction of the reachable rows above which
/// [`CompositionCache::recompose`] rebuilds cold instead of splicing: past
/// it, splicing would approach a rebuild's cost and the unreachable rows it
/// leaves behind would dominate the product.
const REBUILD_ABOVE: f64 = 0.5;

/// How a [`CompositionCache::recompose`] call produced its product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomposeMode {
    /// Full rebuild: no cache, initial set grew, component count changed,
    /// or more than half of the reachable rows were dirty.
    Cold,
    /// Delta-driven: only invalidated rows were re-expanded.
    Incremental,
}

impl RecomposeMode {
    /// Stable lower-case name (`"cold"` / `"incremental"`) for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            RecomposeMode::Cold => "cold",
            RecomposeMode::Incremental => "incremental",
        }
    }
}

/// Work report of one [`CompositionCache::recompose`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecomposeInfo {
    /// How the product was produced.
    pub mode: RecomposeMode,
    /// Product rows invalidated and re-expanded, plus states newly reached
    /// (cold: all of them).
    pub dirty_states: usize,
    /// Reachable product rows carried over untouched (cold: zero).
    pub reused_states: usize,
    /// Transitions written while re-expanding rows (cold: all of them).
    pub spliced_transitions: usize,
}

/// A chaotic closure that can be *patched* in place when its underlying
/// [`IncompleteAutomaton`] learns.
///
/// Layout invariant: the copies of the first `n₀` legacy states sit at
/// `2s`/`2s+1` and `s_∀`/`s_δ` at `2n₀`/`2n₀+1` exactly as
/// [`chaotic_closure`](crate::chaotic_closure) built them; copies of states
/// learned later are appended after `s_δ` in pairs. Ids are therefore
/// stable across patches (append-only), and the patched closure is
/// isomorphic-by-state-name to a fresh closure of the same abstraction.
#[derive(Debug, Clone)]
pub struct ClosureCache {
    automaton: Automaton,
    /// Legacy state id → `[(s,0), (s,1)]` closure ids.
    copies: Vec<[StateId; 2]>,
    s_all: StateId,
    s_delta: StateId,
}

impl ClosureCache {
    /// Builds the cache from a fresh closure of `m`.
    pub fn build(m: &IncompleteAutomaton, chaos_prop: Option<PropId>) -> ClosureCache {
        let n = m.state_count();
        let automaton = crate::chaos::chaotic_closure(m, chaos_prop);
        ClosureCache {
            automaton,
            copies: (0..n)
                .map(|s| [StateId(2 * s as u32), StateId(2 * s as u32 + 1)])
                .collect(),
            s_all: StateId(2 * n as u32),
            s_delta: StateId(2 * n as u32 + 1),
        }
    }

    /// The (possibly patched) closure automaton.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// The closure ids standing for legacy state `s`.
    pub fn copies_of(&self, s: StateId) -> [StateId; 2] {
        self.copies[s.index()]
    }

    /// Applies `delta` (drained from `m` *after* the state this cache was
    /// built from) by appending copies for new legacy states and rewiring
    /// the rows of every dirty state's copies. Returns the closure ids whose
    /// rows changed.
    ///
    /// The caller must ensure `delta.initial_changed` is false — initial-set
    /// growth moves the product start frontier and requires a cold rebuild.
    pub fn patch(&mut self, m: &IncompleteAutomaton, delta: &LearnDelta) -> Vec<StateId> {
        debug_assert!(
            !delta.initial_changed,
            "initial growth needs a cold rebuild"
        );
        // Append copies for states learned since the last revision.
        for s in self.copies.len()..m.state_count() {
            let sid = StateId(s as u32);
            let name = m.state_name(sid);
            let pair = [0, 1].map(|bit| {
                self.automaton.push_state(m.props_of(sid), |buf| {
                    buf.push_str(name);
                    buf.push_str(if bit == 0 { "#0" } else { "#1" });
                })
            });
            self.copies.push(pair);
        }
        // Rewire every dirty state exactly as `chaotic_closure` would,
        // interning each guard once (ids already in the table are reused).
        let mut touched = Vec::new();
        let mut row: Vec<Transition> = Vec::new();
        let mut exact: Vec<GuardId> = Vec::new();
        for &s in &delta.dirty {
            let [c0, c1] = self.copies[s.index()];
            let mut fam = LabelFamily::all(m.inputs(), m.outputs());
            fam.excluded = m.refusals_at(s).to_vec();
            for &(l, _) in m.transitions_from(s) {
                if !fam.excluded.contains(&l) {
                    fam.excluded.push(l);
                }
            }
            exact.clear();
            for &(l, _) in m.transitions_from(s) {
                exact.push(self.automaton.guards_mut().intern(Guard::Exact(l)));
            }
            let escape =
                (!fam.is_empty()).then(|| self.automaton.guards_mut().intern(Guard::from(fam)));
            for c in [c0, c1] {
                for (&(_, to), &guard) in m.transitions_from(s).iter().zip(&exact) {
                    row.extend(self.copies[to.index()].map(|t| Transition { guard, to: t }));
                }
                if let Some(guard) = escape.filter(|_| c == c1) {
                    row.extend([self.s_all, self.s_delta].map(|to| Transition { guard, to }));
                }
                self.automaton.set_props(c, m.props_of(s));
                self.automaton.set_row(c, &mut row);
            }
            touched.push(c0);
            touched.push(c1);
        }
        self.automaton.compact_rows();
        touched
    }
}

struct CacheState {
    closures: Vec<ClosureCache>,
    /// The product over the context and `closures`, with the row kernel
    /// and per-state row status of the engine that built it.
    product: Product,
}

/// Caches the composition `context ∥ chaos(M_l^1) ∥ … ∥ chaos(M_l^k)`
/// across learn iterations and recomposes it delta-driven, in place.
///
/// The cache borrows its context for its whole lifetime, so the context
/// cannot change between recompositions; what does change — the legacy
/// abstractions — is described by the [`LearnDelta`]s handed to
/// [`Self::recompose`].
pub struct CompositionCache<'c> {
    context: &'c Automaton,
    state: Option<CacheState>,
}

impl<'c> CompositionCache<'c> {
    /// An empty cache over `context`.
    pub fn new(context: &'c Automaton) -> Self {
        CompositionCache {
            context,
            state: None,
        }
    }

    /// The current product. Panics if [`Self::recompose`] has not succeeded
    /// yet.
    pub fn composition(&self) -> &Composition {
        &self.state.as_ref().expect("recompose first").product.comp
    }

    /// The current (possibly patched) closures, one per legacy component,
    /// in the order they were passed to [`Self::recompose`]. These are the
    /// exact automata the cached product was composed from — projections of
    /// product runs must be resolved against them.
    pub fn closures(&self) -> Vec<&Automaton> {
        self.state
            .as_ref()
            .expect("recompose first")
            .closures
            .iter()
            .map(|c| c.automaton())
            .collect()
    }

    /// (Re)composes `context ∥ chaos(legacy[0]) ∥ …` given the deltas each
    /// abstraction accumulated since the previous call.
    ///
    /// The resulting product — reachable via [`Self::composition`] — equals
    /// `compose` over fresh closures up to a renaming of states: the same
    /// initial states in order, and for every reachable state the same
    /// name, props and transition row (guards in order, targets renamed),
    /// hence the same CSR relation over the reachable part. A cold rebuild
    /// is `compose`'s product bit for bit. States keep their ids from one
    /// recompose to the next; origin tuples reference the cache's
    /// append-only closure layout, and [`Composition::stats`] reflects the
    /// (smaller) incremental work.
    ///
    /// Returns the work report.
    ///
    /// # Errors
    ///
    /// As for [`compose`](crate::compose).
    pub fn recompose(
        &mut self,
        legacy: &[IncompleteAutomaton],
        deltas: &[LearnDelta],
        chaos_prop: Option<PropId>,
        opts: &ComposeOptions,
    ) -> Result<RecomposeInfo> {
        assert_eq!(legacy.len(), deltas.len(), "one delta per legacy component");
        let reusable = deltas.iter().all(|d| !d.initial_changed)
            && self
                .state
                .as_ref()
                .is_some_and(|st| st.closures.len() == legacy.len());
        if !reusable {
            return self.rebuild(legacy, chaos_prop, opts);
        }

        // Dirty closure ids per component, in the cache's stable id space.
        // New legacy states have no product rows yet, so the *invalidated*
        // row set only depends on dirty states that already had copies.
        let st = self.state.as_ref().expect("checked above");
        let mut dirty_closure: Vec<Vec<u32>> = Vec::with_capacity(legacy.len());
        for (c, d) in st.closures.iter().zip(deltas) {
            let mut ids = Vec::new();
            for &s in &d.dirty {
                if s.index() < c.copies.len() {
                    ids.extend(c.copies[s.index()].map(|id| id.0));
                }
            }
            ids.sort_unstable();
            dirty_closure.push(ids);
        }
        let comp = &st.product.comp;
        let dirty_rows: Vec<u32> = (0..comp.automaton.state_count() as u32)
            .filter(|&r| {
                st.product.is_settled(r)
                    && comp
                        .tuple(StateId(r))
                        .iter()
                        .skip(1) // slot 0 is the context
                        .zip(&dirty_closure)
                        .any(|(cs, ids)| ids.binary_search(cs).is_ok())
            })
            .collect();
        if dirty_rows.len() as f64 > REBUILD_ABOVE * comp.reachable as f64 {
            return self.rebuild(legacy, chaos_prop, opts);
        }

        // Patch the closures, then splice the product.
        let CacheState { closures, product } = self.state.as_mut().expect("checked above");
        for ((c, m), d) in closures.iter_mut().zip(legacy).zip(deltas) {
            c.patch(m, d);
        }
        let parts: Vec<&Automaton> = std::iter::once(self.context)
            .chain(closures.iter().map(|c| c.automaton()))
            .collect();
        let (expanded, transitions) = match product.splice(&parts, &dirty_rows, opts) {
            Ok(done) => done,
            Err(e) => {
                // Poison the cache: the partially spliced product is not a
                // valid composition.
                self.state = None;
                return Err(e);
            }
        };
        product.settle();
        Ok(RecomposeInfo {
            mode: RecomposeMode::Incremental,
            dirty_states: expanded,
            reused_states: product.comp.reachable.saturating_sub(expanded),
            spliced_transitions: transitions,
        })
    }

    fn rebuild(
        &mut self,
        legacy: &[IncompleteAutomaton],
        chaos_prop: Option<PropId>,
        opts: &ComposeOptions,
    ) -> Result<RecomposeInfo> {
        self.state = None; // drop stale state even if the rebuild fails
        let closures: Vec<ClosureCache> = legacy
            .iter()
            .map(|m| ClosureCache::build(m, chaos_prop))
            .collect();
        let parts: Vec<&Automaton> = std::iter::once(self.context)
            .chain(closures.iter().map(|c| c.automaton()))
            .collect();
        let mut product = Product::new(&parts)?;
        product.finish(&parts, opts)?;
        let info = RecomposeInfo {
            mode: RecomposeMode::Cold,
            dirty_states: product.comp.automaton.state_count(),
            reused_states: 0,
            spliced_transitions: product.comp.automaton.transition_count(),
        };
        self.state = Some(CacheState { closures, product });
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::chaos::{S_ALL, S_DELTA};
    use crate::incomplete::Observation;
    use crate::label::Label;
    use crate::signal::SignalSet;
    use crate::universe::Universe;

    fn context(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "ctx")
            .output("ping")
            .input("pong")
            .state("idle")
            .initial("idle")
            .state("waiting")
            .transition("idle", [], ["ping"], "waiting")
            .transition("waiting", ["pong"], [], "idle")
            .transition("waiting", [], [], "waiting")
            .build()
            .unwrap()
    }

    fn legacy(u: &Universe) -> IncompleteAutomaton {
        IncompleteAutomaton::trivial(
            u,
            "legacy",
            u.signals(["ping"]),
            u.signals(["pong"]),
            "start",
        )
    }

    #[test]
    fn patched_closure_matches_fresh_closure_by_name() {
        let u = Universe::new();
        let mut m = legacy(&u);
        let mut cc = ClosureCache::build(&m, None);
        let _ = m.take_delta();
        let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
        let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
        m.learn(&Observation::blocked(vec!["start".into()], vec![ping]))
            .unwrap();
        m.learn(&Observation::regular(
            vec!["start".into(), "busy".into()],
            vec![pong],
        ))
        .unwrap();
        let d = m.take_delta();
        cc.patch(&m, &d);
        let patched = cc.automaton();
        let fresh = crate::chaos::chaotic_closure(&m, None);
        assert_eq!(patched.state_count(), fresh.state_count());
        // Same states by name, same props, and per-state the same guarded
        // transitions up to the id renaming induced by the names.
        for s in fresh.state_ids() {
            let name = fresh.state_name(s);
            let p = patched.find_state(name).unwrap_or_else(|| {
                panic!("patched closure misses state {name}");
            });
            assert_eq!(patched.props_of(p), fresh.props_of(s), "{name}");
            let mut fresh_row: Vec<(Guard, String)> = fresh
                .transitions_from(s)
                .iter()
                .map(|t| {
                    (
                        fresh.guard(t.guard).clone(),
                        fresh.state_name(t.to).to_owned(),
                    )
                })
                .collect();
            let mut patched_row: Vec<(Guard, String)> = patched
                .transitions_from(p)
                .iter()
                .map(|t| {
                    (
                        patched.guard(t.guard).clone(),
                        patched.state_name(t.to).to_owned(),
                    )
                })
                .collect();
            // Row order is also preserved (T transitions in T order, then
            // the escape family) — compare exactly, not as sets.
            assert_eq!(patched_row.len(), fresh_row.len(), "{name}");
            fresh_row.sort_by(|a, b| a.1.cmp(&b.1));
            patched_row.sort_by(|a, b| a.1.cmp(&b.1));
            assert_eq!(patched_row, fresh_row, "{name}");
        }
        // s_∀ / s_δ stayed frozen at their original positions.
        assert_eq!(patched.state_name(cc.s_all), S_ALL);
        assert_eq!(patched.state_name(cc.s_delta), S_DELTA);
    }

    #[test]
    fn ids_stay_put_and_unreachable_rows_are_cleared() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut m = legacy(&u);
        let mut cache = CompositionCache::new(&ctx);
        let opts = ComposeOptions::default();
        let d = m.take_delta();
        cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts)
            .unwrap();
        let before: Vec<String> = cache
            .composition()
            .automaton
            .state_ids()
            .map(|s| cache.composition().automaton.state_name(s).to_owned())
            .collect();
        // Learn the whole behaviour at `start`: pinging moves on, silence
        // is refused. The start copies stop escaping to chaos.
        let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
        m.learn(&Observation::regular(
            vec!["start".into(), "started".into()],
            vec![ping],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["start".into()],
            vec![Label::EMPTY],
        ))
        .unwrap();
        let d = m.take_delta();
        let info = cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Incremental);
        let comp = cache.composition();
        // Every state kept its id (and so its name); new ones came after.
        for (i, name) in before.iter().enumerate() {
            assert_eq!(comp.automaton.state_name(StateId(i as u32)), name);
        }
        assert!(comp.automaton.state_count() >= before.len());
        // Rows outside the reachable part are empty and deadlocked.
        let reach = comp.automaton.reachable_states();
        assert_eq!(reach.len(), comp.reachable_state_count());
        for s in comp.automaton.state_ids() {
            if !reach.contains(&s) {
                assert!(comp.automaton.transitions_from(s).is_empty());
                assert!(comp.csr.is_deadlocked(s.index()));
            }
        }
    }
}
