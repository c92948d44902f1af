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
//! * [`CompositionCache`] borrows its context for its whole lifetime, keeps
//!   the previous product, invalidates only rows whose origin tuple touches
//!   a dirty closure state, re-expands those rows with the shared
//!   [`compose`](crate::compose) row kernel, explores any
//!   genuinely new frontier, and finally renumbers the product into the
//!   exact state order a cold rebuild would produce — so the resulting
//!   [`Composition`] is *identical* (states, ids, transition order,
//!   counterexamples) to `compose(&parts, opts)` on the fresh closures.
//! * [`WarmCarry`] reports which product states kept their entire forward
//!   behaviour (they cannot reach any invalidated row), so a checker may
//!   carry their satisfaction bits into the next iteration (see
//!   `muml-logic`'s seeded checker; DESIGN.md §12 has the soundness
//!   argument).
//!
//! A full rebuild remains the fallback — and the differential-test oracle —
//! whenever the initial-state set grew, the number of legacy components
//! changed, or the dirty fraction of the product exceeds
//! [`CompositionCache::set_threshold`]. The context cannot change under a
//! cache: a different context needs a new cache.

use std::collections::HashMap;

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::compose::{compose, ComposeOptions, Composition, RowKernel};
use crate::csr::Csr;
use crate::error::{AutomataError, Result};
use crate::incomplete::{IncompleteAutomaton, LearnDelta};
use crate::label::{Guard, LabelFamily};
use crate::prop::{PropId, PropSet};

/// How a [`CompositionCache::recompose`] call produced its product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomposeMode {
    /// Full rebuild: no cache, initial set grew, component count changed,
    /// or the dirty fraction exceeded the threshold.
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
    /// Product rows invalidated and re-expanded (cold: all of them).
    pub dirty_states: usize,
    /// Product rows carried over untouched (cold: zero).
    pub reused_states: usize,
    /// Transitions written while re-expanding rows (cold: all of them).
    pub spliced_transitions: usize,
}

/// Which previous-product states kept their satisfaction bits, and where
/// they moved.
///
/// A state is *carried* iff it survives into the new product and cannot
/// reach any invalidated row in the old transition relation: every path
/// from it is over unchanged rows, so the truth of **every** CTL formula at
/// it is unchanged (see DESIGN.md §12). `remap[old] = Some(new)` exactly
/// for carried states.
#[derive(Debug, Clone)]
pub struct WarmCarry {
    /// Number of states in the previous product (`remap.len()`).
    pub old_states: usize,
    /// Number of states in the new product.
    pub new_states: usize,
    /// Old product id → new product id, for carried states only.
    pub remap: Vec<Option<u32>>,
}

impl WarmCarry {
    /// Number of carried states.
    pub fn carried(&self) -> usize {
        self.remap.iter().filter(|r| r.is_some()).count()
    }
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
            let mut pair = [StateId(0); 2];
            for (bit, slot) in pair.iter_mut().enumerate() {
                *slot = StateId(self.automaton.states.len() as u32);
                self.automaton.states.push(StateData {
                    name: format!("{}#{}", m.state_name(sid), bit),
                    props: m.props_of(sid),
                });
                self.automaton.adj.push(Vec::new());
            }
            self.copies.push(pair);
        }
        // Rewire every dirty state exactly as `chaotic_closure` would.
        let mut touched = Vec::new();
        for &s in &delta.dirty {
            let [c0, c1] = self.copies[s.index()];
            for c in [c0, c1] {
                self.automaton.states[c.index()].props = m.props_of(s);
                self.automaton.adj[c.index()].clear();
            }
            for &(l, to) in m.transitions_from(s) {
                let tc = self.copies[to.index()];
                for c in [c0, c1] {
                    for &t in &tc {
                        self.automaton.adj[c.index()].push(Transition {
                            guard: Guard::Exact(l),
                            to: t,
                        });
                    }
                }
            }
            let mut fam = LabelFamily::all(m.inputs(), m.outputs());
            fam.excluded = m.refusals_at(s).to_vec();
            for &(l, _) in m.transitions_from(s) {
                if !fam.excluded.contains(&l) {
                    fam.excluded.push(l);
                }
            }
            if !fam.is_empty() {
                self.automaton.adj[c1.index()].push(Transition {
                    guard: Guard::from(fam.clone()),
                    to: self.s_all,
                });
                self.automaton.adj[c1.index()].push(Transition {
                    guard: Guard::from(fam),
                    to: self.s_delta,
                });
            }
            touched.push(c0);
            touched.push(c1);
        }
        touched
    }
}

struct CacheState {
    closures: Vec<ClosureCache>,
    comp: Composition,
    /// Component-state tuple → product state id.
    index: HashMap<Vec<StateId>, StateId>,
}

/// Caches the composition `context ∥ chaos(M_l^1) ∥ … ∥ chaos(M_l^k)`
/// across learn iterations and recomposes it delta-driven.
///
/// The cache borrows its context for its whole lifetime, so the context
/// cannot change between recompositions; what does change — the legacy
/// abstractions — is described by the [`LearnDelta`]s handed to
/// [`Self::recompose`].
pub struct CompositionCache<'c> {
    context: &'c Automaton,
    threshold: f64,
    state: Option<CacheState>,
}

impl<'c> CompositionCache<'c> {
    /// An empty cache over `context` with the default dirtiness threshold
    /// (0.5).
    pub fn new(context: &'c Automaton) -> Self {
        CompositionCache {
            context,
            threshold: 0.5,
            state: None,
        }
    }

    /// Sets the dirty-fraction threshold above which [`Self::recompose`]
    /// falls back to a cold rebuild. `0.0` forces every delta-carrying
    /// recompose cold (useful to exercise the fallback in tests); `1.0`
    /// never falls back on dirtiness.
    ///
    /// Values outside `[0.0, 1.0]` are clamped into the range; `NaN` is
    /// ignored and keeps the current threshold (a NaN threshold would make
    /// the dirty-fraction comparison vacuously false, silently disabling
    /// the cold-rebuild fallback forever).
    pub fn set_threshold(&mut self, threshold: f64) {
        if threshold.is_nan() {
            return;
        }
        self.threshold = threshold.clamp(0.0, 1.0);
    }

    /// The current dirty-fraction threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Drops the cached product, forcing the next recompose cold.
    pub fn invalidate(&mut self) {
        self.state = None;
    }

    /// The current product. Panics if [`Self::recompose`] has not succeeded
    /// yet.
    pub fn composition(&self) -> &Composition {
        &self.state.as_ref().expect("recompose first").comp
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
    /// The resulting product — reachable via [`Self::composition`] — is
    /// identical to `compose` over fresh closures: same state ids, names,
    /// transitions and CSR; only [`Composition::stats`] reflects the
    /// (smaller) incremental work and origin tuples reference the cache's
    /// append-only closure layout instead of the fresh interleaved one.
    ///
    /// Returns the work report and, for incremental recompositions, the
    /// [`WarmCarry`] a checker needs to reuse the previous iteration's
    /// satisfaction sets.
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
        allow_incremental: bool,
    ) -> Result<(RecomposeInfo, Option<WarmCarry>)> {
        assert_eq!(legacy.len(), deltas.len(), "one delta per legacy component");
        let reusable = allow_incremental
            && deltas.iter().all(|d| !d.initial_changed)
            && self
                .state
                .as_ref()
                .is_some_and(|st| st.closures.len() == legacy.len());
        if !reusable {
            return self
                .rebuild(legacy, chaos_prop, opts)
                .map(|info| (info, None));
        }

        // Dirty closure ids per component, in the cache's stable id space.
        // New legacy states have no product rows yet, so the *invalidated*
        // row set only depends on dirty states that already had copies.
        let st = self.state.as_ref().expect("checked above");
        let mut dirty_closure: Vec<Vec<StateId>> = Vec::with_capacity(legacy.len());
        for (c, d) in st.closures.iter().zip(deltas) {
            let mut ids = Vec::new();
            for &s in &d.dirty {
                if s.index() < c.copies.len() {
                    ids.extend(c.copies[s.index()]);
                }
            }
            ids.sort_unstable();
            dirty_closure.push(ids);
        }
        let dirty_rows: Vec<usize> = (0..st.comp.automaton.state_count())
            .filter(|&r| {
                st.comp.origin[r]
                    .iter()
                    .skip(1) // slot 0 is the context
                    .zip(&dirty_closure)
                    .any(|(cs, ids)| ids.binary_search(cs).is_ok())
            })
            .collect();
        let old_states = st.comp.automaton.state_count();
        if old_states == 0 || dirty_rows.len() as f64 > self.threshold * old_states as f64 {
            return self
                .rebuild(legacy, chaos_prop, opts)
                .map(|info| (info, None));
        }

        // Dirty cone over the *old* relation: every state that can reach an
        // invalidated row. States outside it keep their entire forward
        // behaviour, hence their satisfaction bits (DESIGN.md §12).
        let mut in_cone = vec![false; old_states];
        let mut stack: Vec<usize> = dirty_rows.clone();
        for &r in &dirty_rows {
            in_cone[r] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in st.comp.csr.predecessors(s) {
                if !in_cone[p as usize] {
                    in_cone[p as usize] = true;
                    stack.push(p as usize);
                }
            }
        }

        // Patch the closures, then re-expand the invalidated rows and
        // explore whatever new frontier they open.
        let st = self.state.as_mut().expect("checked above");
        for ((c, m), d) in st.closures.iter_mut().zip(legacy).zip(deltas) {
            c.patch(m, d);
        }
        let parts: Vec<&Automaton> = std::iter::once(self.context)
            .chain(st.closures.iter().map(|c| c.automaton()))
            .collect();
        let mut kernel = RowKernel::new(&parts);

        let automaton = &mut st.comp.automaton;
        let origin = &mut st.comp.origin;
        let index = &mut st.index;
        let mut stats = crate::compose::ComposeStats::default();
        let mut spliced = 0usize;
        // Invalidated rows first (their StateData may have stale props),
        // then the worklist of appended frontier states.
        let mut worklist: Vec<usize> = Vec::new();
        for &r in &dirty_rows {
            automaton.adj[r].clear();
            automaton.states[r].props = origin[r]
                .iter()
                .zip(&parts)
                .fold(PropSet::EMPTY, |acc, (&cs, p)| acc.union(p.props_of(cs)));
        }
        let mut queue: Vec<usize> = dirty_rows.clone();
        while let Some(r) = queue.pop().or_else(|| worklist.pop()) {
            if automaton.states.len() > opts.max_states {
                // Poison the cache: the partially spliced product is not a
                // valid composition.
                self.state = None;
                return Err(AutomataError::Limit {
                    what: "composed state space".into(),
                    max: opts.max_states,
                });
            }
            let tuple = origin[r].clone();
            let adj = &mut automaton.adj;
            let states = &mut automaton.states;
            let expanded = kernel.expand(&parts, &tuple, opts, &mut stats, |guard, target| {
                let tgt = match index.get(target) {
                    Some(&id) => id,
                    None => {
                        let id = StateId(states.len() as u32);
                        let name = target
                            .iter()
                            .zip(&parts)
                            .map(|(&s, p)| p.state_name(s).to_owned())
                            .collect::<Vec<_>>()
                            .join("||");
                        let props = target
                            .iter()
                            .zip(&parts)
                            .fold(PropSet::EMPTY, |acc, (&s, p)| acc.union(p.props_of(s)));
                        states.push(StateData { name, props });
                        adj.push(Vec::new());
                        origin.push(target.to_vec());
                        index.insert(target.to_vec(), id);
                        worklist.push(id.index());
                        id
                    }
                };
                let tr = Transition { guard, to: tgt };
                if !adj[r].contains(&tr) {
                    adj[r].push(tr);
                }
            });
            if let Err(e) = expanded {
                self.state = None;
                return Err(e);
            }
            spliced += automaton.adj[r].len();
        }

        // Renumber into the exact order a cold rebuild's worklist would
        // assign, dropping states that became unreachable. This makes the
        // incremental product bit-identical to `compose` over fresh
        // closures (see module docs) and doubles as compaction.
        let grown = automaton.states.len();
        let mut order: Vec<Option<u32>> = vec![None; grown];
        let mut assigned = 0u32;
        let mut stack: Vec<usize> = Vec::new();
        for &q in &automaton.initial {
            if order[q.index()].is_none() {
                order[q.index()] = Some(assigned);
                assigned += 1;
                stack.push(q.index());
            }
        }
        let mut visit: Vec<usize> = Vec::with_capacity(grown);
        while let Some(s) = stack.pop() {
            visit.push(s);
            for t in &automaton.adj[s] {
                if order[t.to.index()].is_none() {
                    order[t.to.index()] = Some(assigned);
                    assigned += 1;
                    stack.push(t.to.index());
                }
            }
        }
        let new_count = assigned as usize;
        let placeholder = StateData {
            name: String::new(),
            props: PropSet::EMPTY,
        };
        let mut new_states: Vec<StateData> = vec![placeholder; new_count];
        let mut new_adj: Vec<Vec<Transition>> = vec![Vec::new(); new_count];
        let mut new_origin: Vec<Vec<StateId>> = vec![Vec::new(); new_count];
        for old in visit {
            let new = order[old].expect("visited states are ordered") as usize;
            new_states[new] = std::mem::take(&mut automaton.states[old]);
            new_origin[new] = std::mem::take(&mut origin[old]);
            let mut row = std::mem::take(&mut automaton.adj[old]);
            for t in &mut row {
                t.to = StateId(order[t.to.index()].expect("reachable target"));
            }
            new_adj[new] = row;
        }
        automaton.states = new_states;
        automaton.adj = new_adj;
        for q in &mut automaton.initial {
            *q = StateId(order[q.index()].expect("initial states are reachable"));
        }
        *origin = new_origin;
        index.clear();
        for (i, tuple) in origin.iter().enumerate() {
            index.insert(tuple.clone(), StateId(i as u32));
        }
        st.comp.stats = stats;
        st.comp.csr = Csr::of(&st.comp.automaton);

        let dirty_states = dirty_rows.len() + grown.saturating_sub(old_states);
        let carry = WarmCarry {
            old_states,
            new_states: new_count,
            remap: (0..old_states)
                .map(|s| if in_cone[s] { None } else { order[s] })
                .collect(),
        };
        let info = RecomposeInfo {
            mode: RecomposeMode::Incremental,
            dirty_states,
            reused_states: new_count.saturating_sub(dirty_states),
            spliced_transitions: spliced,
        };
        Ok((info, Some(carry)))
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
        let comp = compose(&parts, opts)?;
        let index = comp
            .origin
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), StateId(i as u32)))
            .collect();
        let info = RecomposeInfo {
            mode: RecomposeMode::Cold,
            dirty_states: comp.automaton.state_count(),
            reused_states: 0,
            spliced_transitions: comp.automaton.transition_count(),
        };
        self.state = Some(CacheState {
            closures,
            comp,
            index,
        });
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

    fn cold_oracle(u: &Universe, ctx: &Automaton, m: &IncompleteAutomaton) -> Composition {
        let _ = u;
        let closure = crate::chaos::chaotic_closure(m, None);
        compose(&[ctx, &closure], &ComposeOptions::default()).unwrap()
    }

    /// The incremental product must be *identical* to the cold oracle in
    /// every id-visible way (states, names, props, guards, order, initial,
    /// CSR) — origin tuples are allowed to differ (closure id spaces do).
    fn assert_products_identical(inc: &Composition, cold: &Composition) {
        assert_eq!(inc.automaton.state_count(), cold.automaton.state_count());
        for s in inc.automaton.state_ids() {
            assert_eq!(inc.automaton.state_name(s), cold.automaton.state_name(s));
            assert_eq!(inc.automaton.props_of(s), cold.automaton.props_of(s));
            assert_eq!(
                inc.automaton.transitions_from(s),
                cold.automaton.transitions_from(s),
                "row {} ({})",
                s.0,
                inc.automaton.state_name(s)
            );
        }
        assert_eq!(
            inc.automaton.initial_states(),
            cold.automaton.initial_states()
        );
        assert_eq!(inc.csr, cold.csr);
    }

    #[test]
    fn incremental_matches_cold_across_learning() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut m = legacy(&u);
        let mut cache = CompositionCache::new(&ctx);
        cache.set_threshold(1.0);
        let opts = ComposeOptions::default();
        let d0 = m.take_delta();
        let (info, carry) = cache
            .recompose(std::slice::from_ref(&m), &[d0], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Cold);
        assert!(carry.is_none());
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));

        // Learn a regular run: the start state gains a transition and a new
        // state appears (the initial set is unchanged).
        let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
        m.learn(&Observation::regular(
            vec!["start".into(), "started".into()],
            vec![ping],
        ))
        .unwrap();
        let d1 = m.take_delta();
        assert!(!d1.initial_changed);
        let (info, carry) = cache
            .recompose(std::slice::from_ref(&m), &[d1], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Incremental);
        let carry = carry.unwrap();
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
        assert_eq!(carry.old_states, carry.remap.len());

        // Refuse the empty interaction at the new state: only its copies'
        // rows are invalidated; the chaos tail of the product is out of the
        // dirty cone and must be both reused and carried.
        m.learn(&Observation::blocked(
            vec!["start".into(), "started".into()],
            vec![ping, Label::EMPTY],
        ))
        .unwrap();
        let d2 = m.take_delta();
        assert!(!d2.initial_changed);
        let (info, carry) = cache
            .recompose(std::slice::from_ref(&m), &[d2], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Incremental);
        let carry = carry.unwrap();
        assert!(info.reused_states > 0, "{info:?}");
        assert!(carry.carried() > 0, "{carry:?}");
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));

        // And one more regular step out of the refusing state.
        let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
        m.learn(&Observation::regular(
            vec!["start".into(), "started".into(), "done".into()],
            vec![ping, pong],
        ))
        .unwrap();
        let d3 = m.take_delta();
        let (info, carry) = cache
            .recompose(std::slice::from_ref(&m), &[d3], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Incremental);
        assert!(carry.is_some());
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
    }

    #[test]
    fn empty_delta_is_a_no_op_with_full_carry() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut m = legacy(&u);
        let mut cache = CompositionCache::new(&ctx);
        let opts = ComposeOptions::default();
        let d = m.take_delta();
        cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        let before = cache.composition().automaton.clone();
        let (info, carry) = cache
            .recompose(
                std::slice::from_ref(&m),
                &[LearnDelta::default()],
                None,
                &opts,
                true,
            )
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Incremental);
        assert_eq!(info.dirty_states, 0);
        let carry = carry.unwrap();
        assert_eq!(carry.carried(), before.state_count());
        for (old, new) in carry.remap.iter().enumerate() {
            assert_eq!(*new, Some(old as u32));
        }
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
    }

    #[test]
    fn threshold_zero_forces_cold_fallback() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut m = legacy(&u);
        let mut cache = CompositionCache::new(&ctx);
        cache.set_threshold(0.0);
        let opts = ComposeOptions::default();
        let d = m.take_delta();
        cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
        m.learn(&Observation::blocked(vec!["start".into()], vec![ping]))
            .unwrap();
        let d = m.take_delta();
        let (info, carry) = cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Cold);
        assert!(carry.is_none());
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
    }

    #[test]
    fn initial_growth_forces_cold_rebuild() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut m = legacy(&u);
        let mut cache = CompositionCache::new(&ctx);
        let opts = ComposeOptions::default();
        let d = m.take_delta();
        cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        // An observation starting in a *new* state grows Q.
        let pong = Label::new(SignalSet::EMPTY, u.signals(["pong"]));
        m.learn(&Observation::regular(
            vec!["alt".into(), "start".into()],
            vec![pong],
        ))
        .unwrap();
        let d = m.take_delta();
        assert!(d.initial_changed);
        let (info, _) = cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Cold);
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
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
                .map(|t| (t.guard.clone(), fresh.state_name(t.to).to_owned()))
                .collect();
            let mut patched_row: Vec<(Guard, String)> = patched
                .transitions_from(p)
                .iter()
                .map(|t| (t.guard.clone(), patched.state_name(t.to).to_owned()))
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
    fn set_threshold_rejects_nan_and_clamps() {
        let u = Universe::new();
        let ctx = context(&u);
        let mut cache = CompositionCache::new(&ctx);
        assert_eq!(cache.threshold(), 0.5);
        // NaN would make `dirty > threshold * states` vacuously false,
        // permanently disabling the cold fallback — it must be ignored.
        cache.set_threshold(f64::NAN);
        assert_eq!(cache.threshold(), 0.5);
        cache.set_threshold(-3.0);
        assert_eq!(cache.threshold(), 0.0);
        cache.set_threshold(7.5);
        assert_eq!(cache.threshold(), 1.0);
        cache.set_threshold(0.25);
        assert_eq!(cache.threshold(), 0.25);
        cache.set_threshold(f64::NAN);
        assert_eq!(cache.threshold(), 0.25);
    }

    #[test]
    fn nan_threshold_cannot_disable_cold_fallback() {
        let u = Universe::new();
        let mut m = legacy(&u);
        let ctx = context(&u);
        let opts = ComposeOptions::default();
        let mut cache = CompositionCache::new(&ctx);
        cache.set_threshold(f64::NAN);
        cache.set_threshold(0.0); // force-cold still works after a NaN attempt
        let _ = m.take_delta();
        let (info, _) = cache
            .recompose(
                std::slice::from_ref(&m),
                &[LearnDelta::default()],
                None,
                &opts,
                true,
            )
            .unwrap();
        assert_eq!(info.mode, RecomposeMode::Cold);
        let ping = Label::new(u.signals(["ping"]), SignalSet::EMPTY);
        m.learn(&Observation::blocked(vec!["start".into()], vec![ping]))
            .unwrap();
        let d = m.take_delta();
        let (info, _) = cache
            .recompose(std::slice::from_ref(&m), &[d], None, &opts, true)
            .unwrap();
        // With threshold 0.0 every dirty recompose must fall back cold.
        assert_eq!(info.mode, RecomposeMode::Cold);
        assert_products_identical(cache.composition(), &cold_oracle(&u, &ctx, &m));
    }
}
