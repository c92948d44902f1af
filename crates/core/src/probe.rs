//! Frontier probing for confirmed deadlock counterexamples.
//!
//! A deadlock trace that the components fully realize does not by itself
//! prove a real deadlock: the trace may merely have run into the chaotic
//! `s_δ`, or into a pessimistic `(s,0)` copy that blocks *unknown*
//! interactions. The probe resolves the ambiguity by experiment:
//!
//! 1. For every legacy component `i`, take the product of the *rest* of the
//!    system (context + the other components' closures) and move the other
//!    closures to their **optimistic** siblings (`(s,1)` instead of
//!    `(s,0)`, `s_∀` instead of `s_δ`) — an over-approximation of what the
//!    environment of `i` could offer. That product is kept across the
//!    run's probes ([`RestProducts`]) and expanded only as far as the
//!    probed configuration needs.
//! 2. Collect the input sets that environment can offer to `i` in the
//!    deadlocked configuration, drive `i` one step beyond the confirmed
//!    prefix with each, and learn the observed response (Definitions
//!    11/12).
//! 3. If probing produced new knowledge, the loop simply continues with the
//!    refined models. If **nothing new** was learned, every component's
//!    response to every possibly-offered input at its frontier state is
//!    already known — so the question "does a joint step exist at this
//!    configuration?" is decidable **exactly** from the known behaviour:
//!    a one-step composition of the context (at its deadlock state) with
//!    each component's *known* transitions (at its real frontier state,
//!    read back via replay) either yields a step (the deadlock was an
//!    artefact — possibly resolved by learning earlier in the same batched
//!    iteration) or provably cannot (a **real** deadlock, reported as a
//!    fault).
//!
//! The new-knowledge criterion keeps Theorem 2's termination argument
//! intact; the known-only joint-step check keeps verdicts exact even for
//! stale counterexamples (`IntegrationConfig::batch_counterexamples`) and
//! for multi-legacy configurations where a chaotic sibling could otherwise
//! fake acceptance.

use std::borrow::Cow;

use muml_automata::{
    compose, Automaton, ComposeOptions, Composition, Guard, IncompleteAutomaton, Label,
    LazyProduct, Run, SignalSet, StateId, Universe, S_ALL, S_DELTA,
};
use muml_legacy::TestVerdict;
use muml_obs::EventSink;

use crate::driver::{IntegrationConfig, IntegrationStats, LegacyUnit, TestHarness};
use crate::error::CoreError;
use crate::initial::apply_props;

/// Result of a probe round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FrontierResult {
    /// New knowledge was learned; the deadlock may be an artefact.
    Progress {
        /// The first component that contributed new knowledge.
        component: String,
        /// Total probe executions across all components.
        probes: usize,
    },
    /// Nothing new was learned, but at least one probe (or frontier-state
    /// read-back) could not reach a conclusive verdict within the retry
    /// budget — the deadlock question cannot be decided from this round.
    Inconclusive {
        /// The first component whose probe stayed inconclusive.
        component: String,
        /// Total probe executions across all components.
        probes: usize,
    },
    /// No probe learned anything new — the deadlock is real.
    RealDeadlock {
        /// Total probe executions across all components.
        probes: usize,
    },
}

/// The products frontier probing reads its offers from: for every legacy
/// unit `i`, the product of the context with the other units' closures
/// (the *rest of the system*), kept across a run's probes.
///
/// Each product is a [`LazyProduct`] that is expanded only until the probed
/// configuration is interned, and its rows stay expanded for later probes.
/// With one legacy unit the rest of the system is the context alone, which
/// never changes during a run, so one product serves every probe of the
/// run. With several units a product owns snapshots of the sibling
/// closures it was built from and is rebuilt when one of them has changed.
pub(crate) struct RestProducts<'c> {
    context: &'c Automaton,
    products: Vec<Option<LazyProduct<'c>>>,
}

impl<'c> RestProducts<'c> {
    /// No products yet, for a run over `context` with `units` legacy units.
    pub(crate) fn new(context: &'c Automaton, units: usize) -> Self {
        RestProducts {
            context,
            products: (0..units).map(|_| None).collect(),
        }
    }

    /// The input sets the rest of the system offers unit `i` at the
    /// product configuration `tuple` (context state first, then the
    /// sibling closure states in unit order), deduplicated in row order —
    /// or `None` if that configuration is unreachable. `closures` are the
    /// current closures of all units. Adds the rows this call expanded to
    /// `rows_expanded`.
    ///
    /// # Errors
    ///
    /// Composition errors of the rest-of-system product.
    pub(crate) fn offers(
        &mut self,
        i: usize,
        closures: &[&Automaton],
        tuple: &[u32],
        own_in: SignalSet,
        opts: &ComposeOptions,
        rows_expanded: &mut usize,
    ) -> Result<Option<Vec<SignalSet>>, CoreError> {
        let siblings = || {
            closures
                .iter()
                .enumerate()
                .filter(move |&(j, _)| j != i)
                .map(|(_, &c)| c)
        };
        let stale = match &self.products[i] {
            Some(product) => !product.parts().skip(1).eq(siblings()),
            None => true,
        };
        if stale {
            let parts = std::iter::once(Cow::Borrowed(self.context))
                .chain(siblings().map(|c| Cow::Owned(c.clone())))
                .collect();
            self.products[i] = Some(LazyProduct::from_parts(parts, opts)?);
        }
        let product = self.products[i].as_mut().expect("built above");
        let before = product.expanded_rows();
        let located = product.locate(tuple)?;
        if let Some(s) = located {
            product.expand_row(s)?;
        }
        *rows_expanded += product.expanded_rows() - before;
        Ok(located.map(|s| {
            let mut offers: Vec<SignalSet> = Vec::new();
            for guard in product.row_guards(s) {
                let offered = match guard {
                    Guard::Exact(l) => l.outputs.intersection(own_in),
                    Guard::Family(f) => f.out_must.intersection(own_in),
                };
                if !offers.contains(&offered) {
                    offers.push(offered);
                }
            }
            offers
        }))
    }
}

/// Maps a closure state to its optimistic sibling: `name#0 → name#1`,
/// `s_δ → s_∀`; already-optimistic states map to themselves.
fn optimistic_sibling(closure: &Automaton, s: StateId) -> StateId {
    let name = closure.state_name(s);
    if name == S_DELTA {
        return closure.find_state(S_ALL).unwrap_or(s);
    }
    if let Some(base) = name.strip_suffix("#0") {
        return closure.find_state(&format!("{base}#1")).unwrap_or(s);
    }
    s
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_frontier(
    u: &Universe,
    rest: &mut RestProducts<'_>,
    closures: &[&Automaton],
    comp: &Composition,
    dead_run: &Run,
    projections: &[Vec<Label>],
    units: &mut [LegacyUnit<'_>],
    learned: &mut [IncompleteAutomaton],
    stats: &mut IntegrationStats,
    config: &IntegrationConfig,
    sink: &mut dyn EventSink,
    iteration: usize,
    harness: &mut TestHarness,
) -> Result<FrontierResult, CoreError> {
    let dead = dead_run.last_state();
    let dead_tuple = comp.tuple(dead);
    let knowledge_before: usize = learned
        .iter()
        .map(|m| m.transition_count() + m.refusal_count() + m.state_count())
        .sum();
    let mut first_learner: Option<String> = None;
    let mut first_inconclusive: Option<String> = None;
    let mut total_probes = 0usize;

    for (i, unit) in units.iter_mut().enumerate() {
        let (own_in, _own_out) = unit.component.interface();
        // The configuration of everything except component i, with the
        // other closures moved to their optimistic states.
        let mut proj_tuple: Vec<u32> = vec![dead_tuple[0]];
        for (j, &c) in closures.iter().enumerate() {
            if j != i {
                proj_tuple.push(optimistic_sibling(c, StateId(dead_tuple[j + 1])).0);
            }
        }
        // Offered inputs to component i, deduplicated.
        let Some(offers) = rest.offers(
            i,
            closures,
            &proj_tuple,
            own_in,
            &ComposeOptions::default(),
            &mut stats.probe_rows_expanded,
        )?
        else {
            continue; // optimistic configuration unreachable: skip
        };

        let name = unit.component.name().to_owned();
        // Drive the confirmed prefix plus one step with each offered input
        // as one batch: the harness resumes every probe from the shared
        // prefix checkpoint (and runs independent probes on the pool), with
        // one report per offer in offer order — semantically one execution
        // per offer, exactly as the serial loop did. The expected output ∅
        // is a guess — the observation reveals the real response either way
        // (confirmed and diverged verdicts are equally informative for a
        // probe).
        let reports = harness.probe(
            i,
            unit.component,
            &projections[i],
            &offers,
            u,
            &unit.ports,
            &config.retry,
            stats,
            sink,
            iteration,
        );
        for rr in reports {
            let before = learned[i].transition_count()
                + learned[i].refusal_count()
                + learned[i].state_count();
            total_probes += 1;
            let outcome = match rr.outcome {
                Some(o) if rr.verdict.is_conclusive() => o,
                _ => {
                    // The probe never stabilised: skip learning (never feed
                    // the learner an unconfirmed observation) and remember
                    // the component for the verdict below.
                    if first_inconclusive.is_none() {
                        first_inconclusive = Some(name.clone());
                    }
                    continue;
                }
            };
            stats.test_steps += outcome.observation.labels.len();
            learned[i]
                .learn(&outcome.observation)
                .map_err(CoreError::Learning)?;
            if let Some(refusal) = &outcome.refusal {
                learned[i].learn(refusal).map_err(CoreError::Learning)?;
            }
            apply_props(u, &mut learned[i], &unit.prop_mapper);
            let after = learned[i].transition_count()
                + learned[i].refusal_count()
                + learned[i].state_count();
            if after > before && first_learner.is_none() {
                first_learner = Some(name.clone());
            }
        }
    }

    let knowledge_after: usize = learned
        .iter()
        .map(|m| m.transition_count() + m.refusal_count() + m.state_count())
        .sum();
    if knowledge_after > knowledge_before {
        return Ok(FrontierResult::Progress {
            component: first_learner.unwrap_or_else(|| "?".to_owned()),
            probes: total_probes,
        });
    }
    if let Some(component) = first_inconclusive {
        // No growth, and at least one probe never stabilised: the
        // "every relevant response is known" premise of the exact
        // joint-step check does not hold, so no real-deadlock verdict
        // may be issued from this round.
        return Ok(FrontierResult::Inconclusive {
            component,
            probes: total_probes,
        });
    }
    // Nothing new learned: every relevant response is known, so decide the
    // joint-step question exactly from the known behaviour. The frontier
    // state is read back through the retrying executor as well — a raw
    // reset-and-step walk could silently land in the wrong state on a
    // flaky rig, and the verdict below must be exact.
    let mut frontier_states: Vec<String> = Vec::with_capacity(units.len());
    for (i, unit) in units.iter_mut().enumerate() {
        let name = unit.component.name().to_owned();
        let rr = harness.execute(
            i,
            unit.component,
            &projections[i],
            u,
            &unit.ports,
            &config.retry,
            stats,
            sink,
            iteration,
        );
        if !matches!(rr.verdict, TestVerdict::Confirmed) {
            // The previously-confirmed prefix no longer replays cleanly —
            // on a reliable rig this cannot happen, so treat it as rig
            // trouble rather than guessing a frontier state.
            return Ok(FrontierResult::Inconclusive {
                component: name,
                probes: total_probes,
            });
        }
        // The frontier state comes from the confirmed observation, not
        // from the live component: a cache hit synthesizes the verdict
        // without re-driving the rig, so the component may be stale.
        let state = rr
            .outcome
            .as_ref()
            .and_then(|o| o.observation.states.last())
            .cloned();
        match state {
            Some(s) => frontier_states.push(s),
            None => {
                return Ok(FrontierResult::Inconclusive {
                    component: name,
                    probes: total_probes,
                })
            }
        }
    }
    if joint_step_exists(
        u,
        rest.context,
        StateId(dead_tuple[0]),
        learned,
        &frontier_states,
    )? {
        Ok(FrontierResult::Progress {
            component: "resolved by earlier learning".to_owned(),
            probes: total_probes,
        })
    } else {
        Ok(FrontierResult::RealDeadlock {
            probes: total_probes,
        })
    }
}

/// Decides whether a joint step exists at the configuration
/// `(ctx_state, frontier_states…)` using only the components' *known*
/// transitions. Builds one-step automata (the configuration state with its
/// outgoing transitions, all retargeted to a sink) and composes them: the
/// composed initial state has an outgoing transition iff a joint step
/// exists.
fn joint_step_exists(
    u: &Universe,
    context: &Automaton,
    ctx_state: StateId,
    learned: &[IncompleteAutomaton],
    frontier_states: &[String],
) -> Result<bool, CoreError> {
    use muml_automata::AutomatonBuilder;

    // Context slice: its deadlock-configuration state with real transitions
    // retargeted to an absorbing sink.
    let mut slice_parts: Vec<Automaton> = Vec::with_capacity(learned.len() + 1);
    {
        let mut b = AutomatonBuilder::new(u, "ctx@dead");
        for sig in context.inputs().iter() {
            b = b.input(&u.signal_name(sig));
        }
        for sig in context.outputs().iter() {
            b = b.output(&u.signal_name(sig));
        }
        b = b.state("here").initial("here").state("sink");
        let mut ctx_slice = b.build().map_err(CoreError::Automata)?;
        let sink = ctx_slice.find_state("sink").expect("just added");
        let here = ctx_slice.find_state("here").expect("just added");
        let retargeted = context
            .transitions_from(ctx_state)
            .iter()
            .map(|t| (context.guard(t.guard).clone(), sink));
        ctx_slice.replace_transitions(here, retargeted);
        slice_parts.push(ctx_slice);
    }
    for (m, state_name) in learned.iter().zip(frontier_states) {
        let mut b = AutomatonBuilder::new(u, &format!("{}@dead", m.name()));
        for sig in m.inputs().iter() {
            b = b.input(&u.signal_name(sig));
        }
        for sig in m.outputs().iter() {
            b = b.output(&u.signal_name(sig));
        }
        b = b.state("here").initial("here").state("sink");
        let mut slice = b.build().map_err(CoreError::Automata)?;
        let sink = slice.find_state("sink").expect("just added");
        let here = slice.find_state("here").expect("just added");
        let transitions: Vec<(Guard, StateId)> = match m.find_state(state_name) {
            Some(s) => m
                .transitions_from(s)
                .iter()
                .map(|&(l, _)| (Guard::Exact(l), sink))
                .collect(),
            None => Vec::new(), // frontier state never observed: no known step
        };
        slice.replace_transitions(here, transitions);
        slice_parts.push(slice);
    }
    let refs: Vec<&Automaton> = slice_parts.iter().collect();
    let comp = compose(&refs, &ComposeOptions::default())?;
    let init = comp.automaton.initial_states()[0];
    Ok(!comp.automaton.transitions_from(init).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_automata::{chaotic_closure, AutomatonBuilder, Observation};

    /// The offers of the rest of the system at `tuple`, read the way
    /// probing read them before its products were kept across the run: a
    /// fresh `compose` per probe and a scan of its origin tuples.
    fn fresh_offers(
        parts: &[&Automaton],
        tuple: &[u32],
        own_in: SignalSet,
    ) -> Option<Vec<SignalSet>> {
        let comp = compose(parts, &ComposeOptions::default()).unwrap();
        let s = comp
            .automaton
            .state_ids()
            .find(|&s| comp.tuple(s) == tuple)?;
        let mut offers: Vec<SignalSet> = Vec::new();
        for t in comp.automaton.transitions_from(s) {
            let offered = match comp.automaton.guard(t.guard) {
                Guard::Exact(l) => l.outputs.intersection(own_in),
                Guard::Family(f) => f.out_must.intersection(own_in),
            };
            if !offers.contains(&offered) {
                offers.push(offered);
            }
        }
        Some(offers)
    }

    /// Reads every configuration of every unit's rest of the system (the
    /// unreachable ones included) through `rest` and compares it with a
    /// fresh composition. Returns the rows each unit's product expanded.
    fn offers_match_fresh_compose(
        rest: &mut RestProducts<'_>,
        ctx: &Automaton,
        learned: &[IncompleteAutomaton; 2],
    ) -> [usize; 2] {
        let closures = learned.each_ref().map(|m| chaotic_closure(m, None));
        let refs: Vec<&Automaton> = closures.iter().collect();
        let mut rows = [0; 2];
        for (i, unit_rows) in rows.iter_mut().enumerate() {
            let sibling = refs[1 - i];
            let own_in = refs[i].inputs();
            for c in 0..ctx.state_count() as u32 {
                for s in 0..sibling.state_count() as u32 {
                    let tuple = [c, s];
                    let offers = rest
                        .offers(
                            i,
                            &refs,
                            &tuple,
                            own_in,
                            &ComposeOptions::default(),
                            unit_rows,
                        )
                        .unwrap();
                    assert_eq!(
                        offers,
                        fresh_offers(&[ctx, sibling], &tuple, own_in),
                        "unit {i} at {tuple:?}"
                    );
                }
            }
        }
        rows
    }

    #[test]
    fn reused_products_offer_what_a_fresh_compose_offers() {
        let u = Universe::new();
        let ctx = AutomatonBuilder::new(&u, "ctx")
            .outputs(["cmd1", "cmd2"])
            .inputs(["ack1", "ack2"])
            .state("s0")
            .initial("s0")
            .state("s1")
            .state("s2")
            .state("s3")
            .transition("s0", [], ["cmd1"], "s1")
            .transition("s1", ["ack1"], ["cmd2"], "s2")
            .transition("s2", ["ack2"], [], "s3")
            .transition("s3", [], ["cmd1"], "s1")
            .build()
            .unwrap();
        let unit = |name: &str, cmd: &str, ack: &str| {
            IncompleteAutomaton::trivial(&u, name, u.signals([cmd]), u.signals([ack]), "idle")
        };
        let mut learned = [unit("l1", "cmd1", "ack1"), unit("l2", "cmd2", "ack2")];
        let mut rest = RestProducts::new(&ctx, 2);

        let first = offers_match_fresh_compose(&mut rest, &ctx, &learned);
        assert!(first.iter().all(|&rows| rows > 0), "{first:?}");
        // Nothing learned: both products are reused and fully expanded.
        assert_eq!(
            offers_match_fresh_compose(&mut rest, &ctx, &learned),
            [0, 0]
        );

        // The second unit learns: the first unit's product is rebuilt from
        // the new sibling closure, the second unit's is still reused.
        let cmd2 = Label::new(u.signals(["cmd2"]), SignalSet::EMPTY);
        learned[1]
            .learn(&Observation::regular(
                vec!["idle".into(), "got".into()],
                vec![cmd2],
            ))
            .unwrap();
        let after = offers_match_fresh_compose(&mut rest, &ctx, &learned);
        assert!(after[0] > 0, "{after:?}");
        assert_eq!(after[1], 0, "{after:?}");

        // And a refusal on the first unit rebuilds only the second's.
        learned[0]
            .learn(&Observation::blocked(
                vec!["idle".into()],
                vec![Label::new(SignalSet::EMPTY, u.signals(["ack1"]))],
            ))
            .unwrap();
        let after = offers_match_fresh_compose(&mut rest, &ctx, &learned);
        assert_eq!(after[0], 0, "{after:?}");
        assert!(after[1] > 0, "{after:?}");
    }
}
