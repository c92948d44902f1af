//! Human-readable rendering of loop events, in the spirit of the paper's
//! listings: one indented line per phase, grouped by iteration.

use crate::event::{LoopEvent, RunOutcome};

pub use crate::sink::Renderer;

fn ms(nanos: u64) -> String {
    format!("{:.2}ms", nanos as f64 / 1.0e6)
}

/// Renders one event as a single display line.
pub fn render_event(event: &LoopEvent) -> String {
    match event {
        LoopEvent::RunStarted {
            components,
            properties,
        } => format!(
            "run: integrating [{}] against {} propert{} + deadlock freedom",
            components.join(", "),
            properties,
            if *properties == 1 { "y" } else { "ies" }
        ),
        LoopEvent::InitialAbstraction {
            component,
            states,
            transitions,
            refusals,
        } => {
            format!("  init {component}: M_l^0 with |Q|={states} |T|={transitions} |T̄|={refusals}")
        }
        LoopEvent::StoreHit {
            component,
            fingerprint,
            states,
            transitions,
            refusals,
            quarantined,
        } => format!(
            "  store hit {component} [{fingerprint}]: seeded |Q|={states} |T|={transitions} \
             |T̄|={refusals}, {quarantined} quarantined"
        ),
        LoopEvent::StoreMiss { component, reason } => {
            format!("  store miss {component}: {reason} — cold start")
        }
        LoopEvent::StoreInvalidated {
            component,
            fingerprint,
            touched_states,
            states,
            transitions,
            refusals,
        } => format!(
            "  store invalidated {component} [{fingerprint}]: {touched_states} touched states \
             dropped, seeded |Q|={states} |T|={transitions} |T̄|={refusals}"
        ),
        LoopEvent::IterationStarted { iteration } => format!("iteration {iteration}:"),
        LoopEvent::Composed {
            iteration: _,
            product_states,
            transitions,
            expanded_labels,
            family_guards,
            nanos,
        } => format!(
            "  compose: {product_states} product states, {transitions} transitions \
             ({expanded_labels} labels expanded, {family_guards} family guards) [{}]",
            ms(*nanos)
        ),
        LoopEvent::Recomposed {
            iteration: _,
            mode,
            dirty_states,
            reused_states,
            spliced_transitions,
        } => format!(
            "  recompose: {mode} ({dirty_states} dirty, {reused_states} reused, \
             {spliced_transitions} spliced)"
        ),
        LoopEvent::ModelChecked {
            iteration: _,
            holds,
            violated,
            fixpoint_iterations,
            labeled_states,
            words_touched,
            worklist_pops,
            peak_resident_sets: _,
            warm_states,
            reseeded_words: _,
            nanos,
        } => {
            let verdict = match (holds, violated) {
                (true, _) => "holds".to_owned(),
                (false, Some(v)) => format!("violates {v}"),
                (false, None) => "fails".to_owned(),
            };
            format!(
                "  check: {verdict} ({fixpoint_iterations} fixpoint iterations, \
                 {labeled_states} states labeled, {words_touched} words, \
                 {worklist_pops} pops, {warm_states} warm) [{}]",
                ms(*nanos)
            )
        }
        LoopEvent::CounterexampleExtracted {
            iteration: _,
            property,
            length,
            deadlock,
        } => format!(
            "  counterexample: {length}-step {}trace for {property}",
            if *deadlock { "deadlock " } else { "" }
        ),
        LoopEvent::ReplayExecuted {
            iteration: _,
            component,
            steps,
            driven_steps,
            divergence,
            nanos,
        } => {
            let verdict = match divergence {
                Some(d) => format!("diverged at step {d}"),
                None => "confirmed".to_owned(),
            };
            format!(
                "  test {component}: {steps} steps, {verdict} ({driven_steps} driven) [{}]",
                ms(*nanos)
            )
        }
        LoopEvent::LearnStep {
            iteration: _,
            component,
            delta_states,
            delta_transitions,
            delta_refusals,
        } => format!(
            "  learn {component}: Δ|Q|={delta_states} Δ|T|={delta_transitions} \
             Δ|T̄|={delta_refusals}"
        ),
        LoopEvent::FrontierProbed {
            iteration: _,
            component,
            probes,
            learned,
            nanos,
        } => format!(
            "  probe {component}: {probes} probes, {} [{}]",
            if *learned {
                "new knowledge"
            } else {
                "nothing new"
            },
            ms(*nanos)
        ),
        LoopEvent::TestRetried {
            iteration: _,
            component,
            attempts,
            replay_errors,
            inconsistent,
            backoff_ticks,
        } => format!(
            "  retry {component}: {attempts} attempts ({replay_errors} replay errors, \
             {inconsistent} inconsistent, {backoff_ticks} ticks backoff)"
        ),
        LoopEvent::RigFault {
            iteration: _,
            component,
            suspected,
        } => format!("  rig-fault {component}: {suspected} attempt(s) rejected"),
        LoopEvent::TraceCacheUsed {
            iteration: _,
            component,
            hits,
            resumes,
            saved_steps,
        } => format!(
            "  trace-cache {component}: {hits} hits, {resumes} resumes, \
             {saved_steps} rig steps saved"
        ),
        LoopEvent::CexDeduped {
            iteration: _,
            component,
            divergence,
        } => format!(
            "  dedup {component}: counterexample already diverged at step {divergence}, \
             test skipped"
        ),
        LoopEvent::Quarantined {
            iteration: _,
            component,
            property,
            quarantined_total,
        } => format!(
            "  quarantine {component}: inconclusive test for {property} \
             ({quarantined_total} quarantined total)"
        ),
        LoopEvent::RunFinished {
            iterations,
            outcome,
            nanos,
        } => {
            let verdict = match outcome {
                RunOutcome::Proven => "integration proven correct",
                RunOutcome::RealFault => "real integration fault",
                RunOutcome::IterationLimit => "iteration limit reached",
                RunOutcome::Cancelled => "run cancelled (deadline)",
                RunOutcome::Inconclusive => "inconclusive (flake budget exhausted)",
            };
            format!(
                "result: {verdict} after {iterations} iterations [{}]",
                ms(*nanos)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compactly() {
        let line = render_event(&LoopEvent::LearnStep {
            iteration: 2,
            component: "front".into(),
            delta_states: 1,
            delta_transitions: 2,
            delta_refusals: 3,
        });
        assert_eq!(line, "  learn front: Δ|Q|=1 Δ|T|=2 Δ|T̄|=3");
    }

    #[test]
    fn run_finished_names_the_outcome() {
        let line = render_event(&LoopEvent::RunFinished {
            iterations: 4,
            outcome: RunOutcome::RealFault,
            nanos: 2_000_000,
        });
        assert!(line.contains("real integration fault"), "{line}");
        assert!(line.contains("after 4 iterations"), "{line}");
    }
}
