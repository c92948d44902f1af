//! Rendering of counterexamples and integration reports in the paper's
//! listing style.
//!
//! Listing 1.1 of the paper renders a counterexample as alternating lines
//! of composed states and messages:
//!
//! ```text
//! shuttle1.noConvoy, shuttle2.s_all,
//! shuttle2.convoyProposal!, shuttle1.convoyProposal?
//! …
//! ```
//!
//! [`render_listing`] reproduces this format from a run of a
//! [`Composition`]: component states are joined with `, `, sent signals are
//! suffixed `!`, received signals `?`.

use std::fmt::Write as _;

use muml_automata::{Composition, Run, Universe};

use crate::driver::{IntegrationReport, IterationOutcome};

/// Renders a run of a composition in the Listing-1.1 style.
pub fn render_listing(comp: &Composition, run: &Run, u: &Universe) -> String {
    let mut out = String::new();
    let state_line = |s: muml_automata::StateId| -> String {
        comp.automaton
            .state_name(s)
            .split("||")
            .zip(&comp.component_names)
            .map(|(st, comp_name)| {
                // Chaotic-closure copies `name#0` / `name#1` render as the
                // plain state name, as in the paper's listings.
                let st = st
                    .strip_suffix("#0")
                    .or(st.strip_suffix("#1"))
                    .unwrap_or(st);
                format!("{comp_name}.{st}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (i, label) in run.labels.iter().enumerate() {
        let _ = writeln!(out, "{}", state_line(run.states[i]));
        let mut msgs: Vec<String> = Vec::new();
        for sig in label.outputs.iter() {
            if let Some((k, _)) = comp
                .interfaces
                .iter()
                .enumerate()
                .find(|(_, (_, outs))| outs.contains(sig))
            {
                msgs.push(format!(
                    "{}.{}!",
                    comp.component_names[k],
                    u.signal_name(sig)
                ));
            }
        }
        for sig in label.inputs.iter() {
            if let Some((k, _)) = comp
                .interfaces
                .iter()
                .enumerate()
                .find(|(_, (ins, _))| ins.contains(sig))
            {
                msgs.push(format!(
                    "{}.{}?",
                    comp.component_names[k],
                    u.signal_name(sig)
                ));
            }
        }
        if !msgs.is_empty() {
            let _ = writeln!(out, "{}", msgs.join(", "));
        }
    }
    if let Some(&last) = run.states.last() {
        let _ = writeln!(out, "{}", state_line(last));
    }
    out
}

/// Renders an [`IntegrationReport`] as the per-iteration narrative of
/// Figure 2 (synthesize → check → test → learn).
pub fn render_report(report: &IntegrationReport) -> String {
    let mut out = String::new();
    for rec in &report.iterations {
        let know: Vec<String> = rec
            .knowledge
            .iter()
            .map(|(s, t, r)| format!("{s} states/{t} trans/{r} refusals"))
            .collect();
        let _ = write!(
            out,
            "iteration {}: knowledge [{}], composed {} states — ",
            rec.index,
            know.join("; "),
            rec.composed_states
        );
        match &rec.outcome {
            IterationOutcome::Proven => {
                let _ = writeln!(out, "all properties hold: PROVEN");
            }
            IterationOutcome::Refuted {
                component,
                divergence,
            } => {
                let _ = writeln!(
                    out,
                    "counterexample for {} refuted by testing ({} diverged at step {}), learned",
                    rec.violated.as_deref().unwrap_or("?"),
                    component,
                    divergence
                );
            }
            IterationOutcome::FrontierLearned { component, probes } => {
                let _ = writeln!(
                    out,
                    "deadlock trace confirmed but artefactual; {probes} frontier probe(s) on {component} learned new behaviour"
                );
            }
            IterationOutcome::Fault => {
                let _ = writeln!(
                    out,
                    "counterexample for {} CONFIRMED on the real component: REAL FAULT",
                    rec.violated.as_deref().unwrap_or("?")
                );
            }
            IterationOutcome::Quarantined { component } => {
                let _ = writeln!(
                    out,
                    "testing on {} stayed inconclusive despite retries; counterexample quarantined",
                    component
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "stats: {} iterations, peak {} composed states, {} tests, {} steps driven",
        report.stats.iterations,
        report.stats.peak_composed_states,
        report.stats.tests_executed,
        report.stats.test_steps
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_automata::{compose2, AutomatonBuilder, Run, Universe};

    #[test]
    fn listing_renders_states_and_messages() {
        let u = Universe::new();
        let a = AutomatonBuilder::new(&u, "shuttle1")
            .output("ping")
            .state("noConvoy")
            .initial("noConvoy")
            .state("answer")
            .transition("noConvoy", [], ["ping"], "answer")
            .build()
            .unwrap();
        let b = AutomatonBuilder::new(&u, "shuttle2")
            .input("ping")
            .state("s_all")
            .initial("s_all")
            .transition("s_all", ["ping"], [], "s_all")
            .build()
            .unwrap();
        let comp = compose2(&a, &b).unwrap();
        let m = &comp.automaton;
        let init = m.initial_states()[0];
        let l = m
            .guard(m.transitions_from(init)[0].guard)
            .as_exact()
            .unwrap();
        let next = m.successors(init, l)[0];
        let run = Run::regular(vec![init, next], vec![l]);
        let text = render_listing(&comp, &run, &u);
        assert!(text.contains("shuttle1.noConvoy, shuttle2.s_all"));
        assert!(text.contains("shuttle1.ping!"));
        assert!(text.contains("shuttle2.ping?"));
        assert!(text.contains("shuttle1.answer"));
    }
}
