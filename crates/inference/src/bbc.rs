//! Black-box checking / adaptive model checking (Peled, Vardi, Yannakakis;
//! Groce, Peled, Yannakakis — the combined learning+checking baselines of
//! Section 6).
//!
//! The black box is learned with `L*`; each hypothesis is model checked
//! against the context and the required properties **before** asking a
//! (costly) conformance equivalence query:
//!
//! * a counterexample of the check is executed on the real component —
//!   confirmed means a real fault; refuted means the hypothesis is wrong
//!   and the trace doubles as an equivalence counterexample;
//! * only when the check passes is the W-method conformance suite run; if
//!   it finds no difference (up to the state bound) the property is
//!   declared verified.
//!
//! Contrast with `muml_core::verify_integration` (the paper's approach):
//! black-box checking learns an *under*-approximation and needs the
//! conformance suite — exponential in the state-bound gap — to justify a
//! "verified" verdict, whereas the paper's over-approximating closure needs
//! no equivalence check at all.

use muml_automata::{compose2, Automaton, Label, SignalSet, Universe};
use muml_logic::{check_all, Formula, Verdict};

use crate::lstar::{learn, EquivalenceOracle, LstarLimits};
use crate::mealy::MealyMachine;
use crate::oracle::{ComponentOracle, LearnStats};
use crate::wmethod::WMethodOracle;

/// Configuration for [`black_box_check`].
#[derive(Debug, Clone)]
pub struct BbcConfig {
    /// Assumed bound on the target's state count (for the conformance
    /// suite).
    pub max_states: usize,
    /// Cap on learning rounds.
    pub max_rounds: usize,
}

impl Default for BbcConfig {
    fn default() -> Self {
        BbcConfig {
            max_states: 16,
            max_rounds: 200,
        }
    }
}

/// The verdict of a black-box checking run.
#[derive(Debug, Clone)]
pub enum BbcVerdict {
    /// All properties hold for the learned model, and conformance testing
    /// up to the state bound found no difference to the black box.
    Verified,
    /// A property violation was confirmed on the real component.
    RealFault {
        /// The confirmed composed counterexample trace.
        trace: Vec<Label>,
        /// The violated property (rendered).
        property: String,
    },
    /// The round cap was exhausted without a verdict.
    Inconclusive,
}

/// The result of [`black_box_check`].
#[derive(Debug, Clone)]
pub struct BbcResult {
    /// The verdict.
    pub verdict: BbcVerdict,
    /// Learning cost counters.
    pub stats: LearnStats,
    /// Refinement rounds used.
    pub rounds: usize,
    /// States of the final hypothesis.
    pub hypothesis_states: usize,
}

struct CheckingOracle<'c> {
    u: Universe,
    context: &'c Automaton,
    properties: &'c [Formula],
    /// The component's declared interface.
    interface: (SignalSet, SignalSet),
    conformance: WMethodOracle,
    fault: Option<(Vec<Label>, String)>,
    error: Option<String>,
}

impl CheckingOracle<'_> {
    fn check_hypothesis(
        &mut self,
        oracle: &mut ComponentOracle<'_>,
        hyp: &MealyMachine,
    ) -> Result<Option<Vec<SignalSet>>, String> {
        let hyp_auto = hyp.to_automaton(&self.u, "hypothesis", self.interface);
        let comp = compose2(self.context, &hyp_auto).map_err(|e| e.to_string())?;
        let mut props: Vec<Formula> = self.properties.to_vec();
        props.push(Formula::deadlock_free());
        let verdict = check_all(&comp.automaton, &props).map_err(|e| e.to_string())?;
        let cex = match verdict {
            Verdict::Holds => {
                // Property holds for the hypothesis — justify it by
                // conformance testing up to the bound.
                return Ok(self.conformance.find_counterexample(oracle, hyp));
            }
            Verdict::Violated(c) => c,
        };
        let idx = comp
            .component_index("hypothesis")
            .expect("hypothesis is a component");
        let proj = comp.project_run(&cex.run, idx);
        let word: Vec<SignalSet> = proj.labels.iter().map(|l| l.inputs).collect();
        let predicted: Vec<SignalSet> = proj.labels.iter().map(|l| l.outputs).collect();
        if word.iter().any(|a| !hyp.alphabet.contains(a)) {
            return Err("context offers an input outside the learning alphabet".into());
        }
        let real = oracle.query(&word);
        if let Some(k) = real.iter().zip(&predicted).position(|(a, b)| a != b) {
            // Hypothesis wrong along the trace: refine.
            return Ok(Some(word[..=k].to_vec()));
        }
        // Trace confirmed. For a deadlock counterexample, probe the context
        // offers at the final state (a totally-learned hypothesis answers
        // deterministically, so real == predicted everywhere means the
        // context genuinely rejects every real response).
        let deadlock = cex.violated == Formula::deadlock_free();
        if deadlock {
            let final_state = cex.run.last_state();
            let ctx_state = comp.component_state(final_state, 0);
            let (hyp_in, _) = (hyp_auto.inputs(), hyp_auto.outputs());
            let mut offers: Vec<SignalSet> = Vec::new();
            for t in self.context.transitions_from(ctx_state) {
                let offered = self
                    .context
                    .guard(t.guard)
                    .output_support()
                    .intersection(hyp_in);
                if !offers.contains(&offered) {
                    offers.push(offered);
                }
            }
            for offered in offers {
                if !hyp.alphabet.contains(&offered) {
                    return Err("context offers an input outside the learning alphabet".into());
                }
                let mut probe = word.clone();
                probe.push(offered);
                let real = oracle.query(&probe);
                let predicted = hyp.run(&probe);
                if let Some(k) = real.iter().zip(&predicted).position(|(a, b)| a != b) {
                    return Ok(Some(probe[..=k].to_vec()));
                }
            }
        }
        self.fault = Some((cex.run.labels.clone(), cex.violated.show(&self.u)));
        Ok(None) // stop learning — fault recorded
    }
}

impl EquivalenceOracle for CheckingOracle<'_> {
    fn find_counterexample(
        &mut self,
        oracle: &mut ComponentOracle<'_>,
        hyp: &MealyMachine,
    ) -> Option<Vec<SignalSet>> {
        if self.fault.is_some() || self.error.is_some() {
            return None;
        }
        match self.check_hypothesis(oracle, hyp) {
            Ok(r) => r,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Runs black-box checking: learn the component over `alphabet`, model
/// checking every hypothesis against `context ∥ hypothesis ⊨ properties ∧
/// ¬δ`.
///
/// # Errors
///
/// Returns a rendered error string for kernel/checker failures or alphabet
/// mismatches.
pub fn black_box_check(
    u: &Universe,
    context: &Automaton,
    properties: &[Formula],
    component: &mut dyn muml_legacy::LegacyComponent,
    alphabet: Vec<SignalSet>,
    config: &BbcConfig,
) -> Result<BbcResult, String> {
    let interface = component.interface();
    let mut oracle = ComponentOracle::new(component);
    let mut checking = CheckingOracle {
        u: u.clone(),
        context,
        properties,
        interface,
        conformance: WMethodOracle::new(config.max_states),
        fault: None,
        error: None,
    };
    let res = learn(
        &mut oracle,
        alphabet,
        &mut checking,
        &LstarLimits {
            max_rounds: config.max_rounds,
            ..LstarLimits::default()
        },
    );
    if let Some(e) = checking.error {
        return Err(e);
    }
    let verdict = match checking.fault {
        Some((trace, property)) => BbcVerdict::RealFault { trace, property },
        None if res.converged => BbcVerdict::Verified,
        None => BbcVerdict::Inconclusive,
    };
    Ok(BbcResult {
        verdict,
        stats: oracle.stats,
        rounds: res.rounds,
        hypothesis_states: res.hypothesis.state_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_automata::AutomatonBuilder;
    use muml_legacy::MealyBuilder;
    use muml_logic::parse;

    fn controller(u: &Universe) -> Automaton {
        AutomatonBuilder::new(u, "ctx")
            .output("cmd")
            .input("ack")
            .state("send")
            .initial("send")
            .state("wait")
            .prop("wait", "ctx.wait")
            .transition("send", [], ["cmd"], "wait")
            .transition("wait", ["ack"], [], "send")
            .build()
            .unwrap()
    }

    fn alphabet(u: &Universe) -> Vec<SignalSet> {
        vec![SignalSet::EMPTY, u.signals(["cmd"])]
    }

    #[test]
    fn verifies_conforming_component() {
        let u = Universe::new();
        let ctx = controller(&u);
        let mut c = MealyBuilder::new(&u, "legacy")
            .input("cmd")
            .output("ack")
            .state("idle")
            .initial("idle")
            .state("got")
            .rule("idle", ["cmd"], [], "got")
            .rule("got", [], ["ack"], "idle")
            .build()
            .unwrap();
        let res = black_box_check(
            &u,
            &ctx,
            &[],
            &mut c,
            alphabet(&u),
            &BbcConfig {
                max_states: 2,
                max_rounds: 50,
            },
        )
        .unwrap();
        assert!(matches!(res.verdict, BbcVerdict::Verified), "{res:?}");
        assert_eq!(res.hypothesis_states, 2);
        assert!(res.stats.membership_queries > 0);
    }

    #[test]
    fn finds_real_deadlock() {
        let u = Universe::new();
        let ctx = controller(&u);
        // implements the port (ack is part of its interface) but never
        // actually acknowledges
        let mut c = MealyBuilder::new(&u, "legacy")
            .input("cmd")
            .output("ack")
            .state("idle")
            .initial("idle")
            .build()
            .unwrap();
        let res = black_box_check(
            &u,
            &ctx,
            &[],
            &mut c,
            alphabet(&u),
            &BbcConfig {
                max_states: 2,
                max_rounds: 50,
            },
        )
        .unwrap();
        match res.verdict {
            BbcVerdict::RealFault { property, .. } => {
                assert!(property.contains("deadlock"));
            }
            v => panic!("expected fault, got {v:?}"),
        }
    }

    #[test]
    fn finds_property_violation() {
        let u = Universe::new();
        let ctx = controller(&u);
        // acknowledges immediately in the same period as cmd — the context
        // expects the ack one period later, so `ctx.wait` is never left…
        // actually: simultaneous ack is not received (handshake), deadlock.
        // Use a property on the context instead: `AG !ctx.wait` is violated
        // by any component that lets the protocol advance.
        let mut c = MealyBuilder::new(&u, "legacy")
            .input("cmd")
            .output("ack")
            .state("idle")
            .initial("idle")
            .state("got")
            .rule("idle", ["cmd"], [], "got")
            .rule("got", [], ["ack"], "idle")
            .build()
            .unwrap();
        let res = black_box_check(
            &u,
            &ctx,
            &[parse(&u, "AG !ctx.wait").unwrap()],
            &mut c,
            alphabet(&u),
            &BbcConfig {
                max_states: 2,
                max_rounds: 50,
            },
        )
        .unwrap();
        match res.verdict {
            BbcVerdict::RealFault { property, trace } => {
                assert!(property.contains("ctx.wait"));
                assert_eq!(trace.len(), 1);
            }
            v => panic!("expected fault, got {v:?}"),
        }
    }
}
