//! Counterexample-based test execution (Section 4.2 / Section 5).
//!
//! The verification step hands over a counterexample path π restricted to
//! the legacy component: a sequence of expected interactions
//! `(A₁,B₁), (A₂,B₂), …`. The executor drives the real component with the
//! inputs `Aₜ` and compares its outputs against the expected `Bₜ`:
//!
//! * all steps match → the counterexample is **confirmed**: a real
//!   integration fault (Lemma 6 — no false negatives, the trace was
//!   actually executed);
//! * the outputs diverge at step `t` → the counterexample was an artefact
//!   of the over-approximation. The executor returns the *observed*
//!   behaviour (a regular observation, via record + deterministic replay
//!   with state probes) plus a *blocked* observation stating that the
//!   expected interaction `(Aₜ,Bₜ)` is refused in the reached state — the
//!   two learning inputs of Definitions 11 and 12.
//!
//! Each execution drives the component twice, as the paper's monitoring
//! workflow does: a record drive with minimal probes that stops at the
//! first divergence, then the instrumented replay of that recording, which
//! cross-checks every output and period of the drive the verdict comes
//! from.

use muml_automata::{Label, Observation, Universe};

use crate::component::StateObservable;
use crate::monitor::{MonitorTrace, PortMap};
use crate::replay::{record_until, replay, Recording, ReplayError};

/// The outcome of executing an expected trace against the real component.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// `true` iff the component realized the complete expected trace — the
    /// counterexample is real.
    pub confirmed: bool,
    /// The step index at which the outputs diverged, if any.
    pub divergence: Option<usize>,
    /// What actually happened (with state names from replay): learn with
    /// Definition 11.
    pub observation: Observation,
    /// If diverged: the refused expected interaction as a blocked
    /// observation — learn with Definition 12.
    pub refusal: Option<Observation>,
    /// The minimal-probe recording of the record drive (Listing 1.2
    /// artefact).
    pub recording: Recording,
    /// The full-instrumentation replay trace (Listing 1.3 artefact).
    pub monitor: MonitorTrace,
    /// Raw component steps driven by the harness across both drives (the
    /// record drive and the instrumented replay) — the true test cost, as
    /// opposed to the observation's length.
    pub driven_steps: usize,
}

/// Drives `component` with the inputs of `expected` and analyses the
/// outcome. The component is reset before each of its two drives; the
/// record drive stops at the first output divergence.
///
/// # Errors
///
/// [`ReplayError`] if the replay cross-check fails — the component
/// violates the method's determinism assumption. The error carries the rig
/// steps the execution drove, the record drive's included.
pub fn execute_expected_trace(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
) -> Result<TestOutcome, ReplayError> {
    execute_witnessed(component, expected, u, ports, None)
}

/// [`execute_expected_trace`] that, given `witness`, stores in it a clone of
/// the component taken between the record drive and the replay: positioned
/// at the end of the executed word by a drive of its own, one reset before
/// the replay that leaves the component there.
pub(crate) fn execute_witnessed(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
    witness: Option<&mut Option<Box<dyn StateObservable + Send>>>,
) -> Result<TestOutcome, ReplayError> {
    let (recording, divergence) =
        record_until(component, expected.iter().map(|l| l.inputs), |t, out| {
            out != expected[t].outputs
        });
    let executed = recording.steps.len();
    if let Some(witness) = witness {
        *witness = component.try_clone_boxed();
    }
    // A failed replay books the record drive too.
    let report = replay(component, &recording, u, ports).map_err(|e| e.after_steps(executed))?;

    let refusal = divergence.map(|t| {
        let states = report.observation.states[..=t].to_vec();
        let mut labels = report.observation.labels[..t].to_vec();
        labels.push(expected[t]);
        Observation::blocked(states, labels)
    });

    Ok(TestOutcome {
        confirmed: divergence.is_none(),
        divergence,
        observation: report.observation,
        refusal,
        recording,
        monitor: report.monitor,
        // Each executed input is driven twice: recorded, then replayed.
        driven_steps: 2 * executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LegacyComponent;
    use crate::interpreter::{HiddenMealy, MealyBuilder};
    use muml_automata::SignalSet;

    /// Component: noConvoy --{}/{propose}--> wait --{start}/{}--> convoy.
    fn component(u: &Universe) -> crate::interpreter::HiddenMealy {
        MealyBuilder::new(u, "legacy")
            .input("start")
            .input("reject")
            .output("propose")
            .state("noConvoy")
            .initial("noConvoy")
            .state("wait")
            .state("convoy")
            .rule("noConvoy", [], ["propose"], "wait")
            .rule("wait", ["start"], [], "convoy")
            .rule("wait", ["reject"], [], "noConvoy")
            .build()
            .unwrap()
    }

    fn l(u: &Universe, ins: &[&str], outs: &[&str]) -> Label {
        Label::new(
            ins.iter().map(|n| u.signal(n)).collect(),
            outs.iter().map(|n| u.signal(n)).collect(),
        )
    }

    #[test]
    fn matching_trace_is_confirmed() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("rearRole");
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];
        let out = execute_expected_trace(&mut c, &expected, &u, &ports).unwrap();
        assert!(out.confirmed);
        assert_eq!(out.divergence, None);
        assert!(out.refusal.is_none());
        assert_eq!(
            out.observation.states,
            vec!["noConvoy".to_owned(), "wait".into(), "convoy".into()]
        );
        assert_eq!(out.driven_steps, 4, "recorded once, replayed once");
    }

    #[test]
    fn diverging_trace_yields_observation_and_refusal() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("rearRole");
        // The abstraction expected the component to stay quiet, but it
        // proposes a convoy immediately.
        let expected = vec![l(&u, &[], &[]), l(&u, &[], &["propose"])];
        let out = execute_expected_trace(&mut c, &expected, &u, &ports).unwrap();
        assert!(!out.confirmed);
        assert_eq!(out.divergence, Some(0));
        assert_eq!(out.driven_steps, 2, "the record drive stops at step 0");
        // observed: the real step {}/{propose}
        assert_eq!(out.observation.labels, vec![l(&u, &[], &["propose"])]);
        assert_eq!(
            out.observation.states,
            vec!["noConvoy".to_owned(), "wait".into()]
        );
        // refused: the expected {}/{} at noConvoy
        let refusal = out.refusal.unwrap();
        assert!(refusal.blocked);
        assert_eq!(refusal.states, vec!["noConvoy".to_owned()]);
        assert_eq!(refusal.labels, vec![l(&u, &[], &[])]);
    }

    #[test]
    fn divergence_midway_keeps_prefix() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("rearRole");
        // step 0 matches; step 1 expects quiescence but the component obeys
        // `start` silently (matches), step 1 with wrong outputs instead:
        let expected = vec![
            l(&u, &[], &["propose"]),        // matches
            l(&u, &["start"], &["propose"]), // component answers {} → diverges
        ];
        let out = execute_expected_trace(&mut c, &expected, &u, &ports).unwrap();
        assert_eq!(out.divergence, Some(1));
        // prefix retained with real outputs
        assert_eq!(out.observation.labels[0], l(&u, &[], &["propose"]));
        assert_eq!(out.observation.labels[1], l(&u, &["start"], &[]));
        let refusal = out.refusal.unwrap();
        assert_eq!(refusal.states.len(), 2);
        assert_eq!(
            *refusal.labels.last().unwrap(),
            l(&u, &["start"], &["propose"])
        );
    }

    #[test]
    fn empty_expected_trace_is_trivially_confirmed() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("p");
        let out = execute_expected_trace(&mut c, &[], &u, &ports).unwrap();
        assert!(out.confirmed);
        assert_eq!(out.observation.states.len(), 1);
    }

    #[test]
    fn artefacts_match_listing_formats() {
        let u = Universe::new();
        let mut c = component(&u);
        let mut ports = PortMap::with_default("rearRole");
        ports.assign(u.signals(["start", "reject", "propose"]), "rearRole");
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["reject"], &[])];
        let out = execute_expected_trace(&mut c, &expected, &u, &ports).unwrap();
        assert!(out.confirmed);
        // Listing 1.2 artefact: messages only
        let rec_trace = out.recording.monitor_trace(&u, &ports).to_string();
        assert!(rec_trace.contains("type=\"outgoing\""));
        assert!(rec_trace.contains("type=\"incoming\""));
        assert!(!rec_trace.contains("CurrentState"));
        // Listing 1.3 artefact: states + timing
        let full = out.monitor.to_string();
        assert!(full.contains("[CurrentState]"));
        assert!(full.contains("[Timing] count=2"));
    }

    /// The wrapped component, except that after its first reset it adds
    /// `propose` to every answer from period 2 on.
    struct FirstResetLiar {
        inner: HiddenMealy,
        propose: SignalSet,
        resets: u64,
    }

    impl LegacyComponent for FirstResetLiar {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn interface(&self) -> (SignalSet, SignalSet) {
            self.inner.interface()
        }
        fn reset(&mut self) {
            self.resets += 1;
            self.inner.reset();
        }
        fn step(&mut self, inputs: SignalSet) -> SignalSet {
            let out = self.inner.step(inputs);
            if self.resets == 1 && self.inner.period() >= 2 {
                out.union(self.propose)
            } else {
                out
            }
        }
        fn period(&self) -> u64 {
            self.inner.period()
        }
    }

    impl StateObservable for FirstResetLiar {
        fn observable_state(&self) -> String {
            self.inner.observable_state()
        }
        fn initial_state_name(&self) -> String {
            self.inner.initial_state_name()
        }
    }

    /// One attempt is one cross-checked drive pair: the divergence comes
    /// from the record drive, and the replay of that drive rejects it when
    /// the component answers differently on its next reset.
    #[test]
    fn divergence_comes_from_the_drive_the_replay_cross_checks() {
        let u = Universe::new();
        let mut c = FirstResetLiar {
            inner: component(&u),
            propose: u.signals(["propose"]),
            resets: 0,
        };
        let ports = PortMap::with_default("rearRole");
        let expected = vec![
            l(&u, &[], &["propose"]),
            l(&u, &["start"], &[]),
            l(&u, &[], &[]),
        ];
        let err = execute_expected_trace(&mut c, &expected, &u, &ports).unwrap_err();
        assert!(
            matches!(err, ReplayError::Nondeterministic { period: 2, .. }),
            "{err:?}"
        );
        // The record drive stops at its divergence (step 1); the replay
        // stops at its mismatch (period 2).
        assert_eq!(err.driven_steps(), 2 + 2);
        assert_eq!(c.resets, 2, "one reset per drive");
    }
}
