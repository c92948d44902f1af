//! Recording and platform-independent deterministic replay.
//!
//! The paper's two-phase monitoring workflow (Section 5, following [22]):
//!
//! 1. **Record** — execute the system with *minimal* probes and store only
//!    what deterministic replay needs: the incoming/outgoing messages and
//!    the period number of each (Listing 1.2). Minimal probes can stay
//!    enabled in deployment without causing a probe effect.
//! 2. **Replay** — re-execute deterministically from the recording, now
//!    with *full* instrumentation (state and timing probes, Listing 1.3).
//!    Because the replayed execution is driven by the recorded data, the
//!    added instrumentation "has no effects on the execution".
//!
//! The replayer cross-checks the re-produced outputs against the recording;
//! a mismatch means the component violates the determinism assumption the
//! whole method rests on and is reported as a typed error.

use muml_automata::{Label, Observation, SignalSet, Universe};

use crate::component::{LegacyComponent, StateObservable};
use crate::monitor::{Direction, MonitorEvent, MonitorTrace, PortMap};

/// One recorded period: the messages that crossed the component boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedStep {
    /// The period number (1-based, as in the listings' `[Timing] count=n`).
    pub period: u64,
    /// Messages received by the component in this period.
    pub inputs: SignalSet,
    /// Messages sent by the component in this period.
    pub outputs: SignalSet,
}

/// A minimal-probe recording of one execution (Listing 1.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recording {
    /// Name of the recorded component.
    pub component: String,
    /// The recorded periods, in order.
    pub steps: Vec<RecordedStep>,
}

impl Recording {
    /// Renders the recording in the paper's Listing-1.2 format: message
    /// events only (the minimal probe configuration records nothing else).
    /// Periods without boundary messages produce no events.
    pub fn monitor_trace(&self, u: &Universe, ports: &PortMap) -> MonitorTrace {
        let mut t = MonitorTrace::new();
        for s in &self.steps {
            for e in ports.message_events(u, s.outputs, Direction::Outgoing) {
                t.push(e);
            }
            for e in ports.message_events(u, s.inputs, Direction::Incoming) {
                t.push(e);
            }
        }
        t
    }
}

/// Executes `component` live on the given input sequence with minimal
/// probes, recording messages and periods.
///
/// The component is reset first. Use [`replay`] afterwards to enrich the
/// recording with state information.
pub fn record_live(component: &mut dyn LegacyComponent, inputs: &[SignalSet]) -> Recording {
    record_until(component, inputs.iter().copied(), |_, _| false).0
}

/// [`record_live`] that stops after the first step `t` for which
/// `stop(t, outputs)` holds; that step is recorded too, and returned.
pub(crate) fn record_until(
    component: &mut dyn LegacyComponent,
    inputs: impl Iterator<Item = SignalSet>,
    mut stop: impl FnMut(usize, SignalSet) -> bool,
) -> (Recording, Option<usize>) {
    component.reset();
    let mut steps = Vec::with_capacity(inputs.size_hint().0);
    let mut stopped = None;
    for (t, a) in inputs.enumerate() {
        let b = component.step(a);
        steps.push(RecordedStep {
            period: component.period(),
            inputs: a,
            outputs: b,
        });
        if stop(t, b) {
            stopped = Some(t);
            break;
        }
    }
    let recording = Recording {
        component: component.name().to_owned(),
        steps,
    };
    (recording, stopped)
}

/// Error from [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The replayed execution produced different outputs than the recording
    /// — the component is not deterministic (or the recording is stale).
    Nondeterministic {
        /// The period at which the divergence occurred.
        period: u64,
        /// What the recording holds.
        recorded: SignalSet,
        /// What the replay produced.
        replayed: SignalSet,
        /// Rig steps the failed execution drove, the mismatching one
        /// included (see [`ReplayError::driven_steps`]).
        driven_steps: usize,
    },
    /// The replayed execution's period counter drifted from the recorded
    /// one — a period was lost or repeated between record and replay. The
    /// period probe reads instrumentation memory, so on a reliable rig this
    /// cannot happen; on an unreliable one it flags a withheld input
    /// (stuck/timed-out period) that output comparison alone cannot see
    /// when the component is silent either way.
    PeriodDrift {
        /// The 0-based step of the recording at which the drift surfaced.
        step: usize,
        /// The period the recording holds for that step.
        recorded: u64,
        /// The period the replayed component reported.
        replayed: u64,
        /// Rig steps the failed execution drove, the drifting one included
        /// (see [`ReplayError::driven_steps`]).
        driven_steps: usize,
    },
}

impl ReplayError {
    /// The recorded period at which the replay failed.
    pub fn period(&self) -> u64 {
        match self {
            ReplayError::Nondeterministic { period, .. } => *period,
            ReplayError::PeriodDrift { recorded, .. } => *recorded,
        }
    }

    /// Rig steps the failed execution drove before the mismatch surfaced,
    /// the failing step included: the replay's own steps from [`replay`],
    /// and the record drive's plus the replay's from
    /// [`execute_expected_trace`](crate::execute_expected_trace).
    pub fn driven_steps(&self) -> usize {
        match self {
            ReplayError::Nondeterministic { driven_steps, .. }
            | ReplayError::PeriodDrift { driven_steps, .. } => *driven_steps,
        }
    }

    /// The error with `steps` more driven steps booked — the record drive
    /// an execution ran before its replay.
    pub(crate) fn after_steps(mut self, steps: usize) -> Self {
        match &mut self {
            ReplayError::Nondeterministic { driven_steps, .. }
            | ReplayError::PeriodDrift { driven_steps, .. } => *driven_steps += steps,
        }
        self
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Nondeterministic { period, .. } => write!(
                f,
                "replay diverged from the recording at period {period}: the component violates the determinism assumption"
            ),
            ReplayError::PeriodDrift {
                step,
                recorded,
                replayed,
                ..
            } => write!(
                f,
                "replay period drifted from the recording at step {step} (recorded {recorded}, replayed {replayed}): the component violates the determinism assumption"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The result of a deterministic replay with full instrumentation.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The observation (monitored state names + interactions), ready for
    /// the learning step (Definitions 11/12).
    pub observation: Observation,
    /// The full-instrumentation monitor trace (Listing 1.3 format).
    pub monitor: MonitorTrace,
}

/// Replays `recording` against a fresh instance of `component` with full
/// instrumentation, capturing state names and timing.
///
/// # Errors
///
/// [`ReplayError::Nondeterministic`] if the replayed outputs differ from
/// the recorded ones.
pub fn replay(
    component: &mut dyn StateObservable,
    recording: &Recording,
    u: &Universe,
    ports: &PortMap,
) -> Result<ReplayReport, ReplayError> {
    component.reset();
    let mut monitor = MonitorTrace::new();
    let mut states = vec![component.initial_state_name()];
    let mut labels = Vec::new();
    for (idx, step) in recording.steps.iter().enumerate() {
        monitor.push(MonitorEvent::CurrentState {
            name: component.observable_state(),
        });
        let out = component.step(step.inputs);
        if out != step.outputs {
            return Err(ReplayError::Nondeterministic {
                period: step.period,
                recorded: step.outputs,
                replayed: out,
                driven_steps: idx + 1,
            });
        }
        // Cross-check the timing probe as well: a silent component makes a
        // lost period invisible in the outputs, but never in the period
        // counter (it only advances when the component really stepped).
        let replayed_period = component.period();
        if replayed_period != step.period {
            return Err(ReplayError::PeriodDrift {
                step: idx,
                recorded: step.period,
                replayed: replayed_period,
                driven_steps: idx + 1,
            });
        }
        for e in ports.message_events(u, out, Direction::Outgoing) {
            monitor.push(e);
        }
        for e in ports.message_events(u, step.inputs, Direction::Incoming) {
            monitor.push(e);
        }
        monitor.push(MonitorEvent::Timing { count: step.period });
        labels.push(Label::new(step.inputs, out));
        states.push(component.observable_state());
    }
    monitor.push(MonitorEvent::CurrentState {
        name: component.observable_state(),
    });
    Ok(ReplayReport {
        observation: Observation::regular(states, labels),
        monitor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::MealyBuilder;

    fn setup(u: &Universe) -> crate::interpreter::HiddenMealy {
        MealyBuilder::new(u, "legacy")
            .input("startConvoy")
            .output("convoyProposal")
            .state("noConvoy")
            .initial("noConvoy")
            .state("wait")
            .rule("noConvoy", [], ["convoyProposal"], "wait")
            .rule("wait", ["startConvoy"], [], "noConvoy")
            .build()
            .unwrap()
    }

    #[test]
    fn record_then_replay_roundtrip() {
        let u = Universe::new();
        let mut c = setup(&u);
        let inputs = vec![SignalSet::EMPTY, u.signals(["startConvoy"])];
        let rec = record_live(&mut c, &inputs);
        assert_eq!(rec.steps.len(), 2);
        assert_eq!(rec.steps[0].outputs, u.signals(["convoyProposal"]));
        assert_eq!(rec.steps[0].period, 1);

        let mut ports = PortMap::with_default("rearRole");
        ports.assign(c.interface().0.union(c.interface().1), "rearRole");
        let report = replay(&mut c, &rec, &u, &ports).unwrap();
        assert_eq!(
            report.observation.states,
            vec!["noConvoy".to_owned(), "wait".into(), "noConvoy".into()]
        );
        assert!(!report.observation.blocked);
        // full monitor trace carries states, messages, and timing
        let text = report.monitor.to_string();
        assert!(text.contains("[CurrentState] name=\"noConvoy\""));
        assert!(text.contains("[Timing] count=1"));
        assert!(text.contains(
            "[Message] name=\"convoyProposal\", portName=\"rearRole\", type=\"outgoing\""
        ));
    }

    #[test]
    fn minimal_recording_has_messages_only() {
        let u = Universe::new();
        let mut c = setup(&u);
        let rec = record_live(&mut c, &[SignalSet::EMPTY]);
        let ports = PortMap::with_default("rearRole");
        let trace = rec.monitor_trace(&u, &ports);
        assert_eq!(trace.events.len(), 1); // just the outgoing proposal
        assert!(trace.state_names().is_empty());
    }

    #[test]
    fn nondeterminism_detected() {
        let u = Universe::new();
        let mut c = setup(&u);
        let rec = {
            let mut r = record_live(&mut c, &[SignalSet::EMPTY]);
            // tamper with the recording so replay mismatches
            r.steps[0].outputs = SignalSet::EMPTY;
            r
        };
        let ports = PortMap::with_default("p");
        let err = replay(&mut c, &rec, &u, &ports).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::Nondeterministic { period: 1, .. }
        ));
        assert_eq!(err.period(), 1);
        assert_eq!(err.driven_steps(), 1, "the mismatching step was driven");
        assert!(err.to_string().contains("determinism"));
    }

    #[test]
    fn empty_recording_replays_to_empty_observation() {
        let u = Universe::new();
        let mut c = setup(&u);
        let rec = record_live(&mut c, &[]);
        let ports = PortMap::with_default("p");
        let rep = replay(&mut c, &rec, &u, &ports).unwrap();
        assert_eq!(rep.observation.states.len(), 1);
        assert!(rep.observation.labels.is_empty());
    }
}
