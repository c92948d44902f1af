//! Legacy component runtime: black-box execution, monitoring probes,
//! deterministic replay, and counterexample-driven test execution.
//!
//! This crate is the testing half of the paper's method (Sections 4.2 and
//! 5): the verification step produces counterexample traces, and this crate
//! executes them against the real (here: simulated) legacy component,
//! producing the observations the learning step consumes.
//!
//! * [`LegacyComponent`] / [`StateObservable`] — the strict black-box
//!   interface plus the replay-only state probe.
//! * [`HiddenMealy`] / [`MealyBuilder`] — a deterministic hidden-state
//!   interpreter standing in for real legacy code (see DESIGN.md §5 for the
//!   substitution argument).
//! * [`record_live`] / [`replay`] — the two-phase, probe-effect-free
//!   monitoring workflow of [22]: record messages + periods with minimal
//!   probes, then replay deterministically with full state/timing
//!   instrumentation (Listings 1.2 and 1.3).
//! * [`execute_expected_trace`] — drive the component along a
//!   counterexample; either *confirm* it (a real fault, Lemma 6) or return
//!   the observed divergence as learning input (Definitions 11/12).
//! * [`Fault`] / [`inject`] — seeded faults for deriving broken variants.
//! * [`UnreliableRig`] / [`RigFaultProfile`] — seeded transient *rig*
//!   faults (dropped/duplicated outputs, spurious resets, stuck periods,
//!   probe timeouts) at the harness boundary.
//! * [`execute_with_retry`] — the flake-tolerant executor: bounded retries
//!   with exponential backoff on a [`SimClock`] and a verdict quorum,
//!   classifying each test as `Confirmed`, `Diverged`, or `Inconclusive`
//!   instead of panicking or lying under an unreliable rig.
//! * [`TraceCache`] / [`execute_with_retry_cached`] /
//!   [`probe_offers_pooled`] — the prefix-sharing trace cache with
//!   checkpointed resume, and the scoped-thread pool for frontier-probe
//!   batches; verdicts stay bit-identical to the serial executor
//!   (DESIGN.md §17).
//! * [`XorShift`] — the workspace's one seeded fault generator.

#![warn(missing_docs)]

mod cache;
mod component;
mod executor;
mod faults;
mod interpreter;
mod latency;
mod monitor;
mod probe;
mod replay;
mod retry;
mod rig;

pub use cache::{execute_with_retry_cached, probe_offers_pooled, CacheStats, TraceCache};
pub use component::{LegacyComponent, StateObservable};
pub use executor::{execute_expected_trace, TestOutcome};
pub use faults::{fault_matrix, inject, Fault};
pub use interpreter::{DefaultBehavior, HiddenMealy, MealyBuilder, MealyRule};
pub use latency::LatentComponent;
pub use monitor::{Direction, MonitorEvent, MonitorTrace, PortMap};
pub use probe::{InstrumentedComponent, ProbeMode, NO_STATE_PROBE};
pub use replay::{record_live, replay, RecordedStep, Recording, ReplayError, ReplayReport};
pub use retry::{
    execute_with_retry, execute_with_retry_on, RetryPolicy, RetryReport, SimClock, TestVerdict,
};
pub use rig::{RigFault, RigFaultProfile, UnreliableRig, XorShift};
