//! Harness round-trip latency modelling.
//!
//! The paper's evaluation drove the real shuttle software on the RailCab
//! test rig, where every period costs a physical round trip (bus transfer,
//! scheduling, the component's own cycle time). The in-process
//! [`HiddenMealy`](crate::HiddenMealy) interpreter answers in nanoseconds,
//! which makes test execution unrealistically free. [`LatentComponent`]
//! restores the missing cost: it wraps any component and sleeps for a
//! configurable latency on every [`step`](crate::LegacyComponent::step) and
//! [`reset`](crate::LegacyComponent::reset).
//!
//! Besides realism, this is what makes batch campaigns
//! (`muml_serve::run_fleet`) worth sharding: a job driving a latent component is blocked on
//! the harness most of the time, so concurrent workers overlap their wait
//! time and a pool speeds up the campaign even on a single CPU — exactly as
//! it would against real test-rig hardware.
//!
//! State observation is *not* delayed: the replay-only probes read
//! instrumentation, not the harness channel.

use std::thread;
use std::time::Duration;

use muml_automata::SignalSet;

use crate::component::{LegacyComponent, StateObservable};

/// Wraps a component with a fixed per-interaction harness latency.
///
/// ```
/// use std::time::Duration;
/// use muml_automata::Universe;
/// use muml_legacy::{LatentComponent, LegacyComponent, MealyBuilder};
///
/// let u = Universe::new();
/// let m = MealyBuilder::new(&u, "legacy")
///     .input("go").output("ack")
///     .state("idle").initial("idle")
///     .rule("idle", ["go"], ["ack"], "idle")
///     .build().unwrap();
/// let mut slow = LatentComponent::new(m, Duration::from_micros(50));
/// assert_eq!(slow.step(u.signals(["go"])), u.signals(["ack"]));
/// ```
#[derive(Debug, Clone)]
pub struct LatentComponent<C> {
    inner: C,
    step_latency: Duration,
    reset_latency: Duration,
}

impl<C> LatentComponent<C> {
    /// Wraps `inner`, charging `latency` per step and per reset.
    pub fn new(inner: C, latency: Duration) -> Self {
        LatentComponent {
            inner,
            step_latency: latency,
            reset_latency: latency,
        }
    }

    /// Sets a separate reset latency (resets of real rigs are typically
    /// much more expensive than steps).
    #[must_use]
    pub fn with_reset_latency(mut self, reset_latency: Duration) -> Self {
        self.reset_latency = reset_latency;
        self
    }

    /// The wrapped component.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the component.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

fn wait(latency: Duration) {
    if !latency.is_zero() {
        thread::sleep(latency);
    }
}

impl<C: LegacyComponent> LegacyComponent for LatentComponent<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }

    fn reset(&mut self) {
        wait(self.reset_latency);
        self.inner.reset();
    }

    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        wait(self.step_latency);
        self.inner.step(inputs)
    }

    fn period(&self) -> u64 {
        self.inner.period()
    }
}

impl<C: StateObservable + Clone + Send + 'static> StateObservable for LatentComponent<C> {
    fn observable_state(&self) -> String {
        self.inner.observable_state()
    }

    fn initial_state_name(&self) -> String {
        self.inner.initial_state_name()
    }

    fn deterministic_rig(&self) -> bool {
        // Latency changes cost, never behaviour.
        self.inner.deterministic_rig()
    }

    fn rig_token(&self) -> String {
        self.inner.rig_token()
    }

    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        // The clone keeps the configured latency: a resumed or parallel
        // instance pays the same per-step cost as the original (only the
        // *number* of steps, or their overlap, changes).
        if self.inner.try_clone_boxed().is_some() {
            Some(Box::new(self.clone()))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::MealyBuilder;
    use muml_automata::Universe;
    use std::time::Instant;

    fn machine(u: &Universe) -> crate::HiddenMealy {
        MealyBuilder::new(u, "m")
            .input("go")
            .output("ack")
            .state("idle")
            .initial("idle")
            .state("run")
            .rule("idle", ["go"], ["ack"], "run")
            .build()
            .unwrap()
    }

    #[test]
    fn zero_latency_is_transparent() {
        let u = Universe::new();
        let mut wrapped = LatentComponent::new(machine(&u), Duration::ZERO);
        assert_eq!(wrapped.name(), "m");
        assert_eq!(wrapped.step(u.signals(["go"])), u.signals(["ack"]));
        assert_eq!(wrapped.observable_state(), "run");
        assert_eq!(wrapped.period(), 1);
        wrapped.reset();
        assert_eq!(wrapped.observable_state(), "idle");
        assert_eq!(wrapped.initial_state_name(), "idle");
        assert_eq!(wrapped.into_inner().resets(), 1);
    }

    #[test]
    fn steps_pay_the_configured_latency() {
        let u = Universe::new();
        let mut wrapped = LatentComponent::new(machine(&u), Duration::from_millis(2))
            .with_reset_latency(Duration::ZERO);
        let start = Instant::now();
        wrapped.step(u.signals(["go"]));
        assert!(start.elapsed() >= Duration::from_millis(2));
        let start = Instant::now();
        wrapped.reset();
        assert!(start.elapsed() < Duration::from_millis(2));
    }
}
