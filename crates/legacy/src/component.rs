//! The black-box legacy component abstraction.
//!
//! The paper's method treats the legacy component `M_r` as a *deterministic*
//! reactive component with a known structural interface and hidden internal
//! behaviour: per period (time unit) it consumes a set of input signals and
//! produces a set of output signals. The synthesis loop interacts with it
//! exclusively through this trait — the kernel never looks inside.
//!
//! State observation ([`StateObservable`]) is the white-box instrumentation
//! used *only* during deterministic replay (Section 5): "we (can) add
//! further instrumentation, which have no effects on the execution, to get
//! the information of the relevant events for the behavior synthesis".

use muml_automata::SignalSet;

/// A deterministic reactive component executed one period at a time.
///
/// Implementations must be deterministic: after `reset`, the same input
/// sequence must produce the same output sequence. The test executor
/// enforces this during replay and reports a typed error otherwise.
pub trait LegacyComponent {
    /// The component name (diagnostics).
    fn name(&self) -> &str;

    /// The structural interface `(inputs, outputs)` — known from the
    /// architectural model or trivially reverse-engineered.
    fn interface(&self) -> (SignalSet, SignalSet);

    /// Restarts the component in its initial state.
    fn reset(&mut self);

    /// Executes one period: consumes `inputs`, returns the produced outputs.
    fn step(&mut self, inputs: SignalSet) -> SignalSet;

    /// Number of `step` calls since the last reset.
    fn period(&self) -> u64;
}

/// White-box state observation, available only under replay instrumentation.
pub trait StateObservable: LegacyComponent {
    /// The name of the current internal state. With the *minimal* probe
    /// configuration (record drives) this information is not available to the
    /// harness; the replay engine enables it.
    fn observable_state(&self) -> String;

    /// The name of the initial state (known from light-weight reverse
    /// engineering; Lemma 4 builds `M_l^0` from it).
    fn initial_state_name(&self) -> String;

    /// Whether the component honours the determinism contract *at the
    /// harness boundary*: after `reset`, equal input words yield equal
    /// outputs, observable states, and periods. The trace cache
    /// ([`crate::TraceCache`]) memoizes — and resumes from checkpoints on —
    /// deterministic rigs only. The default is `true` (the trait contract);
    /// an [`UnreliableRig`](crate::UnreliableRig) with a non-clean fault
    /// profile overrides it.
    fn deterministic_rig(&self) -> bool {
        true
    }

    /// A stable token identifying the rig configuration (fault seed and
    /// profile) for cache scoping; components without rig state return the
    /// empty string.
    fn rig_token(&self) -> String {
        String::new()
    }

    /// Clones the component *including its current execution state*, for
    /// checkpoint/resume and for parallel execution on independent
    /// instances. `None` (the default) opts out: the component cannot be
    /// snapshotted — or duplicating it would be unsound, as for a faulty
    /// rig whose fault PRNG must not be forked (forked streams would replay
    /// identical faults, defeating the retry quorum).
    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::MealyBuilder;
    use muml_automata::Universe;

    #[test]
    fn trait_object_usage() {
        let u = Universe::new();
        let m = MealyBuilder::new(&u, "legacy")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .rule("s0", ["a"], ["b"], "s0")
            .build()
            .unwrap();
        let mut boxed: Box<dyn StateObservable> = Box::new(m);
        assert_eq!(boxed.name(), "legacy");
        boxed.reset();
        assert_eq!(boxed.period(), 0);
        let out = boxed.step(u.signals(["a"]));
        assert_eq!(out, u.signals(["b"]));
        assert_eq!(boxed.period(), 1);
        assert_eq!(boxed.observable_state(), "s0");
    }

    #[test]
    fn checkpoint_clone_preserves_execution_state() {
        let u = Universe::new();
        let mut m = MealyBuilder::new(&u, "legacy")
            .input("a")
            .output("b")
            .state("s0")
            .initial("s0")
            .state("s1")
            .rule("s0", ["a"], ["b"], "s1")
            .build()
            .unwrap();
        assert!(m.deterministic_rig());
        assert_eq!(m.rig_token(), "");
        m.step(u.signals(["a"]));
        let mut snap = m.try_clone_boxed().expect("HiddenMealy is clonable");
        assert_eq!(snap.observable_state(), "s1");
        assert_eq!(snap.period(), 1);
        // The snapshot evolves independently of the original.
        snap.reset();
        assert_eq!(snap.observable_state(), "s0");
        assert_eq!(m.observable_state(), "s1");
    }
}
