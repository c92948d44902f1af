//! A hidden-state Mealy interpreter simulating real legacy code.
//!
//! The paper evaluated its method against the actual shuttle software
//! running on the RailCab test rig. This repository substitutes a
//! deterministic interpreter over a hidden Mealy-style transition table: the
//! harness sees exactly what the paper's harness saw — the port interface,
//! per-period I/O, and (under replay instrumentation only) state names. See
//! DESIGN.md §5 for the substitution argument.

use std::collections::HashMap;
use std::sync::Arc;

use muml_automata::{AutomataError, Automaton, SignalSet, Universe};

use crate::component::{LegacyComponent, StateObservable};

/// What the interpreter does when no rule matches the current
/// `(state, inputs)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultBehavior {
    /// Produce no outputs and stay in the current state (a quiescent
    /// reactive component — the common case for control software).
    StayQuiet,
    /// Produce no outputs and stay, but remember that the interaction was
    /// ignored (indistinguishable from [`DefaultBehavior::StayQuiet`] at the
    /// interface; kept separate for fault-injection bookkeeping).
    IgnoreInputs,
}

/// A deterministic hidden-state Mealy machine.
///
/// Build with [`MealyBuilder`] or derive from a deterministic concrete
/// [`Automaton`] via [`HiddenMealy::from_automaton`]. A clone shares the
/// rule table and state names (copied only if fault injection edits the
/// clone's rules), so checkpointing a machine copies its execution
/// counters only.
#[derive(Debug, Clone)]
pub struct HiddenMealy {
    name: String,
    inputs: SignalSet,
    outputs: SignalSet,
    state_names: Arc<[String]>,
    /// `(state, inputs) → (outputs, next state)`
    rules: Arc<HashMap<(usize, SignalSet), (SignalSet, usize)>>,
    default: DefaultBehavior,
    initial: usize,
    current: usize,
    period: u64,
    /// Total `step` calls over the component's lifetime (across resets) —
    /// the "membership query cost" measure used by the benchmarks.
    total_steps: u64,
    resets: u64,
}

impl HiddenMealy {
    /// Derives a hidden Mealy machine from a deterministic, concrete
    /// automaton: each transition `(s, A/B, s′)` becomes the rule
    /// `(s, A) → (B, s′)`.
    ///
    /// # Errors
    ///
    /// * [`AutomataError::Nondeterministic`] if two transitions from one
    ///   state consume the same input set with different effects (a Mealy
    ///   machine's output is a function of state and input).
    /// * [`AutomataError::SymbolicUnsupported`] for symbolic guards.
    pub fn from_automaton(m: &Automaton, default: DefaultBehavior) -> Result<Self, AutomataError> {
        let mut rules = HashMap::new();
        for (s, t) in m.transitions() {
            let l = m
                .guard(t.guard)
                .as_exact()
                .ok_or(AutomataError::SymbolicUnsupported {
                    detail: format!("legacy interpreter for `{}`", m.name()),
                })?;
            let key = (s.index(), l.inputs);
            let val = (l.outputs, t.to.index());
            if let Some(prev) = rules.insert(key, val) {
                if prev != val {
                    return Err(AutomataError::Nondeterministic {
                        automaton: m.name().to_owned(),
                        state: m.state_name(s).to_owned(),
                    });
                }
            }
        }
        let initial = m
            .initial_states()
            .first()
            .ok_or_else(|| AutomataError::NoInitialState(m.name().to_owned()))?
            .index();
        if m.initial_states().len() != 1 {
            return Err(AutomataError::Nondeterministic {
                automaton: m.name().to_owned(),
                state: "multiple initial states".to_owned(),
            });
        }
        Ok(HiddenMealy {
            name: m.name().to_owned(),
            inputs: m.inputs(),
            outputs: m.outputs(),
            state_names: m.state_ids().map(|s| m.state_name(s).to_owned()).collect(),
            rules: Arc::new(rules),
            default,
            initial,
            current: initial,
            period: 0,
            total_steps: 0,
            resets: 0,
        })
    }

    /// Number of hidden states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Number of explicit rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Lifetime `step` count across resets (test-cost metric).
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Lifetime reset count (test-cost metric).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Direct access for fault injection (see [`crate::faults`]).
    pub(crate) fn rules_mut(&mut self) -> &mut HashMap<(usize, SignalSet), (SignalSet, usize)> {
        Arc::make_mut(&mut self.rules)
    }

    /// State index by name (fault injection).
    pub(crate) fn state_index(&self, name: &str) -> Option<usize> {
        self.state_names.iter().position(|n| n == name)
    }

    /// The hidden state names, in declaration order.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// The rule table rendered with signal names, sorted deterministically
    /// by `(state index, input bits)`. The internal table is a `HashMap`
    /// with non-deterministic iteration order; every consumer that
    /// enumerates rules reproducibly — most importantly
    /// [`fault_matrix`](crate::fault_matrix) — goes through this accessor.
    pub fn rules_sorted(&self, u: &Universe) -> Vec<MealyRule> {
        let mut keys: Vec<&(usize, SignalSet)> = self.rules.keys().collect();
        keys.sort_by_key(|(state, inputs)| (*state, inputs.bits()));
        keys.into_iter()
            .map(|key| {
                let (outputs, target) = &self.rules[key];
                MealyRule {
                    state: self.state_names[key.0].clone(),
                    inputs: key.1.iter().map(|id| u.signal_name(id)).collect(),
                    outputs: outputs.iter().map(|id| u.signal_name(id)).collect(),
                    target: self.state_names[*target].clone(),
                }
            })
            .collect()
    }
}

/// One rendered rule of a [`HiddenMealy`], as returned by
/// [`HiddenMealy::rules_sorted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MealyRule {
    /// Source state name.
    pub state: String,
    /// Input signal names (ascending signal-id order).
    pub inputs: Vec<String>,
    /// Output signal names (ascending signal-id order).
    pub outputs: Vec<String>,
    /// Target state name.
    pub target: String,
}

impl LegacyComponent for HiddenMealy {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface(&self) -> (SignalSet, SignalSet) {
        (self.inputs, self.outputs)
    }

    fn reset(&mut self) {
        self.current = self.initial;
        self.period = 0;
        self.resets += 1;
    }

    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        self.period += 1;
        self.total_steps += 1;
        match self.rules.get(&(self.current, inputs)) {
            Some(&(out, next)) => {
                self.current = next;
                out
            }
            None => match self.default {
                DefaultBehavior::StayQuiet | DefaultBehavior::IgnoreInputs => SignalSet::EMPTY,
            },
        }
    }

    fn period(&self) -> u64 {
        self.period
    }
}

impl StateObservable for HiddenMealy {
    fn observable_state(&self) -> String {
        self.state_names[self.current].clone()
    }

    fn initial_state_name(&self) -> String {
        self.state_names[self.initial].clone()
    }

    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Builder for [`HiddenMealy`].
///
/// # Examples
///
/// ```
/// use muml_legacy::{MealyBuilder, LegacyComponent};
/// use muml_automata::Universe;
/// let u = Universe::new();
/// let mut m = MealyBuilder::new(&u, "shuttle")
///     .input("startConvoy")
///     .output("convoyProposal")
///     .state("noConvoy")
///     .initial("noConvoy")
///     .state("wait")
///     .rule("noConvoy", [], ["convoyProposal"], "wait")
///     .rule("wait", ["startConvoy"], [], "noConvoy")
///     .build()
///     .unwrap();
/// let out = m.step(Default::default());
/// assert_eq!(out, u.signals(["convoyProposal"]));
/// ```
#[derive(Debug, Clone)]
pub struct MealyBuilder {
    universe: Universe,
    name: String,
    inputs: SignalSet,
    outputs: SignalSet,
    states: Vec<String>,
    rules: Vec<(String, SignalSet, SignalSet, String)>,
    initial: Option<String>,
    default: DefaultBehavior,
}

impl MealyBuilder {
    /// Starts building a machine named `name`.
    pub fn new(u: &Universe, name: &str) -> Self {
        MealyBuilder {
            universe: u.clone(),
            name: name.to_owned(),
            inputs: SignalSet::EMPTY,
            outputs: SignalSet::EMPTY,
            states: Vec::new(),
            rules: Vec::new(),
            initial: None,
            default: DefaultBehavior::StayQuiet,
        }
    }

    /// Declares an input signal.
    #[must_use]
    pub fn input(mut self, name: &str) -> Self {
        self.inputs.insert(self.universe.signal(name));
        self
    }

    /// Declares an output signal.
    #[must_use]
    pub fn output(mut self, name: &str) -> Self {
        self.outputs.insert(self.universe.signal(name));
        self
    }

    /// Adds a state.
    #[must_use]
    pub fn state(mut self, name: &str) -> Self {
        if !self.states.iter().any(|s| s == name) {
            self.states.push(name.to_owned());
        }
        self
    }

    /// Sets the initial state (adds it if missing).
    #[must_use]
    pub fn initial(mut self, name: &str) -> Self {
        self = self.state(name);
        self.initial = Some(name.to_owned());
        self
    }

    /// Sets the default behaviour for unmatched `(state, input)` pairs.
    #[must_use]
    pub fn default_behavior(mut self, d: DefaultBehavior) -> Self {
        self.default = d;
        self
    }

    /// Adds a rule `(from, inputs) → (outputs, to)`.
    #[must_use]
    pub fn rule<'a, A, B>(mut self, from: &str, ins: A, outs: B, to: &str) -> Self
    where
        A: IntoIterator<Item = &'a str>,
        B: IntoIterator<Item = &'a str>,
    {
        let a: SignalSet = ins.into_iter().map(|n| self.universe.signal(n)).collect();
        let b: SignalSet = outs.into_iter().map(|n| self.universe.signal(n)).collect();
        self.rules.push((from.to_owned(), a, b, to.to_owned()));
        self
    }

    /// Finalizes the machine.
    ///
    /// # Errors
    ///
    /// * [`AutomataError::NoInitialState`] without an initial state.
    /// * [`AutomataError::UnknownState`] for rules naming missing states.
    /// * [`AutomataError::UndeclaredSignal`] for rules outside the interface.
    /// * [`AutomataError::Nondeterministic`] for conflicting rules.
    pub fn build(self) -> Result<HiddenMealy, AutomataError> {
        let initial_name = self
            .initial
            .ok_or_else(|| AutomataError::NoInitialState(self.name.clone()))?;
        let idx = |n: &str| -> Result<usize, AutomataError> {
            self.states
                .iter()
                .position(|s| s == n)
                .ok_or_else(|| AutomataError::UnknownState(n.to_owned()))
        };
        let mut rules = HashMap::new();
        for (from, a, b, to) in &self.rules {
            if !a.is_subset(self.inputs) || !b.is_subset(self.outputs) {
                return Err(AutomataError::UndeclaredSignal {
                    automaton: self.name.clone(),
                    detail: format!("rule {from}→{to} leaves the declared interface"),
                });
            }
            let key = (idx(from)?, *a);
            let val = (*b, idx(to)?);
            if let Some(prev) = rules.insert(key, val) {
                if prev != val {
                    return Err(AutomataError::Nondeterministic {
                        automaton: self.name.clone(),
                        state: from.clone(),
                    });
                }
            }
        }
        let initial = idx(&initial_name)?;
        Ok(HiddenMealy {
            name: self.name,
            inputs: self.inputs,
            outputs: self.outputs,
            state_names: self.states.into(),
            rules: Arc::new(rules),
            default: self.default,
            initial,
            current: initial,
            period: 0,
            total_steps: 0,
            resets: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(u: &Universe) -> HiddenMealy {
        MealyBuilder::new(u, "m")
            .input("go")
            .input("stop")
            .output("ack")
            .state("idle")
            .initial("idle")
            .state("run")
            .rule("idle", ["go"], ["ack"], "run")
            .rule("run", ["stop"], [], "idle")
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic_execution() {
        let u = Universe::new();
        let mut m = machine(&u);
        assert_eq!(m.step(u.signals(["go"])), u.signals(["ack"]));
        assert_eq!(m.observable_state(), "run");
        assert_eq!(m.step(u.signals(["stop"])), SignalSet::EMPTY);
        assert_eq!(m.observable_state(), "idle");
        assert_eq!(m.period(), 2);
    }

    #[test]
    fn default_stay_quiet() {
        let u = Universe::new();
        let mut m = machine(&u);
        // "stop" in idle matches no rule: quiet, stays.
        assert_eq!(m.step(u.signals(["stop"])), SignalSet::EMPTY);
        assert_eq!(m.observable_state(), "idle");
    }

    #[test]
    fn reset_restores_initial() {
        let u = Universe::new();
        let mut m = machine(&u);
        m.step(u.signals(["go"]));
        m.reset();
        assert_eq!(m.observable_state(), "idle");
        assert_eq!(m.period(), 0);
        assert_eq!(m.resets(), 1);
        assert_eq!(m.total_steps(), 1); // lifetime metric survives reset
    }

    #[test]
    fn determinism_enforced_by_builder() {
        let u = Universe::new();
        let err = MealyBuilder::new(&u, "bad")
            .input("x")
            .state("s")
            .initial("s")
            .state("t")
            .rule("s", ["x"], [], "s")
            .rule("s", ["x"], [], "t")
            .build()
            .unwrap_err();
        assert!(matches!(err, AutomataError::Nondeterministic { .. }));
        // identical duplicate rule is fine
        assert!(MealyBuilder::new(&u, "ok")
            .input("x")
            .state("s")
            .initial("s")
            .rule("s", ["x"], [], "s")
            .rule("s", ["x"], [], "s")
            .build()
            .is_ok());
    }

    #[test]
    fn from_automaton_roundtrip() {
        let u = Universe::new();
        let a = muml_automata::AutomatonBuilder::new(&u, "auto")
            .input("i")
            .output("o")
            .state("p")
            .initial("p")
            .state("q")
            .transition("p", ["i"], ["o"], "q")
            .transition("q", [], [], "p")
            .build()
            .unwrap();
        let mut m = HiddenMealy::from_automaton(&a, DefaultBehavior::StayQuiet).unwrap();
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.rule_count(), 2);
        assert_eq!(m.step(u.signals(["i"])), u.signals(["o"]));
        assert_eq!(m.observable_state(), "q");
    }

    #[test]
    fn from_automaton_rejects_output_nondeterminism() {
        let u = Universe::new();
        let a = muml_automata::AutomatonBuilder::new(&u, "auto")
            .input("i")
            .output("o")
            .state("p")
            .initial("p")
            .transition("p", ["i"], ["o"], "p")
            .transition("p", ["i"], [], "p")
            .build()
            .unwrap();
        assert!(matches!(
            HiddenMealy::from_automaton(&a, DefaultBehavior::StayQuiet),
            Err(AutomataError::Nondeterministic { .. })
        ));
    }
}
