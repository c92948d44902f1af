//! Fluent construction of automata.

use crate::automaton::{Automaton, StateData, StateId, Transition};
use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardTable, Label};
use crate::prop::PropSet;
use crate::signal::SignalSet;
use crate::universe::Universe;

/// Builder for [`Automaton`].
///
/// States and signals are referred to by name; signal and proposition names
/// are interned in the builder's [`Universe`]. Unknown state names used in
/// [`transition`](AutomatonBuilder::transition) are reported by
/// [`build`](AutomatonBuilder::build).
///
/// # Examples
///
/// ```
/// use muml_automata::{Universe, AutomatonBuilder};
/// let u = Universe::new();
/// let m = AutomatonBuilder::new(&u, "rear")
///     .input("startConvoy")
///     .output("convoyProposal")
///     .state("noConvoy")
///     .initial("noConvoy")
///     .prop("noConvoy", "rear.noConvoy")
///     .state("wait")
///     .transition("noConvoy", [], ["convoyProposal"], "wait")
///     .transition("wait", ["startConvoy"], [], "noConvoy")
///     .build()?;
/// assert_eq!(m.state_count(), 2);
/// # Ok::<(), muml_automata::AutomataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AutomatonBuilder {
    universe: Universe,
    name: String,
    inputs: SignalSet,
    outputs: SignalSet,
    states: Vec<StateData>,
    transitions: Vec<(String, Guard, String)>,
    initial: Vec<String>,
    errors: Vec<AutomataError>,
}

impl AutomatonBuilder {
    /// Starts building an automaton called `name` in universe `u`.
    pub fn new(u: &Universe, name: &str) -> Self {
        AutomatonBuilder {
            universe: u.clone(),
            name: name.to_owned(),
            inputs: SignalSet::EMPTY,
            outputs: SignalSet::EMPTY,
            states: Vec::new(),
            transitions: Vec::new(),
            initial: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Declares an input signal.
    #[must_use]
    pub fn input(mut self, name: &str) -> Self {
        self.inputs.insert(self.universe.signal(name));
        self
    }

    /// Declares several input signals.
    #[must_use]
    pub fn inputs<'a, I: IntoIterator<Item = &'a str>>(mut self, names: I) -> Self {
        for n in names {
            self.inputs.insert(self.universe.signal(n));
        }
        self
    }

    /// Declares an output signal.
    #[must_use]
    pub fn output(mut self, name: &str) -> Self {
        self.outputs.insert(self.universe.signal(name));
        self
    }

    /// Declares several output signals.
    #[must_use]
    pub fn outputs<'a, I: IntoIterator<Item = &'a str>>(mut self, names: I) -> Self {
        for n in names {
            self.outputs.insert(self.universe.signal(n));
        }
        self
    }

    /// Adds a state. Adding an existing name is a no-op.
    #[must_use]
    pub fn state(mut self, name: &str) -> Self {
        if !self.states.iter().any(|s| s.name == name) {
            self.states.push(StateData {
                name: name.to_owned(),
                props: PropSet::EMPTY,
            });
        }
        self
    }

    /// Marks a state as initial (adds it if missing).
    #[must_use]
    pub fn initial(mut self, name: &str) -> Self {
        if !self.states.iter().any(|s| s.name == name) {
            self = self.state(name);
        }
        if !self.initial.iter().any(|n| n == name) {
            self.initial.push(name.to_owned());
        }
        self
    }

    /// Attaches an atomic proposition to a state (adds the state if missing).
    #[must_use]
    pub fn prop(mut self, state: &str, prop: &str) -> Self {
        let p = self.universe.prop(prop);
        if !self.states.iter().any(|s| s.name == state) {
            self = self.state(state);
        }
        let s = self
            .states
            .iter_mut()
            .find(|s| s.name == state)
            .expect("state was just ensured");
        s.props.insert(p);
        self
    }

    /// Adds a transition with concrete input/output signal name lists.
    ///
    /// Signals are interned and added to the interface declarations
    /// automatically if missing; states must be declared (or are recorded as
    /// an error at [`build`](Self::build) time).
    #[must_use]
    pub fn transition<'a, A, B>(mut self, from: &str, ins: A, outs: B, to: &str) -> Self
    where
        A: IntoIterator<Item = &'a str>,
        B: IntoIterator<Item = &'a str>,
    {
        let a: SignalSet = ins.into_iter().map(|n| self.universe.signal(n)).collect();
        let b: SignalSet = outs.into_iter().map(|n| self.universe.signal(n)).collect();
        if !a.is_subset(self.inputs) {
            self.errors.push(AutomataError::UndeclaredSignal {
                automaton: self.name.clone(),
                detail: format!(
                    "transition {from}→{to} consumes {} outside declared inputs",
                    self.universe.show_signals(a.difference(self.inputs))
                ),
            });
        }
        if !b.is_subset(self.outputs) {
            self.errors.push(AutomataError::UndeclaredSignal {
                automaton: self.name.clone(),
                detail: format!(
                    "transition {from}→{to} produces {} outside declared outputs",
                    self.universe.show_signals(b.difference(self.outputs))
                ),
            });
        }
        self.transitions.push((
            from.to_owned(),
            Guard::Exact(Label::new(a, b)),
            to.to_owned(),
        ));
        self
    }

    /// Adds a transition with an explicit [`Guard`] (exact or symbolic).
    #[must_use]
    pub fn transition_guard(mut self, from: &str, guard: Guard, to: &str) -> Self {
        self.transitions
            .push((from.to_owned(), guard, to.to_owned()));
        self
    }

    /// Finalizes the automaton.
    ///
    /// # Errors
    ///
    /// Returns the first recorded construction error: undeclared signals,
    /// unknown transition endpoints, or a missing initial state.
    pub fn build(self) -> Result<Automaton> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let find = |name: &str| -> Result<StateId> {
            self.states
                .iter()
                .position(|s| s.name == name)
                .map(|i| StateId(i as u32))
                .ok_or_else(|| AutomataError::UnknownState(name.to_owned()))
        };
        let mut guards = GuardTable::default();
        let mut adj: Vec<Vec<Transition>> = vec![Vec::new(); self.states.len()];
        for (from, guard, to) in self.transitions {
            let f = find(&from)?;
            let t = find(&to)?;
            adj[f.index()].push(Transition {
                guard: guards.intern(guard),
                to: t,
            });
        }
        let initial = self
            .initial
            .iter()
            .map(|n| find(n))
            .collect::<Result<Vec<_>>>()?;
        let m = Automaton::from_rows(
            self.universe,
            self.name,
            (self.inputs, self.outputs),
            self.states,
            (guards, adj),
            initial,
        );
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.transition_count(), 0);
    }

    #[test]
    fn missing_initial_is_error() {
        let u = Universe::new();
        let err = AutomatonBuilder::new(&u, "m")
            .state("s")
            .build()
            .unwrap_err();
        assert_eq!(err, AutomataError::NoInitialState("m".into()));
    }

    #[test]
    fn unknown_transition_state_is_error() {
        let u = Universe::new();
        let err = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s")
            .initial("s")
            .transition("s", ["a"], [], "ghost")
            .build()
            .unwrap_err();
        assert_eq!(err, AutomataError::UnknownState("ghost".into()));
    }

    #[test]
    fn undeclared_signal_is_error() {
        let u = Universe::new();
        let err = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .transition("s", ["mystery"], [], "s")
            .build()
            .unwrap_err();
        assert!(matches!(err, AutomataError::UndeclaredSignal { .. }));
    }

    #[test]
    fn duplicate_state_is_noop() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .state("s")
            .initial("s")
            .initial("s")
            .build()
            .unwrap();
        assert_eq!(m.state_count(), 1);
        assert_eq!(m.initial_states().len(), 1);
    }

    #[test]
    fn props_attach_to_states() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .prop("s", "p")
            .prop("s", "q")
            .build()
            .unwrap();
        let s = m.find_state("s").unwrap();
        assert_eq!(m.props_of(s).len(), 2);
    }
}
