//! Discrete-time I/O automata kernel for Mechatronic UML legacy-component
//! integration.
//!
//! This crate implements the formal model of Section 2 of *Giese, Henkler,
//! Hirsch: Combining Formal Verification and Testing for Correct Legacy
//! Component Integration in Mechatronic UML* (LNCS 5135, 2008):
//!
//! * [`Automaton`] — the 6-tuple `M = (S, I, O, T, L, Q)` of Definition 1
//!   with the state labelling of Section 2.1; transitions take exactly one
//!   time unit.
//! * [`Run`] — regular and deadlock runs (Definition 2).
//! * [`compose`] / [`compose2`] — synchronous parallel composition
//!   (Definition 3), generalized to n components and computed over reachable
//!   product states only.
//! * [`refines`] — the refinement preorder `⊑` (Definition 4): trace
//!   inclusion plus deadlock-run inclusion, checked exactly with a powerset
//!   construction. Refinement preserves ACTL properties and deadlock
//!   freedom (Lemma 1) and is a precongruence for `∥` (Lemma 2).
//! * [`restrict_interface`] — `M|_{I′/O′/𝓛′}` (used by Lemma 3).
//! * [`IncompleteAutomaton`] — partial knowledge `(S, I, O, T, T̄, Q)` of a
//!   black-box component (Definition 6), with [`IncompleteAutomaton::learn`]
//!   implementing Definitions 11 and 12 and
//!   [`IncompleteAutomaton::observation_conforming`] implementing
//!   Definition 10.
//! * [`chaotic_automaton`] / [`chaotic_closure`] — the maximal behaviour and
//!   the safe over-approximation `chaos(M)` (Definitions 8–9, Theorem 1).
//!
//! The chaotic constructions are *symbolic*: a `*` transition over all
//! `℘(I) × ℘(O)` labels is one [`Guard::Family`] rather than `2^{|I|+|O|}`
//! concrete edges, and composition pins families down against concrete
//! partners per signal, so closed-system products stay small.
//!
//! # Example
//!
//! ```
//! use muml_automata::*;
//!
//! let u = Universe::new();
//! // A legacy component whose interface is known but whose behaviour is not:
//! let inputs = u.signals(["startConvoy"]);
//! let outputs = u.signals(["convoyProposal"]);
//! let m0 = IncompleteAutomaton::trivial(&u, "legacy", inputs, outputs, "noConvoy");
//! // Its initial safe abstraction (Lemma 4):
//! let a0 = chaotic_closure(&m0, None);
//! assert_eq!(a0.state_count(), 4); // (s,0), (s,1), s_∀, s_δ
//! ```

#![warn(missing_docs)]

mod automaton;
mod builder;
mod chaos;
mod compose;
mod csr;
mod determinize;
mod dot;
mod error;
mod incomplete;
mod incremental;
mod label;
mod lazy;
mod minimize;
mod prop;
mod refine;
mod restrict;
mod run;
mod signal;
mod universe;

pub use automaton::{Automaton, StateId, Transition};
pub use builder::AutomatonBuilder;
pub use chaos::{chaotic_automaton, chaotic_closure, CHAOS_PROP, S_ALL, S_DELTA};
pub use csr::Csr;

pub use compose::{
    compose, compose2, compose_reference, project_to_component, ComposeOptions, ComposeStats,
    Composition,
};
pub use determinize::{determinize, determinize_with, DeterminizeOptions};
pub use dot::to_dot;
pub use error::{AutomataError, Result};
pub use incomplete::{
    IncompleteAutomaton, IncompleteSnapshot, LearnDelta, Observation, SnapshotRefusal,
    SnapshotState, SnapshotTransition,
};
pub use incremental::{ClosureCache, CompositionCache, RecomposeInfo, RecomposeMode, WarmCarry};
pub use label::{Guard, GuardId, Label, LabelFamily};
pub use lazy::LazyProduct;
pub use minimize::{equivalence_witness, equivalent, minimize};
pub use prop::{PropId, PropSet, PropSetIter, MAX_PROPS};
pub use refine::{refines, refines_with, RefineOptions, RefinementFailure};
pub use restrict::restrict_interface;
pub use run::{enumerate_runs, Run, RunKind};
pub use signal::{SignalId, SignalSet, SignalSetIter, Subsets, MAX_SIGNALS};
pub use universe::Universe;
