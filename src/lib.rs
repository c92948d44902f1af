//! **muml-integration** — correct legacy component integration for
//! Mechatronic UML by combined formal verification and testing.
//!
//! A from-scratch Rust reproduction of *Giese, Henkler, Hirsch: Combining
//! Formal Verification and Testing for Correct Legacy Component Integration
//! in Mechatronic UML* (Architecting Dependable Systems V, LNCS 5135,
//! 2008). See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every figure and listing.
//!
//! # The problem
//!
//! A Mechatronic UML architecture coordinates real-time components through
//! verified *coordination patterns*. When one component is **legacy code**
//! (no model, only an interface and a binary), neither testing alone (the
//! interaction space of distributed real-time components is too large) nor
//! model checking alone (there is no model to check) suffices.
//!
//! # The method
//!
//! Synthesize a *safe over-approximation* of the legacy component from its
//! interface (the chaotic closure of an incomplete automaton), then
//! iterate: model check the context composed with the abstraction — a
//! successful check **proves** the integration (Lemma 5) without ever
//! learning the whole component; a counterexample becomes a **test input**
//! executed on the real component via deterministic replay — a confirmed
//! trace is a **real fault** with zero false negatives (Lemma 6); a
//! diverging trace refines the abstraction (Definitions 11/12, Lemma 7)
//! and the loop repeats, terminating for finite deterministic components
//! (Theorem 2).
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`automata`] | `muml-automata` | discrete-time I/O automata, composition, refinement `⊑`, chaotic closure, learning |
//! | [`logic`] | `muml-logic` | CCTL model checker with counterexample runs |
//! | [`rtsc`] | `muml-rtsc` | Real-Time Statecharts and queue connectors |
//! | [`arch`] | `muml-arch` | coordination patterns, roles, components, ports |
//! | [`legacy`] | `muml-legacy` | black-box runtime, monitoring, deterministic replay |
//! | [`core`] | `muml-core` | **the paper's contribution**: the iterative synthesis loop |
//! | [`obs`] | `muml-obs` | structured loop telemetry: events, sinks, phase timers |
//! | [`store`] | `muml-store` | content-addressed warm-start store: fingerprinted snapshots of learned abstractions |
//! | [`fleet`] | `muml-fleet` | campaign jobs: wire-stable requests, scenario resolvers, outcomes, deterministic campaign reports |
//! | [`serve`] | `muml-serve` | the verification daemon (priority scheduling, admission, journal, socket API) and `run_fleet`, its in-process batch client |
//! | [`inference`] | `muml-inference` | baselines: `L*`, W-method, black-box checking |
//! | [`railcab`] | `muml-railcab` | the RailCab shuttle-convoy case study |
//!
//! # Quickstart
//!
//! ```
//! use muml_integration::prelude::*;
//!
//! let u = Universe::new();
//! // The known context: sends `go`, expects `done` one period later.
//! let context = AutomatonBuilder::new(&u, "ctx")
//!     .output("go").input("done")
//!     .state("send").initial("send")
//!     .state("wait")
//!     .transition("send", [], ["go"], "wait")
//!     .transition("wait", ["done"], [], "send")
//!     .build().unwrap();
//! // The legacy black box (simulated here by a hidden Mealy machine).
//! let mut legacy = MealyBuilder::new(&u, "legacy")
//!     .input("go").output("done")
//!     .state("idle").initial("idle")
//!     .state("busy")
//!     .rule("idle", ["go"], [], "busy")
//!     .rule("busy", [], ["done"], "idle")
//!     .build().unwrap();
//! // Run the loop through the session builder, collecting every phase of
//! // the verify → test → learn cycle as structured events.
//! let mut sink = Collector::new();
//! let report = IntegrationSession::new(&u, &context)
//!     .unit(LegacyUnit::new(&mut legacy, PortMap::with_default("port")))
//!     .config(IntegrationConfig::default().with_batch_counterexamples(4))
//!     .sink(&mut sink)
//!     .run()
//!     .unwrap();
//! assert!(report.verdict.proven());
//! assert!(sink.kinds().contains(&"model_checked"));
//! ```

#![warn(missing_docs)]

pub use muml_arch as arch;
pub use muml_automata as automata;
pub use muml_core as core;
pub use muml_fleet as fleet;
pub use muml_inference as inference;
pub use muml_legacy as legacy;
pub use muml_logic as logic;
pub use muml_obs as obs;
pub use muml_railcab as railcab;
pub use muml_rtsc as rtsc;
pub use muml_serve as serve;
pub use muml_store as store;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use muml_arch::{
        check_port_refinement, verify_pattern, Component, CoordinationPattern, PatternBuilder,
    };
    pub use muml_automata::{
        chaotic_automaton, chaotic_closure, compose, compose2, refines, Automaton,
        AutomatonBuilder, IncompleteAutomaton, Label, Observation, SignalSet, Universe,
    };
    pub use muml_core::{
        verify_integration, CancelToken, IntegrationConfig, IntegrationReport, IntegrationSession,
        IntegrationVerdict, LegacyUnit,
    };
    pub use muml_fleet::{FleetReport, Job, JobOutcome, JobRegistry, JobRequest, ResolveError};
    pub use muml_legacy::{
        execute_expected_trace, record_live, replay, HiddenMealy, LegacyComponent, MealyBuilder,
        PortMap, StateObservable,
    };
    pub use muml_logic::{check, check_all, parse, Checker, Formula, Verdict};
    pub use muml_obs::{
        Collector, EventSink, FleetEvent, JsonWriter, LoopEvent, Renderer, RunOutcome,
    };
    pub use muml_rtsc::{channel_automaton, flatten, ChannelSpec, CmpOp, RtscBuilder};
    pub use muml_serve::{run_fleet, ServeConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .state("s")
            .initial("s")
            .build()
            .unwrap();
        assert_eq!(m.state_count(), 1);
        assert!(parse(&u, "AG !deadlock").unwrap().is_compositional());
    }
}
