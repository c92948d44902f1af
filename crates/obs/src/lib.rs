//! Structured telemetry for the iterative synthesis loop.
//!
//! The paper's central artefacts are *per-iteration traces* of the
//! verify → test → learn loop (Figure 2, Listings 1.1–1.5), and its claims
//! C3/C4/C5 are statements about iteration counts, explored state space,
//! and learned knowledge. This crate makes every phase of the loop
//! observable:
//!
//! * [`LoopEvent`] — one variant per loop phase: initial abstraction,
//!   composition (with product-state and symbolic-family expansion counts),
//!   model checking (fixpoint iterations, labeled states), counterexample
//!   extraction, replay execution, learning deltas (Δ|T|, Δ|T̄|), and
//!   frontier probes.
//! * [`EventSink`] — the consumer interface, with [`Collector`]
//!   (in-memory), [`Renderer`] (human-readable, in the style of the
//!   paper's listings), [`JsonWriter`] (newline-delimited JSON), and
//!   [`NullSink`] implementations. [`Tee`] fans one stream out to two
//!   sinks.
//! * [`Phase`] / [`PhaseTimings`] / [`PhaseTimer`] — monotonic per-phase
//!   timers, aggregated by the driver into its run statistics.
//! * [`fnv1a64`] — the FNV-1a-64 content hash the store's snapshot names
//!   and the serve journal's frame checksums share.
//! * [`json`] — a dependency-free JSON value type with an encoder and a
//!   parser. (The workspace builds hermetically without a crate registry,
//!   so `serde`/`serde_json` are intentionally not used; this module is the
//!   subset the telemetry format needs, and round-trips through itself.)

#![warn(missing_docs)]

mod event;
mod fleet;
mod hash;
pub mod json;
mod render;
mod sink;
mod timer;

pub use event::{LoopEvent, RunOutcome};
pub use fleet::{render_fleet_event, FleetCollector, FleetEvent, FleetSink, NullFleetSink};
pub use hash::fnv1a64;
pub use render::{render_event, Renderer};
pub use sink::{Collector, EventSink, JsonWriter, NullSink, SharedSink, Tee};
pub use timer::{Phase, PhaseTimer, PhaseTimings};
