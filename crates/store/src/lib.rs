//! Persistent content-addressed store for learned behaviour models.
//!
//! The integration loop's expensive artifact is the learned
//! [`IncompleteAutomaton`](muml_automata::IncompleteAutomaton): every
//! transition in it was paid for with driven test steps on the real legacy
//! component. Legacy code changes rarely between verification campaigns, so
//! this crate persists the learned model across runs and seeds the next
//! session's initial abstraction from it instead of starting from chaos.
//!
//! Three layers:
//!
//! * [`ComponentSignature`] — a canonicalized rendering of a legacy
//!   component's interface and interpreter rule set, hashed (FNV-1a 64) into
//!   a content-address. Rule reordering and whitespace-equivalent names do
//!   not change the fingerprint; any semantic rule edit does.
//! * [`Snapshot`] — a versioned, hand-rolled JSON image (no serde in this
//!   workspace) of the learned automaton and the quarantine records of the
//!   run that produced it.
//! * [`Store`] — a directory of snapshot files keyed by fingerprint, with a
//!   per-component index for dirty-cone invalidation when the component
//!   *changed*, coarse file locking for cross-process sharing, and atomic
//!   rename-on-write. Loading never fails hard: every problem degrades to a
//!   typed [`MissReason`] and the session cold-starts.
//! * [`StoreIo`] — the I/O seam beneath the store. [`RealIo`] carries the
//!   fsync discipline (temp-file `sync_data` + parent-directory sync around
//!   the rename) that makes writes crash-durable; [`FaultyIo`] is the seeded
//!   fault injector (`repro chaos`) that drives the degradation ladder with
//!   torn writes, short reads, `ENOSPC`, rename and flock failures.

#![warn(missing_docs)]

mod io;
mod signature;
mod snapshot;
mod store;

pub use io::{FaultKind, FaultProfile, FaultyIo, InjectedFault, RealIo, StoreIo};
pub use signature::{ComponentSignature, RuleSignature};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use store::{MissReason, Store, StoreError, StoreLookup};
