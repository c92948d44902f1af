//! Benchmark harness: workload generators and experiment runners that
//! regenerate every figure, listing, and experiment table of the paper
//! (see DESIGN.md §3 and the `repro` binary), and the one envelope every
//! measurement is written in ([`envelope`]).

#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod envelope;
pub mod experiments;
pub mod incr;
pub mod kernel;
pub mod probe;
pub mod storm;
pub mod warm;
pub mod workload;
