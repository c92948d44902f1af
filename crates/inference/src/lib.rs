//! Regular-inference baselines for comparison with the paper's approach
//! (the related work of Section 6):
//!
//! * [`learn`] — Angluin's `L*` adapted to Mealy machines, with an
//!   observation table over access prefixes and distinguishing suffixes;
//! * [`WMethodOracle`] — the Vasilevskii/Chow conformance-testing
//!   equivalence oracle (exponential in the gap between the state bound and
//!   the hypothesis size) and the cheaper, incomplete
//!   [`RandomWalkOracle`];
//! * [`black_box_check`] — black-box checking / adaptive model checking
//!   (Peled et al.): interleave `L*` with model checking so property
//!   violations can surface before learning completes.
//!
//! These baselines learn an **under-approximation** and need an equivalence
//! oracle to conclude anything; the paper's approach
//! (`muml_core::verify_integration`) starts from a safe
//! **over-approximation** (the chaotic closure) and therefore never needs
//! an equivalence check, stops as soon as the *context-relevant* behaviour
//! is covered, and reports no false negatives. The benches in `muml-bench`
//! quantify this difference.

#![warn(missing_docs)]

mod bbc;
mod lstar;
mod mealy;
mod oracle;
mod wmethod;

pub use bbc::{black_box_check, BbcConfig, BbcResult, BbcVerdict};
pub use lstar::{learn, CexProcessing, EquivalenceOracle, LstarLimits, LstarResult};
pub use mealy::MealyMachine;
pub use oracle::{ComponentOracle, LearnStats};
pub use wmethod::{RandomWalkOracle, WMethodOracle};
