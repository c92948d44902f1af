//! Clocked CTL (CCTL) model checking with counterexample extraction for the
//! discrete-time I/O automata of [`muml_automata`].
//!
//! Implements the property layer of *Giese, Henkler, Hirsch: Combining
//! Formal Verification and Testing for Correct Legacy Component Integration
//! in Mechatronic UML* (Section 2.1/2.4 and the verification step of
//! Section 4.1):
//!
//! * [`Formula`] — CCTL constraints and invariants over atomic propositions,
//!   with clocked bounds `[a,b]` on `F`, `G`, `U` and the deadlock predicate
//!   `δ`; [`Formula::is_compositional`] recognises the timed-ACTL fragment
//!   preserved by refinement and disjoint composition, and
//!   [`Formula::weaken_for_chaos`] applies the `p ↦ p ∨ p′` weakening for
//!   chaotic closures (Section 2.7).
//! * [`parse`] — a concrete syntax, e.g.
//!   `AG !(rearRole.convoy & frontRole.noConvoy)` (the DistanceCoordination
//!   pattern constraint) or `AG (!p1 | AF[1,d] p2)` (a maximal delay).
//! * [`Checker`] — bit-packed satisfaction sets over CSR adjacency with
//!   worklist fixpoints (see the `checker` module docs for the kernel
//!   design); the naive sweep kernel it replaced lives on in
//!   `muml-testkit` as an executable specification.
//! * [`check`] / [`check_all`] — verdicts with finite counterexample *runs*
//!   for the safety fragment; the runs drive the testing step of the
//!   synthesis loop.

#![warn(missing_docs)]

mod ast;
mod bitset;
mod checker;
mod counterexample;
mod error;
mod parser;
mod witness;

pub use ast::{Bound, Formula};
pub use bitset::BitSet;
pub use checker::{CheckStats, Checker};
pub use counterexample::{
    check, check_all, check_all_with, check_with, deadlock_counterexamples, Counterexample, Verdict,
};
pub use error::LogicError;
pub use parser::{parse, ParseError};
pub use witness::witness;
