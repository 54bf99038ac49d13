//! Dense linear algebra over GF(2), the two-element field.
//!
//! This crate is the arithmetic substrate of the `state-skip` workspace,
//! a reproduction of *"State Skip LFSRs: Bridging the Gap between Test
//! Data Compression and Test Set Embedding for IP Cores"* (DATE 2008).
//! Everything an LFSR-reseeding flow needs lives here:
//!
//! * [`BitVec`] — a dense, word-packed vector of bits with XOR/AND
//!   arithmetic, the representation of GF(2) row vectors and LFSR states.
//! * [`BitMatrix`] — a row-major matrix of [`BitVec`]s with
//!   multiplication, exponentiation (the `T^k` powering at the heart of
//!   State Skip circuits), rank, and inversion.
//! * [`Gf2Poly`] and [`primitive_poly`] — polynomials over GF(2) and a
//!   table of primitive polynomials for every degree an LFSR in this
//!   workspace might use.
//! * [`PackedPatterns`] — bit-sliced pattern blocks (64 patterns per
//!   `u64` lane), the storage format of the word-parallel fault
//!   simulation and embedding-detection kernels.
//! * [`IncrementalSolver`] — a row-echelon GF(2) system solver with
//!   checkpoint/rollback, used to encode test cubes into LFSR seeds.
//! * [`berlekamp_massey`] — shortest-LFSR synthesis, used in tests to
//!   cross-check that generated sequences really have the intended
//!   characteristic polynomial.
//!
//! # Example
//!
//! Solve a small GF(2) system incrementally:
//!
//! ```
//! use ss_gf2::{BitVec, IncrementalSolver, SolveOutcome};
//!
//! let mut solver = IncrementalSolver::new(3);
//! // a0 ^ a1 = 1
//! let mut row = BitVec::zeros(3);
//! row.set(0, true);
//! row.set(1, true);
//! assert_eq!(solver.insert(&row, true), SolveOutcome::Added);
//! // a1 ^ a2 = 0
//! let mut row = BitVec::zeros(3);
//! row.set(1, true);
//! row.set(2, true);
//! assert_eq!(solver.insert(&row, false), SolveOutcome::Added);
//! let solution = solver.solve_with(|_| false);
//! assert!(solution.get(0) ^ solution.get(1));
//! assert_eq!(solution.get(1), solution.get(2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod berlekamp;
mod bitvec;
mod matrix;
mod packed;
mod poly;
mod proptests;
mod solver;
pub mod words;

pub use berlekamp::berlekamp_massey;
pub use bitvec::BitVec;
pub use matrix::BitMatrix;
pub use packed::{PackedPatterns, PATTERNS_PER_BLOCK};
pub use poly::{primitive_poly, Gf2Poly, PrimitivePolyError};
pub use solver::{AffineSpace, IncrementalSolver, SolveOutcome, SolverCheckpoint};
