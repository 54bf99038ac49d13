//! Test cubes, scan-chain configuration and test sets.
//!
//! The DATE 2008 State Skip LFSR paper compresses *pre-computed test
//! sets* for IP cores: collections of partially specified test vectors
//! (*test cubes*, with 0/1/X positions) destined for a core's scan
//! chains. This crate provides:
//!
//! * [`TestCube`] — a care-mask/value-plane representation of a cube
//!   with matching, compatibility and merge operations.
//! * [`ScanConfig`] — the scan-chain geometry (`m` chains of length
//!   `r`) and the cell ↔ (chain, depth) ↔ load-cycle mapping that
//!   links cube bits to decompressor clock cycles.
//! * [`TestSet`] — a cube container with the statistics the encoding
//!   algorithms key on (`smax`, specified-bit totals).
//! * [`CubeProfile`] / [`generate_cubes`] — a statistical cube
//!   generator with profiles mimicking the paper's five ISCAS'89
//!   benchmark test sets, which are not redistributable.
//! * Text serialisation in an Atalanta-like `01X` format
//!   (`chains <m> depth <r>` header + one cube row per line).
//! * [`WorkloadRegistry`] — the named workload corpus: checked-in
//!   circuit + cube-set files and the five paper profiles, addressable
//!   by name from benches, tests, docs and the CLI.
//!
//! # Example
//!
//! ```
//! use ss_testdata::{ScanConfig, TestCube, TestSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ScanConfig::new(4, 8)?; // 4 chains x 8 cells
//! let cube: TestCube = "1XXX0XX1XXXXXXXXXXXXXXXXXXXXXXXX".parse()?;
//! let mut set = TestSet::new(config);
//! set.push(cube)?;
//! assert_eq!(set.smax(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cube;
mod gen;
mod power;
mod proptests;
mod registry;
mod scan;
mod set;

pub use cube::{ParseCubeError, TestCube};
pub use gen::{generate_cubes, generate_test_set, CubeProfile};
pub use power::{max_wtm, sequence_power, weighted_transitions, PowerReport};
pub use registry::{FileProvenance, Workload, WorkloadRegistry, WorkloadSource, CORPUS_SEED};
pub use scan::{ScanConfig, ScanConfigError};
pub use set::{ParseTestSetError, TestSet, TestSetError, TestSetStats};
