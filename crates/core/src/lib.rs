//! State Skip LFSR test set embedding — the primary contribution of
//! *"State Skip LFSRs: Bridging the Gap between Test Data Compression
//! and Test Set Embedding for IP Cores"* (Tenentes, Kavousianos,
//! Kalligeros; DATE 2008), reproduced in Rust.
//!
//! # The flow
//!
//! 1. **Window-based LFSR reseeding** ([`WindowEncoder`]): every n-bit
//!    seed is expanded on-chip into a window of `L` pseudorandom test
//!    vectors; a greedy algorithm packs as many test cubes as possible
//!    into each window by solving GF(2) systems over the seed bits
//!    (Section 2 of the paper). High compression, but the test
//!    sequence grows to `seeds x L` vectors.
//! 2. **Fortuitous embedding detection** ([`EmbeddingMap`]): after the
//!    seeds are fixed, sparse cubes turn out to be embedded in many
//!    window positions by chance; the reduction step exploits this.
//! 3. **Segment labelling and selection** ([`SegmentPlan`]): windows
//!    are cut into `L/S` segments; a set-cover pass picks the minimum
//!    useful segments; seeds are grouped by useful-segment count and
//!    truncated after their last useful segment (Section 3.2).
//! 4. **State Skip traversal** ([`TslReport`]): useless segments are
//!    traversed with `T^k` jumps — `k` states per clock — shrinking
//!    the applied test sequence by up to the paper's reported 96%
//!    while storing exactly the same seeds (same TDV).
//! 5. **Decompression architecture** ([`Decompressor`]): the counter
//!    pipeline + Mode Select unit of Fig. 3, simulated cycle-accurately
//!    to prove every cube is really applied.
//!
//! # Quickstart: the staged [`Engine`]
//!
//! [`Engine::builder`] validates the knobs once; each stage returns a
//! typed artifact you can inspect before continuing:
//!
//! ```
//! use ss_core::Engine;
//! use ss_testdata::{generate_test_set, CubeProfile};
//!
//! # fn main() -> Result<(), ss_core::SchemeError> {
//! let set = generate_test_set(&CubeProfile::mini(), 1);
//! let engine = Engine::builder().window(40).segment(5).speedup(8).build()?;
//!
//! // all stages at once ...
//! let report = engine.run(&set)?;
//! assert!(report.tsl_proposed < report.tsl_original);
//!
//! // ... or stop and inspect between stages
//! let encoded = engine.encode(&set)?;       // seeds + TDV fixed here
//! let seeds = encoded.seed_count();
//! let embedded = encoded.embed();           // fortuitous embeddings
//! let segmented = embedded.segment();       // minimal useful segments
//! let tsl = segmented.tsl();                // State Skip traversal
//! assert_eq!(report.tsl_proposed, tsl.vectors);
//! assert_eq!(report.seeds, seeds);
//! # Ok(())
//! # }
//! ```
//!
//! # Comparing schemes
//!
//! The paper's tables compare State Skip against classical reseeding
//! and pure test set embedding. All three are [`CompressionScheme`]
//! implementations, runnable as trait objects through
//! [`Engine::run_all`] (in parallel, against one shared
//! [`HardwareCtx`]) and tabulated with [`comparison_table`]:
//!
//! ```
//! use ss_core::{comparison_table, Baseline11, ClassicalReseeding, CompressionScheme,
//!               Engine, StateSkip};
//! use ss_testdata::{generate_test_set, CubeProfile};
//!
//! # fn main() -> Result<(), ss_core::SchemeError> {
//! let set = generate_test_set(&CubeProfile::mini(), 1);
//! let engine = Engine::builder().window(24).segment(4).speedup(6).build()?;
//! let schemes: Vec<Box<dyn CompressionScheme>> = vec![
//!     Box::new(StateSkip),
//!     Box::new(ClassicalReseeding),
//!     Box::new(Baseline11),
//! ];
//! let reports = engine.run_all(&schemes, &set)?;
//! println!("{}", comparison_table(&reports));
//! assert_eq!(reports.len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! Multi-core SoCs run all cores in parallel with
//! [`SocPlan::run_batch`].
//!
//! # File workloads
//!
//! User-supplied workloads enter through [`parse_workload`] (an
//! ISCAS'89 `.bench` netlist + a `01X` cube-set file, cross-validated)
//! and [`sequence_coverage`] fault-simulates the decompressor's actual
//! output against the ingested netlist; named ready-made pairs live in
//! `ss_testdata::WorkloadRegistry`. The `state-skip` binary exposes the
//! same path as `run --bench <f> --cubes <f>` and `workloads`.

#![forbid(unsafe_code)]
#![forbid(clippy::too_many_arguments)]
#![deny(missing_docs)]

mod artifacts;
mod baseline11;
mod builder;
mod cost;
mod decompressor;
mod embedding;
mod encoder;
mod error;
mod expand;
mod expr_table;
mod literature;
mod modeselect;
mod report;
mod rtl;
mod scheme;
mod soc;
mod workload_io;

pub use artifacts::{Embedded, Encoded, HardwareCtx, PipelineReport, Segmented, MAX_WINDOW_CELLS};
pub use baseline11::baseline11_tsl;
pub use builder::{Engine, EngineBuilder, EngineConfig};
pub use cost::{DecompressorCost, DecompressorCostInputs};
pub use decompressor::{Decompressor, DecompressorTrace};
pub use embedding::EmbeddingMap;
pub use encoder::{EncodeError, EncodedSeed, EncodingResult, Placement, WindowEncoder};
pub use error::SchemeError;
pub use expand::{try_expand_seed, PackedWindowExpander};
pub use expr_table::ExprTable;
pub use literature::{
    lit_table3, lit_table4, LitEmbeddingRow, LitMethod, LitTable4Row, PaperSection4, Table1Row,
    Table2Row, PAPER_FIG4_BARS, PAPER_SECTION4, PAPER_TABLE1, PAPER_TABLE2,
};
pub use modeselect::ModeSelect;
pub use report::{improvement_percent, Table};
pub use rtl::emit_decompressor_rtl;
pub use scheme::{
    comparison_table, Baseline11, ClassicalReseeding, CompressionScheme, SchemeReport, StateSkip,
};
pub use soc::{estimated_core_area_ge, SocCore, SocPlan};
pub use workload_io::{
    parse_workload, sequence_coverage, CoverageReport, FileWorkload, WorkloadIoError,
};

/// Segment labelling, selection and TSL accounting (Section 3.2).
pub mod segments;

pub use segments::{SegmentPlan, TslReport};
