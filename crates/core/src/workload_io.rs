//! File-based workload ingestion: pairing a `.bench` netlist with a
//! cube-set file and driving the staged [`Engine`](crate::Engine) from
//! the pair.
//!
//! This is the integration point between the circuit layer
//! (`ss_circuit::parse_bench`), the workload layer
//! (`ss_testdata::TestSet::from_text`) and the compression engine: the
//! `state-skip run --bench <file> --cubes <file>` CLI path, the golden
//! conformance harness and any user-supplied workload all enter the
//! system here.
//!
//! Besides parsing and cross-validating the pair, this module closes
//! the loop the paper's experiments close: [`sequence_coverage`]
//! fault-simulates the vectors the decompressor actually emits against
//! the ingested netlist, so a workload run reports real stuck-at
//! coverage, not just compression numbers.

use std::error::Error;
use std::fmt;

use ss_circuit::{parse_bench, BenchCircuit, BenchParseError, FaultList, FaultSimulator, Netlist};
use ss_gf2::{BitVec, PackedPatterns};
use ss_testdata::{ParseTestSetError, TestSet};

use crate::artifacts::{HardwareCtx, PipelineReport};
use crate::expand::PackedWindowExpander;
use crate::SchemeError;

/// Error ingesting a `.bench` + cube-file workload pair.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadIoError {
    /// The `.bench` netlist failed to parse.
    Bench(BenchParseError),
    /// The cube-set file failed to parse.
    Cubes(ParseTestSetError),
    /// The cube geometry cannot host the circuit: fewer scan cells
    /// than the netlist has inputs.
    Geometry {
        /// Scan cells declared by the cube file header.
        cells: usize,
        /// Inputs (PIs + scan cells) of the parsed netlist.
        inputs: usize,
    },
}

impl fmt::Display for WorkloadIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadIoError::Bench(e) => write!(f, "bench file: {e}"),
            WorkloadIoError::Cubes(e) => write!(f, "cube file: {e}"),
            WorkloadIoError::Geometry { cells, inputs } => write!(
                f,
                "cube file provides {cells} scan cells but the circuit needs {inputs} inputs"
            ),
        }
    }
}

impl Error for WorkloadIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadIoError::Bench(e) => Some(e),
            WorkloadIoError::Cubes(e) => Some(e),
            WorkloadIoError::Geometry { .. } => None,
        }
    }
}

impl From<BenchParseError> for WorkloadIoError {
    fn from(e: BenchParseError) -> Self {
        WorkloadIoError::Bench(e)
    }
}

impl From<ParseTestSetError> for WorkloadIoError {
    fn from(e: ParseTestSetError) -> Self {
        WorkloadIoError::Cubes(e)
    }
}

/// A validated circuit + cube-set pair, ready for the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FileWorkload {
    /// The parsed full-scan circuit.
    pub circuit: BenchCircuit,
    /// The parsed cube set (width = the scan geometry's cell count,
    /// which may exceed the circuit's input count by padding cells).
    pub set: TestSet,
}

/// Parses a `.bench` netlist and a cube-set file into a cross-checked
/// [`FileWorkload`].
///
/// The cube file's scan geometry must provide at least as many cells
/// as the netlist has inputs; surplus cells are padding (balanced
/// chains rarely divide the input count exactly) and are ignored when
/// the expanded vectors are applied to the circuit.
///
/// # Errors
///
/// [`WorkloadIoError`] for a malformed netlist, a malformed cube file
/// or an impossible geometry. Never panics.
///
/// # Example
///
/// ```
/// use ss_core::parse_workload;
/// use ss_testdata::WorkloadRegistry;
///
/// let w = WorkloadRegistry::find("tiny-1").unwrap();
/// let loaded = parse_workload(w.bench_text().unwrap(), w.cubes_text().unwrap())?;
/// assert!(loaded.set.config().cells() >= loaded.circuit.netlist.input_count());
/// # Ok::<(), ss_core::WorkloadIoError>(())
/// ```
pub fn parse_workload(bench_text: &str, cubes_text: &str) -> Result<FileWorkload, WorkloadIoError> {
    let circuit = parse_bench(bench_text)?;
    let set = TestSet::from_text(cubes_text)?;
    let cells = set.config().cells();
    let inputs = circuit.netlist.input_count();
    if cells < inputs {
        return Err(WorkloadIoError::Geometry { cells, inputs });
    }
    Ok(FileWorkload { circuit, set })
}

/// Stuck-at coverage of the decompressed test sequences, measured by
/// fault simulation against an ingested netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Collapsed stuck-at faults simulated.
    pub faults: usize,
    /// Vectors in the full Normal-mode window sequence
    /// (`seeds x window`).
    pub window_vectors: usize,
    /// Coverage of that full window sequence.
    pub window_coverage: f64,
    /// Vectors actually applied under State Skip (useful segments
    /// only; skipped segments fly by at `k` states per clock without
    /// touching the scan chains).
    pub applied_vectors: usize,
    /// Coverage of the applied State Skip sequence.
    pub applied_coverage: f64,
}

/// Fault-simulates the decompressor's output sequences against
/// `netlist` and reports stuck-at coverage — for the full window
/// sequence and for the vectors the State Skip traversal actually
/// applies.
///
/// Expanded vectors are as wide as the scan geometry; only the first
/// `netlist.input_count()` positions drive the circuit (the rest are
/// chain-balancing padding).
///
/// # Errors
///
/// [`SchemeError::BadConfig`] when the scan geometry is narrower than
/// the netlist's input count, or when `ctx` was synthesised with a
/// different LFSR size than the one `report`'s seeds were encoded
/// for. (A context with the right size but different hardware seeds
/// is indistinguishable from the original and will silently describe
/// a different decompressor — pass the same engine configuration that
/// produced the report.)
pub fn sequence_coverage(
    netlist: &Netlist,
    ctx: &HardwareCtx,
    report: &PipelineReport,
) -> Result<CoverageReport, SchemeError> {
    let scan = ctx.scan();
    let inputs = netlist.input_count();
    if scan.cells() < inputs {
        return Err(SchemeError::bad_config(format!(
            "scan geometry has {} cells but the netlist needs {inputs} inputs",
            scan.cells()
        )));
    }
    if ctx.lfsr_size() != report.lfsr_size {
        return Err(SchemeError::bad_config(format!(
            "hardware context has a {}-bit LFSR but the report was encoded for {} bits",
            ctx.lfsr_size(),
            report.lfsr_size
        )));
    }

    let window = report.window;
    let segment = report.segment;
    let expander = PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), scan, window)?;
    let mut window_rows: Vec<BitVec> = Vec::with_capacity(report.seeds * window);
    let mut applied_rows: Vec<BitVec> = Vec::new();
    for (s, seed) in report.encoding.seeds.iter().enumerate() {
        // truncate each vector to the circuit's inputs word-wise; the
        // dropped tail is chain-balancing padding
        let mut vectors = expander.expand(&seed.seed)?.to_vectors();
        for v in &mut vectors {
            v.resize(inputs);
        }
        for seg in report.plan.useful_segments(s) {
            let lo = seg * segment;
            let hi = ((seg + 1) * segment).min(window);
            applied_rows.extend_from_slice(&vectors[lo..hi]);
        }
        window_rows.append(&mut vectors);
    }

    let faults = FaultList::collapsed(netlist);
    let fsim = FaultSimulator::new(netlist);
    let window_packed = PackedPatterns::from_vectors(inputs, &window_rows);
    let applied_packed = PackedPatterns::from_vectors(inputs, &applied_rows);
    Ok(CoverageReport {
        faults: faults.len(),
        window_vectors: window_rows.len(),
        window_coverage: fsim.coverage_packed(&faults, &window_packed),
        applied_vectors: applied_rows.len(),
        applied_coverage: fsim.coverage_packed(&faults, &applied_packed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoded, Engine};
    use ss_circuit::write_bench;
    use ss_circuit::{generate_uncompacted_test_set, random_circuit, AtpgConfig, CircuitSpec};
    use ss_testdata::{ScanConfig, TestCube};

    /// Builds a tiny circuit + cube-set pair entirely in memory.
    fn tiny_pair(chains: usize) -> (String, String) {
        let circuit = random_circuit(&CircuitSpec::tiny(), 5);
        let outcome = generate_uncompacted_test_set(&circuit, &AtpgConfig::default(), 5);
        let scan = ScanConfig::for_cells(chains, circuit.input_count()).unwrap();
        let mut set = TestSet::new(scan);
        for cube in &outcome.cubes {
            let mut padded = TestCube::all_x(scan.cells());
            for (i, bit) in cube.iter_specified() {
                padded.set(i, bit);
            }
            set.push(padded).unwrap();
        }
        (write_bench(&circuit, "tiny-5"), set.to_text())
    }

    #[test]
    fn parse_workload_accepts_a_generated_pair() {
        let (bench, cubes) = tiny_pair(4);
        let w = parse_workload(&bench, &cubes).unwrap();
        assert_eq!(w.circuit.netlist.input_count(), 12);
        assert_eq!(w.set.config().cells(), 12);
        assert!(!w.set.is_empty());
    }

    #[test]
    fn parse_workload_rejects_too_narrow_geometry() {
        let (bench, _) = tiny_pair(4);
        let cubes = "chains 2 depth 2\n01XX\n";
        let err = parse_workload(&bench, cubes).unwrap_err();
        assert_eq!(
            err,
            WorkloadIoError::Geometry {
                cells: 4,
                inputs: 12
            }
        );
        // and the parse errors pass through with their own flavour
        assert!(matches!(
            parse_workload("INPUT(", cubes),
            Err(WorkloadIoError::Bench(_))
        ));
        assert!(matches!(
            parse_workload(&bench, "not a header"),
            Err(WorkloadIoError::Cubes(_))
        ));
    }

    #[test]
    fn sequence_coverage_detects_faults_and_applied_is_a_subset() {
        let (bench, cubes) = tiny_pair(4);
        let w = parse_workload(&bench, &cubes).unwrap();
        let engine = Engine::builder()
            .window(16)
            .segment(4)
            .speedup(4)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&w.set).unwrap();
        let (encodable, _) = ctx.encodable_subset(&w.set);
        let report = Encoded::from_ctx(&encodable, ctx)
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();
        let ctx = engine.synthesize(&w.set).unwrap();
        let cov = sequence_coverage(&w.circuit.netlist, &ctx, &report).unwrap();
        assert!(cov.faults > 0);
        assert_eq!(cov.window_vectors, report.seeds * 16);
        assert!(cov.applied_vectors <= cov.window_vectors);
        assert!(cov.applied_vectors > 0);
        assert!(cov.window_coverage > 0.5, "window {}", cov.window_coverage);
        assert!(cov.applied_coverage > 0.0);
        assert!(cov.applied_coverage <= cov.window_coverage + 1e-12);
    }

    #[test]
    fn padded_geometry_truncates_cleanly() {
        // 5 chains x 3 = 15 cells for a 12-input circuit
        let (bench, cubes) = tiny_pair(5);
        let w = parse_workload(&bench, &cubes).unwrap();
        assert_eq!(w.set.config().cells(), 15);
        let engine = Engine::builder()
            .window(8)
            .segment(2)
            .speedup(3)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&w.set).unwrap();
        let (encodable, _) = ctx.encodable_subset(&w.set);
        let report = Encoded::from_ctx(&encodable, ctx)
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();
        let ctx = engine.synthesize(&w.set).unwrap();
        let cov = sequence_coverage(&w.circuit.netlist, &ctx, &report).unwrap();
        assert!(cov.window_coverage > 0.0);
    }
}
