//! The repository benchmark: one command per workload run that checks
//! every output and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-encode --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- pin > perfbench/expected.txt
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

#![forbid(unsafe_code)]

mod expected;
mod jobs;
mod paper;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use expected::Expected;

/// The pinned per-job results, compiled in.
const EXPECTED: &str = include_str!("../expected.txt");

/// Where span dumps and temporary stores go: `out/` beside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans under [`out_dir`] and notes where.
///
/// # Errors
///
/// Any I/O error writing the file.
pub fn write_spans(
    args: &Args,
    tracer: &trace::Tracer,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (jobs, plus cubes replayed where a
    /// workload replays them).
    pub attempted: u64,
    /// Operations that errored or produced a result other than the
    /// pinned one.
    pub failed: u64,
    /// Whether every exact count equalled its pinned value.
    pub exact_ok: bool,
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The arguments of a workload run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's request stream.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Every workload name.
pub const WORKLOADS: [&str; 3] = ["paper-encode", "serve-hit", "serve-churn"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Pins this process, and every thread it starts afterwards, to the
/// first CPU it may run on, using `taskset`. With one closed-loop caller
/// the work is sequential anyway; on one CPU the hand-offs between the
/// client, connection and worker threads never wait for another
/// (possibly idle, virtualised) CPU to wake, which otherwise made
/// `serve-hit` throughput vary by up to 1.8× between runs.
fn pin_to_one_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = allowed
        .trim()
        .split([',', '-'])
        .next()
        .unwrap_or_default()
        .to_string();
    let out = std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu, &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports, from its measured
/// phase, its set-ups and its memory peak. Adds the job count and, when the run has enough
/// samples for it, the tail latency to `notes`.
pub fn end_to_end(
    latencies: &stats::Latencies,
    measured_s: f64,
    tsl: u64,
    tdv: u64,
    setups_s: &[f64],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let all = latencies.all();
    for (class, median) in latencies.class_medians() {
        notes.push(format!("class {class}: median {:.4} ms", median * 1e3));
    }
    notes.push(format!("jobs: {} in {measured_s:.3} s", all.len()));
    notes.push(match stats::tail_percentile(&all, 0.99) {
        Some(p99) => format!("latency_p99_ms: {:.4} ({} samples)", p99 * 1e3, all.len()),
        None => format!(
            "latency_p99_ms: not reported ({} samples, {} needed)",
            all.len(),
            stats::samples_needed(0.99)
        ),
    });
    vec![
        metric("jobs_per_s", latencies.jobs_per_s(), "1/s"),
        metric("latency_p50_ms", latencies.p50() * 1e3, "ms"),
        metric("tsl_vectors", tsl as f64, "vectors"),
        metric("tdv_bits", tdv as f64, "bits"),
        metric("setup_s", stats::median(setups_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The per-layer figures of a traced run. Counts and busy times are per
/// pass (one pass of the workload's fixed job mix); a layer a workload
/// does not exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub encoder_calls: f64,
    pub encoder_busy_s: f64,
    pub encoder_share: f64,
    pub encoder_seeds: f64,
    pub encoder_seeds_per_s: f64,
    pub synthesis_calls: f64,
    pub synthesis_busy_s: f64,
    pub generate_s: f64,
    pub setup_synthesis_s: f64,
    pub setup_encoder_s: f64,
    pub embedding_busy_s: f64,
    pub mean_embeddings: f64,
    pub segments_busy_s: f64,
    pub useful: f64,
    pub codec_encode_busy_s: f64,
    pub codec_decode_busy_s: f64,
    pub codec_raw_bytes: f64,
    pub codec_wire_bytes: f64,
    pub protocol_busy_s: f64,
    pub protocol_messages: f64,
    pub client_rtt_s: f64,
    pub server_service_s: f64,
    pub cache_key_busy_s: f64,
    pub memory_hits: f64,
    pub disk_hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub store_writes: f64,
    pub store_bytes: f64,
    pub store_put_busy_s: f64,
    pub store_get_busy_s: f64,
    pub job_self_s: f64,
}

impl Layers {
    /// The per-layer metrics, plus the tracer's own span count and
    /// overhead as a share of the traced run's `traced_s` seconds.
    pub fn metrics(&self, tracer: &trace::Tracer, traced_s: f64) -> Vec<Metric> {
        let lookups = self.memory_hits + self.disk_hits + self.misses;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        vec![
            metric("encoder.calls", self.encoder_calls, "count"),
            metric("encoder.busy_s", self.encoder_busy_s, "s"),
            metric("encoder.share", self.encoder_share, "ratio"),
            metric("encoder.seeds", self.encoder_seeds, "count"),
            metric("encoder.seeds_per_s", self.encoder_seeds_per_s, "1/s"),
            metric("synthesis.calls", self.synthesis_calls, "count"),
            metric("synthesis.busy_s", self.synthesis_busy_s, "s"),
            metric("testdata.generate_s", self.generate_s, "s"),
            metric("setup.synthesis_s", self.setup_synthesis_s, "s"),
            metric("setup.encoder_s", self.setup_encoder_s, "s"),
            metric("embedding.busy_s", self.embedding_busy_s, "s"),
            metric("embedding.mean_embeddings", self.mean_embeddings, "count"),
            metric("segments.busy_s", self.segments_busy_s, "s"),
            metric("segments.useful", self.useful, "count"),
            metric("codec.encode_busy_s", self.codec_encode_busy_s, "s"),
            metric("codec.decode_busy_s", self.codec_decode_busy_s, "s"),
            metric("codec.raw_bytes", self.codec_raw_bytes, "B"),
            metric("codec.wire_bytes", self.codec_wire_bytes, "B"),
            metric(
                "codec.ratio",
                ratio(self.codec_raw_bytes, self.codec_wire_bytes),
                "ratio",
            ),
            metric("protocol.busy_s", self.protocol_busy_s, "s"),
            metric("protocol.messages", self.protocol_messages, "count"),
            metric("client.rtt_s", self.client_rtt_s, "s"),
            metric("server.service_s", self.server_service_s, "s"),
            metric(
                "client.wait_s",
                (self.client_rtt_s - self.server_service_s).max(0.0),
                "s",
            ),
            metric("cache.key_busy_s", self.cache_key_busy_s, "s"),
            metric("cache.memory_hits", self.memory_hits, "count"),
            metric("cache.disk_hits", self.disk_hits, "count"),
            metric("cache.misses", self.misses, "count"),
            metric("cache.evictions", self.evictions, "count"),
            metric(
                "cache.hit_ratio",
                ratio(self.memory_hits + self.disk_hits, lookups),
                "ratio",
            ),
            metric("store.writes", self.store_writes, "count"),
            metric("store.bytes", self.store_bytes, "B"),
            metric("store.put_busy_s", self.store_put_busy_s, "s"),
            metric("store.get_busy_s", self.store_get_busy_s, "s"),
            metric("job.self_s", self.job_self_s, "s"),
            metric("trace.spans", tracer.len() as f64, "count"),
            metric(
                "trace.overhead_share",
                tracer.len() as f64 * trace::Tracer::cost_per_span() / traced_s,
                "ratio",
            ),
        ]
    }
}

fn json_result(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.exact_ok && result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn pin() -> Result<(), String> {
    println!("# Pinned results of every benchmark job: `cargo run --release -- pin`.");
    println!("# A run counts a job failed when its seeds, tdv, tsl or digest differ.");
    let mut seen = BTreeMap::new();
    for def in paper::jobs() {
        let set = paper::encodable_input(&def).map_err(|e| e.to_string())?;
        let (_, e) = jobs::pin_flow(&def.engine(), &set).map_err(|e| e.to_string())?;
        seen.insert(def.id(), e);
    }
    for def in serve::all_jobs() {
        let (_, e) = jobs::pin_flow(&def.engine(), &def.test_set()).map_err(|e| e.to_string())?;
        seen.insert(def.id(), e);
    }
    for (id, e) in seen {
        println!("job {id} {e}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("pin") {
        return match pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let pinned = pin_to_one_cpu();
    if let Err(e) = &pinned {
        eprintln!("perfbench: running unpinned ({e})");
    }
    let expected: BTreeMap<String, Expected> = match expected::parse(EXPECTED) {
        Ok(map) => map,
        Err(e) => {
            eprintln!("perfbench: expected.txt: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "paper-encode" => paper::run(&args, &expected),
        "serve-hit" => serve::run_hit(&args, &expected),
        _ => serve::run_churn(&args, &expected),
    };
    match outcome {
        Ok(result) => {
            if let Ok(cpu) = &pinned {
                println!("pinned to cpu {cpu}");
            }
            for note in &result.notes {
                println!("{note}");
            }
            for m in &result.metrics {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_result(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload serve-hit --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-hit");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-hit --seed 1 --seconds 0 --trace 0",
            "--workload serve-hit --seed 1 --seconds 1 --trace 2",
            "--workload serve-hit --seed x --seconds 1 --trace 0",
            "--workload serve-hit --seconds 1 --trace 0",
            "--workload serve-hit --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 3,
            failed: 0,
            exact_ok: true,
            metrics: vec![metric("setup_s", 0.5, "s")],
            notes: vec![],
        };
        assert_eq!(
            json_result(&result),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn compiled_in_expected_values_parse_and_cover_every_job() {
        let map = expected::parse(EXPECTED).unwrap();
        for def in paper::jobs().into_iter().chain(serve::all_jobs()) {
            assert!(map.contains_key(&def.id()), "{} is not pinned", def.id());
        }
    }
}
