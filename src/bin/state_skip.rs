//! `state-skip` — command-line driver for the State Skip compression
//! flow, built on the staged `Engine` API.
//!
//! ```text
//! state-skip stats     <test_set.txt>               # local set statistics
//! state-skip stats     [--addr A]                   # server telemetry
//! state-skip run       <test_set.txt> [L] [S] [k] [--threads N]
//! state-skip run       --bench <f.bench> --cubes <f.cubes> [L] [S] [k] [--threads N]
//! state-skip compare   <test_set.txt> [L] [S] [k] [--threads N]
//! state-skip compare   --bench <f.bench> --cubes <f.cubes> [L] [S] [k] [--threads N]
//! state-skip sweep     <test_set.txt> [L]
//! state-skip rtl       <test_set.txt> [k]
//! state-skip gen       <profile> <seed>             # emit a synthetic set
//! state-skip workloads                              # list the corpus
//! state-skip serve     [--addr A] [--workers N] [--cache-mb M] [--queue N] [--store-dir D]
//!                      [--peers A1,A2,.. --shard-id I] [--replicas R] [--max-conns N]
//! state-skip submit    [--addr A | --addr A1,A2,..] (--workload <name> | --bench <f> --cubes <f> | <set.txt>) [L] [S] [k] [--trace-id T]
//! state-skip reconfigure [--addr A1,A2,..] --epoch E --peers P1,P2,..
//! state-skip trace     <trace-id> [--addr A1,A2,..]  # stitched cross-shard timeline
//! ```
//!
//! Test sets use the text format of `ss_testdata::TestSet`
//! (`chains <m> depth <r>` header + one `01X` cube per line); netlists
//! use the ISCAS'89 `.bench` format of `ss_circuit::parse_bench`. The
//! `--bench/--cubes` form runs the engine on a user-supplied circuit +
//! cube-set pair and closes the loop with fault simulation of the
//! decompressed sequences.
//!
//! `serve` runs the long-lived compression service of `ss_server`
//! (bounded queue, worker pool, content-addressed artifact cache);
//! `submit` sends one workload to a running service and waits for the
//! result. This binary lives in the workspace facade package so it can
//! see both `ss_core` and `ss_server`.

use std::io::Write as _;
use std::process::ExitCode;

use ss_core::{
    comparison_table, emit_decompressor_rtl, improvement_percent, parse_workload,
    sequence_coverage, Baseline11, ClassicalReseeding, CompressionScheme, Engine, StateSkip, Table,
};
use ss_lfsr::SkipCircuit;
use ss_server::{
    CacheTier, Client, JobSpec, PhaseHistogram, ServeOptions, Server, ServerStats, StatField,
    StatKind, StatValue, TraceContext, SHARD_REMOVED,
};
use ss_telemetry::json::Json;
use ss_telemetry::{render_timeline, stitch, ShardDump};
use ss_testdata::{generate_test_set, CubeProfile, TestSet, WorkloadRegistry};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  state-skip stats     <test_set.txt>                  # local set statistics
  state-skip stats     [--addr A=127.0.0.1:7113] [--json]  # server telemetry
  state-skip run       <test_set.txt> [L=100] [S=5] [k=10] [--threads N]
  state-skip run       --bench <f.bench> --cubes <f.cubes> [L=100] [S=5] [k=10] [--threads N]
  state-skip compare   <test_set.txt> [L=100] [S=5] [k=10] [--threads N]
  state-skip compare   --bench <f.bench> --cubes <f.cubes> [L=100] [S=5] [k=10] [--threads N]
  state-skip sweep     <test_set.txt> [L=100]
  state-skip rtl       <test_set.txt> [k=10]
  state-skip gen       <s9234|s13207|s15850|s38417|s38584|mini> <seed>
  state-skip workloads
  state-skip serve     [--addr A=127.0.0.1:7113] [--workers N=auto] [--cache-mb M=256] [--queue N=4*workers] [--store-dir D]
                       [--peers A1,A2,.. --shard-id I] [--replicas R=2] [--max-conns N=256]
  state-skip submit    [--addr A=127.0.0.1:7113 | --addr A1,A2,..] (--workload <name> | --bench <f> --cubes <f> | <set.txt>) [L=100] [S=5] [k=10] [--trace-id T]
  state-skip reconfigure [--addr A1,A2,..] --epoch E --peers P1,P2,..   # swap the fleet's ring live
  state-skip trace     <trace-id> [--addr A1,A2,..]    # stitch one job's spans into a timeline

--threads N caps the worker threads of embedding detection and of
compare's scheme pool (default and ceiling: all hardware threads; the
encoder runs on one); results are bit-identical at every thread count.

serve answers repeated submissions of the same workload/config from a
content-addressed artifact cache (bit-identical results, synthesis and
encode skipped); a full queue is answered with an explicit Busy that
submit retries with backoff. With --store-dir the cache gains a
persistent second tier: artifacts are written through to digest-
verified files and survive restarts, so a restarted server answers the
whole corpus without re-running synthesis. submit --workload names a
corpus entry from `state-skip workloads` (paper profiles use their
paper LFSR size). stats with no path prints the serving telemetry of a
running server: per-tier hit/miss counters, store occupancy and
per-phase latency histograms.

A fleet shards the content-key space: start every server with the same
--peers list (the exact addresses clients will use) and its own
--shard-id index, then submit with the comma-separated --addr list —
the client balances each workload to its owning shard and fails over
when shards die. --max-conns bounds concurrent connections per server;
excess connections are shed with a Busy reply instead of a thread.

A replicated fleet self-heals: every cold artifact is pushed to the
next --replicas - 1 shards of its key's rendezvous order (--replicas 1
disables), so killing a shard fails over onto a warm copy instead of
re-running synthesis. reconfigure swaps the fleet's membership without
restarting anything: --addr lists shards of the *current* fleet (one
is enough — epoch gossip converges the rest), --epoch must exceed the
ring's current epoch, and --peers is the complete new address list.
Shards re-replicate the keys whose placement changed.

Every submission carries a trace id (printed on the
result; pin one with --trace-id, hex or decimal). Each server records
spans — queue wait, cache lookups, pipeline phases, replication pushes —
into a bounded ring; trace asks every listed shard for one trace's
spans and stitches them into a single causally ordered timeline, so one
command shows where a job's time went across the whole fleet. stats
--json emits the full telemetry snapshot (per shard plus a fleet
aggregate) as JSON for dashboards and scripts.";

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().cloned().ok_or("missing command")?;
    // only the commands that honour the knob parse it; elsewhere a
    // stray --threads falls through to that command's own argument
    // handling and errors instead of being silently swallowed
    let threads = match command.as_str() {
        "run" | "compare" => take_threads_flag(&mut args)?,
        _ => None,
    };
    match command.as_str() {
        // a path argument means the original local-file statistics;
        // bare `stats` (optionally with --addr) scrapes a server
        "stats" => match args.get(1).map(String::as_str) {
            Some(path) if path != "--addr" => stats(path),
            _ => server_stats(&args[1..]),
        },
        "run" if args.iter().any(|a| a == "--bench" || a == "--cubes") => {
            run_files(&args[1..], threads)
        }
        "run" => cmd_run(
            args.get(1).ok_or("missing test set path")?,
            parse_or(args.get(2), 100)?,
            parse_or(args.get(3), 5)?,
            parse_or(args.get(4), 10)? as u64,
            threads,
        ),
        "compare" if args.iter().any(|a| a == "--bench" || a == "--cubes") => {
            compare_files(&args[1..], threads)
        }
        "compare" => compare(
            args.get(1).ok_or("missing test set path")?,
            parse_or(args.get(2), 100)?,
            parse_or(args.get(3), 5)?,
            parse_or(args.get(4), 10)? as u64,
            threads,
        ),
        "sweep" => sweep(
            args.get(1).ok_or("missing test set path")?,
            parse_or(args.get(2), 100)?,
        ),
        "rtl" => rtl(
            args.get(1).ok_or("missing test set path")?,
            parse_or(args.get(2), 10)? as u64,
        ),
        "gen" => gen(
            args.get(1).ok_or("missing profile name")?,
            parse_or(args.get(2), 1)? as u64,
        ),
        "workloads" => workloads(),
        "serve" => serve(&args[1..]),
        "submit" => submit(&args[1..]),
        "reconfigure" => reconfigure(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Extracts a `--threads N` flag from anywhere in the argument list.
fn take_threads_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(at) = args.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err("--threads needs a count".into());
    }
    let n: usize = args[at + 1]
        .parse()
        .map_err(|_| format!("not a thread count: {:?}", args[at + 1]))?;
    if n == 0 {
        return Err("--threads must be >= 1".into());
    }
    args.drain(at..=at + 1);
    Ok(Some(n))
}

/// Splits `--bench <path> --cubes <path>` out of a flag/positional mix,
/// returning (bench, cubes, positionals).
fn split_flags(args: &[String]) -> Result<(String, String, Vec<&String>), String> {
    let mut bench = None;
    let mut cubes = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench = Some(it.next().ok_or("--bench needs a path")?.clone()),
            "--cubes" => cubes = Some(it.next().ok_or("--cubes needs a path")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => rest.push(arg),
        }
    }
    Ok((
        bench.ok_or("missing --bench <file>")?,
        cubes.ok_or("missing --cubes <file>")?,
        rest,
    ))
}

fn parse_or(arg: Option<&String>, default: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("not a number: {s:?}")),
    }
}

fn load(path: &str) -> Result<TestSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TestSet::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn stats(path: &str) -> Result<(), String> {
    let set = load(path)?;
    let s = set.stats();
    println!("geometry:        {}", set.config());
    println!("cubes:           {}", s.cube_count);
    println!("smax:            {}", s.smax);
    println!("total specified: {}", s.total_specified);
    println!("mean specified:  {:.2}", s.mean_specified);
    Ok(())
}

fn engine_for(
    window: usize,
    segment: usize,
    speedup: u64,
    threads: Option<usize>,
) -> Result<Engine, String> {
    let mut builder = Engine::builder()
        .window(window)
        .segment(segment)
        .speedup(speedup);
    if let Some(n) = threads {
        builder = builder.threads(n);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Drops intrinsically unencodable cubes with a note on stderr and
/// pins the LFSR size chosen for the *original* set, so filtering
/// cannot shrink `smax` and silently change the hardware.
fn encodable(engine: &Engine, set: &TestSet) -> Result<(Engine, TestSet), String> {
    let ctx = engine.synthesize(set).map_err(|e| e.to_string())?;
    let (encodable, dropped) = ctx.encodable_subset(set);
    if !dropped.is_empty() {
        eprintln!(
            "note: dropped {} intrinsically unencodable cube(s); raise the LFSR size to keep them",
            dropped.len()
        );
    }
    // copy the FULL config and pin only the LFSR size, so every other
    // knob (ps_taps, hw_seed, ...) carries over to the filtered run
    let mut config = *engine.config();
    config.lfsr_size = Some(ctx.lfsr_size());
    let pinned = Engine::from_config(config).map_err(|e| e.to_string())?;
    Ok((pinned, encodable))
}

fn cmd_run(
    path: &str,
    window: usize,
    segment: usize,
    speedup: u64,
    threads: Option<usize>,
) -> Result<(), String> {
    let set = load(path)?;
    let engine = engine_for(window, segment, speedup, threads)?;
    let (engine, set) = encodable(&engine, &set)?;
    let report = engine.run(&set).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    println!(
        "hardware: skip {:.0} GE, mode-select {:.0} GE, shared {:.0} GE",
        report.cost.skip_ge(),
        report.cost.mode_select_ge(),
        report.cost.shared_ge()
    );
    Ok(())
}

/// `run --bench <f> --cubes <f>`: ingest a circuit + cube-set pair,
/// run the full State Skip flow, and fault-simulate the decompressed
/// sequences against the circuit.
fn run_files(args: &[String], threads: Option<usize>) -> Result<(), String> {
    let (bench_path, cubes_path, rest) = split_flags(args)?;
    let window = parse_or(rest.first().copied(), 100)?;
    let segment = parse_or(rest.get(1).copied(), 5)?;
    let speedup = parse_or(rest.get(2).copied(), 10)? as u64;

    let bench_text =
        std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let cubes_text =
        std::fs::read_to_string(&cubes_path).map_err(|e| format!("{cubes_path}: {e}"))?;
    let workload = parse_workload(&bench_text, &cubes_text).map_err(|e| e.to_string())?;
    let netlist = &workload.circuit.netlist;
    println!(
        "circuit:  {} inputs ({} PIs + {} scan cells), {} gates, {} outputs",
        netlist.input_count(),
        workload.circuit.pi_count,
        workload.circuit.dff_count,
        netlist.gate_count(),
        netlist.outputs().len()
    );
    let stats = workload.set.stats();
    println!(
        "cubes:    {} cubes on {}, smax {}, mean specified {:.1}",
        stats.cube_count,
        workload.set.config(),
        stats.smax,
        stats.mean_specified
    );

    let engine = engine_for(window, segment, speedup, threads)?;
    let (engine, set) = encodable(&engine, &workload.set)?;
    let report = engine.run(&set).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    let ctx = engine.synthesize(&set).map_err(|e| e.to_string())?;
    let cov = sequence_coverage(netlist, &ctx, &report).map_err(|e| e.to_string())?;
    println!(
        "coverage: {:.2}% of {} collapsed stuck-at faults under State Skip ({} applied vectors); {:.2}% for the full window sequence ({} vectors)",
        cov.applied_coverage * 100.0,
        cov.faults,
        cov.applied_vectors,
        cov.window_coverage * 100.0,
        cov.window_vectors
    );
    Ok(())
}

/// `workloads`: list the named corpus. Profile entries are described
/// from their profile metadata so the listing stays instant — no cube
/// set is materialised.
fn workloads() -> Result<(), String> {
    let mut table = Table::new(["name", "kind", "cubes", "cells", "smax", "description"]);
    for w in WorkloadRegistry::all() {
        let (kind, cubes, cells, smax) = match w.profile() {
            Some(p) => ("profile", p.cube_count, p.scan_config().cells(), p.smax),
            None => {
                let set = w.test_set();
                ("files", set.len(), set.config().cells(), set.smax())
            }
        };
        table.add_row([
            w.name.to_string(),
            kind.to_string(),
            cubes.to_string(),
            cells.to_string(),
            smax.to_string(),
            w.description.to_string(),
        ]);
    }
    println!("{table}");
    println!("file workloads live under crates/testdata/workloads/;");
    println!("run one with: state-skip run --bench <name>.bench --cubes <name>.cubes");
    Ok(())
}

fn compare(
    path: &str,
    window: usize,
    segment: usize,
    speedup: u64,
    threads: Option<usize>,
) -> Result<(), String> {
    let set = load(path)?;
    let engine = engine_for(window, segment, speedup, threads)?;
    let (engine, set) = encodable(&engine, &set)?;
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(StateSkip),
        Box::new(ClassicalReseeding),
        Box::new(Baseline11),
    ];
    let reports = engine.run_all(&schemes, &set).map_err(|e| e.to_string())?;
    println!("L={window} S={segment} k={speedup}, {} cubes", set.len());
    println!("{}", comparison_table(&reports));
    Ok(())
}

/// `compare --bench <f> --cubes <f>`: the file-ingestion path of
/// `run`, feeding the three-scheme comparison instead of a single
/// report.
fn compare_files(args: &[String], threads: Option<usize>) -> Result<(), String> {
    let (bench_path, cubes_path, rest) = split_flags(args)?;
    let window = parse_or(rest.first().copied(), 100)?;
    let segment = parse_or(rest.get(1).copied(), 5)?;
    let speedup = parse_or(rest.get(2).copied(), 10)? as u64;

    let bench_text =
        std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let cubes_text =
        std::fs::read_to_string(&cubes_path).map_err(|e| format!("{cubes_path}: {e}"))?;
    let workload = parse_workload(&bench_text, &cubes_text).map_err(|e| e.to_string())?;

    let engine = engine_for(window, segment, speedup, threads)?;
    let (engine, set) = encodable(&engine, &workload.set)?;
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(StateSkip),
        Box::new(ClassicalReseeding),
        Box::new(Baseline11),
    ];
    let reports = engine.run_all(&schemes, &set).map_err(|e| e.to_string())?;
    println!(
        "circuit: {} inputs, {} gates; L={window} S={segment} k={speedup}, {} cubes",
        workload.circuit.netlist.input_count(),
        workload.circuit.netlist.gate_count(),
        set.len()
    );
    println!("{}", comparison_table(&reports));
    Ok(())
}

/// Extracts a `--name value` flag from anywhere in the argument list.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args[at + 1].clone();
    args.drain(at..=at + 1);
    Ok(Some(value))
}

/// `serve`: run the long-lived compression service in the foreground.
fn serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr")?
        .unwrap_or_else(|| ss_server::DEFAULT_ADDR.to_string());
    let workers: usize = match take_value_flag(&mut args, "--workers")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("not a worker count: {v:?}"))?,
        None => 0,
    };
    let cache_mb: usize = match take_value_flag(&mut args, "--cache-mb")? {
        Some(v) => v.parse().map_err(|_| format!("not a cache size: {v:?}"))?,
        None => 256,
    };
    let queue_depth: usize = match take_value_flag(&mut args, "--queue")? {
        Some(v) => v.parse().map_err(|_| format!("not a queue depth: {v:?}"))?,
        None => 0,
    };
    let store_dir = take_value_flag(&mut args, "--store-dir")?.map(std::path::PathBuf::from);
    let max_connections: usize = match take_value_flag(&mut args, "--max-conns")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("not a connection bound: {v:?}"))?,
        None => 0,
    };
    let replicas: usize = match take_value_flag(&mut args, "--replicas")? {
        Some(v) => {
            let n = v
                .parse()
                .map_err(|_| format!("not a replication factor: {v:?}"))?;
            if n == 0 {
                return Err("--replicas must be >= 1 (1 disables replication)".into());
            }
            n
        }
        None => 0,
    };
    let peers = take_value_flag(&mut args, "--peers")?;
    let shard_id = take_value_flag(&mut args, "--shard-id")?;
    let shard = match (peers, shard_id) {
        (Some(peers), Some(id)) => {
            let id: usize = id.parse().map_err(|_| format!("not a shard id: {id:?}"))?;
            let peers: Vec<String> = peers.split(',').map(str::to_string).collect();
            // boot at epoch 0: a live fleet's epoch only moves through
            // `state-skip reconfigure`, which gossip propagates
            Some(ss_server::ShardSpec {
                peers,
                id,
                epoch: 0,
            })
        }
        (None, None) => None,
        _ => return Err("--peers and --shard-id go together".into()),
    };
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let server = Server::bind(&ServeOptions {
        addr,
        workers,
        cache_bytes: cache_mb << 20,
        queue_depth,
        store_dir: store_dir.clone(),
        max_connections,
        shard: shard.clone(),
        replicas,
    })
    .map_err(|e| e.to_string())?;
    println!(
        "listening on {} ({} workers, queue {}, cache {} MB{}{})",
        server.local_addr().map_err(|e| e.to_string())?,
        server.workers(),
        server.queue_capacity(),
        cache_mb,
        match &store_dir {
            Some(dir) => format!(", store {}", dir.display()),
            None => String::new(),
        },
        match &shard {
            Some(s) => format!(", shard {}/{} as {}", s.id, s.peers.len(), s.self_addr()),
            None => String::new(),
        }
    );
    // scripts (the CI smoke step) poll stdout for the bound address
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// `submit`: send one workload to a running service and wait.
fn submit(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr")?
        .unwrap_or_else(|| ss_server::DEFAULT_ADDR.to_string());
    let workload_name = take_value_flag(&mut args, "--workload")?;
    let bench_path = take_value_flag(&mut args, "--bench")?;
    let cubes_path = take_value_flag(&mut args, "--cubes")?;
    let trace_id = match take_value_flag(&mut args, "--trace-id")? {
        Some(v) => Some(parse_trace_id(&v)?),
        None => None,
    };

    // resolve the workload: registry name, .bench + cube pair, or a
    // plain test-set file
    let (label, set, profile_lfsr) = match (&workload_name, &bench_path, &cubes_path) {
        (Some(name), None, None) => {
            let w = WorkloadRegistry::find(name).ok_or_else(|| {
                format!("no corpus workload named {name:?} (see `state-skip workloads`)")
            })?;
            let lfsr = w.profile().map(|p| p.lfsr_size);
            (name.clone(), w.test_set(), lfsr)
        }
        (None, Some(bench), Some(cubes)) => {
            let bench_text = std::fs::read_to_string(bench).map_err(|e| format!("{bench}: {e}"))?;
            let cubes_text = std::fs::read_to_string(cubes).map_err(|e| format!("{cubes}: {e}"))?;
            let workload = parse_workload(&bench_text, &cubes_text).map_err(|e| e.to_string())?;
            (cubes.clone(), workload.set, None)
        }
        (None, None, None) => {
            let path = args
                .first()
                .cloned()
                .ok_or("missing workload: --workload, --bench/--cubes or a test-set path")?;
            args.remove(0);
            (path.clone(), load(&path)?, None)
        }
        _ => return Err("pick one of --workload, --bench + --cubes, or a test-set path".into()),
    };

    let window = parse_or(args.first(), 100)?;
    let segment = parse_or(args.get(1), 5)?;
    let speedup = parse_or(args.get(2), 10)? as u64;
    let mut builder = Engine::builder()
        .window(window)
        .segment(segment)
        .speedup(speedup);
    if let Some(n) = profile_lfsr {
        builder = builder.lfsr_size(n);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let mut spec = JobSpec::new(&set, engine.config());
    if let Some(id) = trace_id {
        spec.trace = TraceContext::root(id);
    }

    // a comma-separated --addr is a fleet: balance to the owning shard
    let (job, report, served_by, trace) = if addr.contains(',') {
        let peers: Vec<String> = addr.split(',').map(str::to_string).collect();
        let mut balancer = ss_server::Balancer::new(peers).map_err(|e| e.to_string())?;
        let run = balancer.run(&spec).map_err(|e| e.to_string())?;
        let served_by = balancer
            .ring()
            .shards()
            .get(run.shard)
            .cloned()
            .unwrap_or_else(|| "redirect target".to_string());
        if run.failovers > 0 {
            eprintln!("note: {} shard(s) failed over", run.failovers);
        }
        (run.report.job, run.report, served_by, run.trace)
    } else {
        let mut client = Client::connect(&*addr).map_err(|e| e.to_string())?;
        let (job, report) = client.run(&spec).map_err(|e| e.to_string())?;
        let trace = client.last_trace();
        (job, report, addr.clone(), trace)
    };
    println!("submitted {} cubes as job {job} to {served_by}", set.len());
    println!(
        "result: n={} L={} S={} k={}: {} seeds, TDV {} bits, TSL {} -> {} vectors ({:.1}% shorter)",
        report.lfsr_size,
        report.window,
        report.segment,
        report.speedup,
        report.seeds,
        report.tdv,
        report.tsl_original,
        report.tsl_proposed,
        improvement_percent(report.tsl_original, report.tsl_proposed),
    );
    // one greppable line in the golden-corpus format (minus coverage),
    // what the CI smoke step diffs against tests/golden/corpus.txt
    println!(
        "golden: cubes={} lfsr={} seeds={} tdv={} tsl_orig={} tsl_prop={}",
        report.cubes,
        report.lfsr_size,
        report.seeds,
        report.tdv,
        report.tsl_original,
        report.tsl_proposed
    );
    println!(
        "cached={} tier={} dropped={} service_ms={:.1} digest={:016x} ({label})",
        report.cached(),
        tier_name(report.tier),
        report.dropped,
        report.service_micros as f64 / 1e3,
        report.digest
    );
    // the server stamps the reply with the connection's codec
    // tallies; tx/rx are the server's view
    let conn = &report.conn;
    if conn.frames_sent + conn.frames_received > 0 {
        println!(
            "link (server view): rx {} frames, {} B wire -> {} B raw; tx {} frames, {} B raw -> {} B wire",
            conn.frames_received,
            conn.wire_rx_bytes,
            conn.raw_rx_bytes,
            conn.frames_sent,
            conn.raw_tx_bytes,
            conn.wire_tx_bytes
        );
    }
    // the line `state-skip trace` and the CI smoke step grep for
    if trace != 0 {
        println!(
            "trace: {trace:#018x} (reconstruct with `state-skip trace {trace:#x} --addr {addr}`)"
        );
    }
    Ok(())
}

/// Parses a trace id: hex with an optional `0x` prefix, or decimal.
fn parse_trace_id(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>().or_else(|_| u64::from_str_radix(s, 16))
    };
    match parsed {
        Ok(0) => Err("trace id 0 means untraced".into()),
        Ok(id) => Ok(id),
        Err(_) => Err(format!("not a trace id: {s:?}")),
    }
}

/// `trace`: ask every listed shard for one trace's spans and stitch
/// them into a single causally ordered cross-shard timeline.
fn trace_cmd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr")?
        .unwrap_or_else(|| ss_server::DEFAULT_ADDR.to_string());
    let id_arg = args.first().cloned().ok_or("missing trace id")?;
    args.remove(0);
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let trace = parse_trace_id(&id_arg)?;
    let mut shards = Vec::new();
    let mut reached = 0usize;
    for a in addr.split(',') {
        match Client::connect(a)
            .and_then(|mut c| c.trace_dump(trace))
            .map_err(|e| e.to_string())
        {
            Ok(dump) => {
                reached += 1;
                if dump.evicted > 0 {
                    eprintln!(
                        "note: {a} evicted {} span(s) under ring pressure; the timeline may have gaps",
                        dump.evicted
                    );
                }
                shards.push(ShardDump {
                    addr: a.to_string(),
                    dump,
                });
            }
            Err(e) => eprintln!("note: {a}: {e}"),
        }
    }
    if reached == 0 {
        return Err("no shard answered the trace dump".into());
    }
    let timeline = stitch(&shards);
    print!("{}", render_timeline(trace, &timeline));
    // denominator = every shard asked, so a dead or unreachable shard
    // reads as a smaller fraction instead of silently shrinking both
    println!(
        "{} span(s) from {} of {} shard(s)",
        timeline.len(),
        shards.iter().filter(|s| !s.dump.spans.is_empty()).count(),
        addr.split(',').count()
    );
    Ok(())
}

/// `reconfigure`: swap the membership of a live fleet — new epoch, new
/// peer list — without restarting any shard. One acknowledgement is
/// enough; epoch gossip between shards converges the rest.
fn reconfigure(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr")?
        .unwrap_or_else(|| ss_server::DEFAULT_ADDR.to_string());
    let epoch: u64 = take_value_flag(&mut args, "--epoch")?
        .ok_or("missing --epoch (must exceed the ring's current epoch)")?
        .parse()
        .map_err(|e| format!("not an epoch: {e}"))?;
    let peers: Vec<String> = take_value_flag(&mut args, "--peers")?
        .ok_or("missing --peers (the complete new address list)")?
        .split(',')
        .map(str::to_string)
        .collect();
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    // the --addr list is the fleet as the admin knows it; the balancer
    // broadcasts the new view to old and new members alike and insists
    // on at least one acknowledgement
    let current: Vec<String> = addr.split(',').map(str::to_string).collect();
    let mut balancer = ss_server::Balancer::new(current).map_err(|e| e.to_string())?;
    let acked = balancer
        .reconfigure(epoch, peers)
        .map_err(|e| e.to_string())?;
    println!(
        "fleet reconfigured to epoch {acked}: {}",
        balancer.ring().shards().join(",")
    );
    Ok(())
}

fn tier_name(tier: CacheTier) -> &'static str {
    match tier {
        CacheTier::Cold => "cold",
        CacheTier::Disk => "disk",
        CacheTier::Memory => "memory",
    }
}

/// `stats` without a path: scrape every `--addr` once, then print the
/// snapshots as tables or, with `--json`, as one JSON document.
fn server_stats(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_value_flag(&mut args, "--addr")?
        .unwrap_or_else(|| ss_server::DEFAULT_ADDR.to_string());
    let json = take_bool_flag(&mut args, "--json");
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let fleet = addr
        .split(',')
        .map(|a| {
            let mut client = Client::connect(a).map_err(|e| e.to_string())?;
            let stats = client.stats().map_err(|e| e.to_string())?;
            Ok((a.to_string(), stats))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if json {
        println!("{}", stats_json(&fleet));
    } else {
        print!("{}", stats_tables(&fleet));
    }
    Ok(())
}

/// Removes a boolean `--name` flag, answering whether it was present.
fn take_bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    }
}

/// The fleet aggregate: every shard's snapshot folded together.
fn fleet_total(fleet: &[(String, ServerStats)]) -> ServerStats {
    let mut total = ServerStats::default();
    fleet.iter().for_each(|(_, stats)| total.merge(stats));
    total
}

/// Whether a field is a label holding the removed-shard sentinel.
fn is_removed(&(_, kind, value): &StatField) -> bool {
    kind == StatKind::Label && value == StatValue::U32(SHARD_REMOVED)
}

/// A scalar field as table text.
fn scalar_text(field: &StatField) -> String {
    match field.2 {
        _ if is_removed(field) => "removed".to_string(),
        StatValue::U32(v) => v.to_string(),
        StatValue::U64(v) => v.to_string(),
        StatValue::Histogram(h) => h.count.to_string(),
    }
}

/// For each server, then the fleet aggregate (when there is more than
/// one server): a heading, its labels and its phase latencies. Then one
/// name/value table of every counter and gauge, one column each.
fn stats_tables(fleet: &[(String, ServerStats)]) -> String {
    let mut columns = fleet.to_vec();
    if fleet.len() > 1 {
        columns.push(("fleet".to_string(), fleet_total(fleet)));
    }
    let fields: Vec<Vec<StatField>> = columns.iter().map(|(_, s)| s.fields()).collect();
    let mut out = String::new();
    for (c, (addr, _)) in fleet.iter().enumerate() {
        out += &format!("server {addr}\n{}", labels_line("shard", &fields[c..=c]));
        out += &phase_table(&fields[c]);
    }
    if let Some(total) = fields.get(fleet.len()) {
        // the fleet's labels list every server's distinct values, so
        // shards that disagree on the epoch show `epoch 2,3`
        let labels = labels_line("fleet", &fields[..fleet.len()]);
        out += &format!("fleet of {}\n{labels}", fleet.len());
        out += &phase_table(total);
    }
    let names = columns.iter().map(|(name, _)| name.as_str());
    let mut table = Table::new(std::iter::once("metric").chain(names));
    for (i, &(name, kind, _)) in fields[0].iter().enumerate() {
        if kind == StatKind::Sum {
            let values = fields.iter().map(|f| scalar_text(&f[i]));
            table.add_row(std::iter::once(name.to_string()).chain(values));
        }
    }
    out + &table.to_string()
}

/// `<heading> labels: shard_id 1  shard_count 3  epoch 2`, each label
/// with its distinct values across `servers`; empty when every label
/// is 0 (the servers are not sharded).
fn labels_line(heading: &str, servers: &[Vec<StatField>]) -> String {
    let mut parts = Vec::new();
    let mut sharded = false;
    for (i, &(name, kind, _)) in servers[0].iter().enumerate() {
        if kind == StatKind::Label {
            let mut values: Vec<String> = Vec::new();
            for text in servers.iter().map(|f| scalar_text(&f[i])) {
                sharded |= text != "0";
                if !values.contains(&text) {
                    values.push(text);
                }
            }
            parts.push(format!("{name} {}", values.join(",")));
        }
    }
    if sharded {
        format!("{heading} labels: {}\n", parts.join("  "))
    } else {
        String::new()
    }
}

/// The phase-latency table: one row per histogram, named by the last
/// part of its dotted name.
fn phase_table(fields: &[StatField]) -> String {
    let mut phases = Table::new([
        "phase",
        "samples",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "total ms",
        "latency buckets",
    ]);
    for &(name, _, value) in fields {
        if let StatValue::Histogram(h) = value {
            phases.add_row([
                name.rsplit('.').next().unwrap_or(name).to_string(),
                h.count.to_string(),
                format!("{:.2}", h.mean_micros() as f64 / 1e3),
                percentile_ms(&h, 0.50),
                percentile_ms(&h, 0.95),
                percentile_ms(&h, 0.99),
                format!("{:.2}", h.total_micros as f64 / 1e3),
                histogram_sketch(&h),
            ]);
        }
    }
    format!(
        "{phases}buckets are log2 microseconds: 2^i <= sample < 2^(i+1); percentiles are bucket upper bounds\n\n"
    )
}

/// A histogram percentile rendered in milliseconds: `-` with no
/// samples, an overflow marker (the open top bucket's floor) when the
/// sample fell in the open-ended top bucket.
fn percentile_ms(h: &PhaseHistogram, p: f64) -> String {
    if h.count == 0 {
        return "-".to_string();
    }
    let micros = h.percentile_micros(p);
    if micros == u64::MAX {
        format!(">{}", (1u64 << (ss_server::HISTOGRAM_BUCKETS - 1)) / 1000)
    } else {
        format!("{:.2}", micros as f64 / 1e3)
    }
}

/// Compact one-line rendering of the nonzero histogram buckets, e.g.
/// `2^10:3 2^11:1` (3 samples in [1024, 2048) us, one in [2048, 4096)).
fn histogram_sketch(h: &PhaseHistogram) -> String {
    let parts: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| format!("2^{i}:{n}"))
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

/// The whole `stats --json` document: each shard's snapshot under its
/// address, and the fleet aggregate without labels (a fleet has no one
/// shard id or epoch).
fn stats_json(fleet: &[(String, ServerStats)]) -> Json {
    let shards = fleet
        .iter()
        .map(|(addr, stats)| {
            let stats = fields_json(stats.fields());
            Json::object([("addr", addr.as_str().into()), ("stats", stats)])
        })
        .collect();
    let mut total = fleet_total(fleet).fields();
    total.retain(|&(_, kind, _)| kind != StatKind::Label);
    Json::object([
        ("shards", Json::Array(shards)),
        ("fleet", fields_json(total)),
    ])
}

/// Fields as one flat JSON object keyed by their dotted names (the
/// removed-shard sentinel is `null`).
fn fields_json(fields: Vec<StatField>) -> Json {
    Json::object(fields.into_iter().map(|field| {
        let value = match field.2 {
            _ if is_removed(&field) => Json::Null,
            StatValue::U32(v) => v.into(),
            StatValue::U64(v) => v.into(),
            StatValue::Histogram(h) => histogram_json(&h),
        };
        (field.0, value)
    }))
}

/// One histogram as a JSON object, percentiles included (`null` with
/// no samples, and for the open top bucket rather than a fake number).
fn histogram_json(h: &PhaseHistogram) -> Json {
    let pct = |p: f64| match h.percentile_micros(p) {
        _ if h.count == 0 => Json::Null,
        u64::MAX => Json::Null,
        micros => micros.into(),
    };
    let buckets = h.buckets.iter().map(|&n| n.into()).collect();
    Json::object([
        ("count", h.count.into()),
        ("total_micros", h.total_micros.into()),
        ("mean_micros", h.mean_micros().into()),
        ("p50_micros", pct(0.50)),
        ("p95_micros", pct(0.95)),
        ("p99_micros", pct(0.99)),
        ("buckets", Json::Array(buckets)),
    ])
}

fn sweep(path: &str, window: usize) -> Result<(), String> {
    let set = load(path)?;
    let engine = engine_for(window, 5, 10, None)?;
    let (engine, set) = encodable(&engine, &set)?;
    // encode and embed once; re-plan per (S, k) through the staged
    // artifacts
    let embedded = engine.encode(&set).map_err(|e| e.to_string())?.embed();
    let seeds = embedded.encoding().seeds.len();
    let tdv = embedded.encoding().tdv();
    let tsl_original = embedded.encoding().tsl_original() as u64;
    let mut table = Table::new(["S", "k", "TSL", "improvement"]);
    for segment in [2usize, 5, 10, 20] {
        if segment > window {
            continue;
        }
        let segmented = embedded.clone().segment_with(segment);
        for k in [4u64, 8, 16, 24] {
            let tsl = segmented.tsl_with(k).vectors;
            table.add_row([
                segment.to_string(),
                k.to_string(),
                tsl.to_string(),
                format!("{:.1}%", improvement_percent(tsl_original, tsl)),
            ]);
        }
    }
    println!("window L={window}: {seeds} seeds, TDV {tdv} bits, orig TSL {tsl_original}");
    println!("{table}");
    Ok(())
}

fn rtl(path: &str, speedup: u64) -> Result<(), String> {
    let set = load(path)?;
    let engine = engine_for(1, 1, speedup, None)?;
    let ctx = engine.synthesize(&set).map_err(|e| e.to_string())?;
    let skip = SkipCircuit::new(ctx.lfsr(), speedup).map_err(|e| e.to_string())?;
    print!(
        "{}",
        emit_decompressor_rtl(ctx.lfsr(), &skip, ctx.shifter())
    );
    Ok(())
}

fn gen(profile_name: &str, seed: u64) -> Result<(), String> {
    let profile = match profile_name {
        "s9234" => CubeProfile::s9234(),
        "s13207" => CubeProfile::s13207(),
        "s15850" => CubeProfile::s15850(),
        "s38417" => CubeProfile::s38417(),
        "s38584" => CubeProfile::s38584(),
        "mini" => CubeProfile::mini(),
        other => return Err(format!("unknown profile {other:?}")),
    };
    print!("{}", generate_test_set(&profile, seed).to_text());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(samples: &[u64]) -> PhaseHistogram {
        let mut h = PhaseHistogram::default();
        for &micros in samples {
            h.record(micros);
        }
        h
    }

    /// Two shards of a three-shard fleet; the first address needs JSON
    /// escaping.
    fn two_shards() -> Vec<(String, ServerStats)> {
        let mut a = ServerStats {
            workers: 2,
            jobs_done: 40,
            connections_max: 256,
            shard_id: 0,
            shard_count: 3,
            epoch: 4,
            synthesis: histogram(&[900, 1500, 70_000]),
            embed: histogram(&[40]),
            ..ServerStats::default()
        };
        a.memory.hits = 30;
        a.codec.crc_rejects = 1;
        let mut b = ServerStats {
            workers: 3,
            jobs_done: 2,
            connections_max: 128,
            shard_id: 1,
            epoch: 5,
            synthesis: histogram(&[2_000_000]),
            segment: histogram(&[7, 8]),
            ..a
        };
        b.memory.hits = 5;
        vec![
            ("127.0.0.1:7211 \"a\\b\"".to_string(), a),
            ("127.0.0.1:7212".to_string(), b),
        ]
    }

    fn member<'a>(json: &'a Json, key: &str) -> &'a Json {
        match json {
            Json::Object(members) => &members.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{key}: not an object: {other}"),
        }
    }

    fn keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn every_shard_object_has_one_key_per_field() {
        let fleet = two_shards();
        let json = stats_json(&fleet);
        let Json::Array(shards) = member(&json, "shards") else {
            panic!("shards is not an array");
        };
        assert_eq!(shards.len(), fleet.len());
        let names: Vec<&str> = fleet[0].1.fields().iter().map(|f| f.0).collect();
        for (shard, (addr, _)) in shards.iter().zip(&fleet) {
            assert_eq!(member(shard, "addr"), &Json::from(addr.as_str()));
            assert_eq!(keys(member(shard, "stats")), names);
        }
        assert_eq!(
            member(member(&shards[1], "stats"), "epoch"),
            &Json::from(5u64)
        );
    }

    #[test]
    fn fleet_object_sums_counters_and_merges_histograms() {
        let fleet = two_shards();
        let json = stats_json(&fleet);
        let stats = member(&json, "fleet");
        let (a, b) = (&fleet[0].1, &fleet[1].1);
        for ((name, kind, x), (_, _, y)) in a.fields().into_iter().zip(b.fields()) {
            let want = match (kind, x, y) {
                (StatKind::Label, ..) => {
                    assert!(!keys(stats).contains(&name), "{name}");
                    continue;
                }
                (_, StatValue::U32(x), StatValue::U32(y)) => Json::from(x + y),
                (_, StatValue::U64(x), StatValue::U64(y)) => Json::from(x + y),
                (_, StatValue::Histogram(mut x), StatValue::Histogram(y)) => {
                    x.merge(&y);
                    histogram_json(&x)
                }
                other => panic!("{name}: kind and width disagree: {other:?}"),
            };
            assert_eq!(member(stats, name), &want, "{name}");
        }
        assert_eq!(member(stats, "jobs_done"), &Json::from(42u64));
        assert_eq!(member(stats, "memory.hits"), &Json::from(35u64));
        assert_eq!(
            member(member(stats, "phase.synthesis"), "count"),
            &Json::from(4u64)
        );
    }

    #[test]
    fn addresses_are_escaped_in_json() {
        let text = stats_json(&two_shards()).to_string();
        assert!(
            text.contains(r#"{"addr":"127.0.0.1:7211 \"a\\b\"","stats":{"workers":2,"#),
            "{text}"
        );
    }

    #[test]
    fn table_keeps_the_lines_ci_parses() {
        let fleet = two_shards();
        let text = stats_tables(&fleet);
        // warm-restart smoke: awk '$1 == "synthesis" {print $2; exit}'
        let synthesis = text
            .lines()
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&"synthesis"))
            .expect("a synthesis row");
        assert_eq!(synthesis[1], "3");
        // fleet smoke: one `shard ` line per sharded server
        assert_eq!(text.lines().filter(|l| l.starts_with("shard ")).count(), 2);
        assert!(text.contains("fleet labels: shard_id 0,1  shard_count 3  epoch 4,5"));
        let jobs = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some("jobs_done"))
            .expect("a jobs_done row");
        assert_eq!(
            jobs.split_whitespace().collect::<Vec<_>>(),
            ["jobs_done", "40", "2", "42"]
        );
    }

    #[test]
    fn unsharded_server_prints_no_labels() {
        let text = stats_tables(&[("127.0.0.1:7113".to_string(), ServerStats::default())]);
        assert!(!text.contains("labels:"), "{text}");
        assert!(!text.contains("fleet"), "{text}");
    }

    #[test]
    fn removed_shard_renders_as_removed_and_null() {
        let mut fleet = two_shards();
        fleet[1].1.shard_id = SHARD_REMOVED;
        let text = stats_tables(&fleet);
        assert!(
            text.contains("shard labels: shard_id removed  shard_count 3  epoch 5"),
            "{text}"
        );
        assert!(!text.contains(&SHARD_REMOVED.to_string()), "{text}");
        let json = stats_json(&fleet);
        let Json::Array(shards) = member(&json, "shards") else {
            panic!("shards is not an array");
        };
        assert_eq!(member(member(&shards[1], "stats"), "shard_id"), &Json::Null);
        assert!(!json.to_string().contains(&SHARD_REMOVED.to_string()));
    }
}
