//! `ss-server` — the State Skip compression **service**: a
//! multi-threaded TCP server with a bounded job gate, explicit
//! backpressure and a content-addressed cache of synthesis/encode
//! artifacts, plus the matching client library.
//!
//! The rest of the workspace computes; this crate *serves*. A running
//! `ss-server` accepts workloads over a length-prefixed, versioned
//! wire protocol ([`protocol`]) — every connection opens with one
//! `Hello` exchange and then streams CRC-guarded, optionally
//! compressed chunks ([`codec`]) — runs each on the thread of the
//! connection that submitted it, a bounded number at once, against the staged [`Engine`](ss_core::Engine) flow, and answers
//! repeated submissions of the same `(cube set, engine config)` pair
//! from a size-bounded LRU of synthesised hardware and encodings
//! ([`cache`]) — skipping the two expensive stages entirely while
//! returning bit-identical results (the flow is deterministic end to
//! end, so this is an equality, not an approximation). With a
//! `--store-dir`, a second, persistent tier sits under the LRU: the
//! content-addressed artifact store of `ss-store`, which survives
//! restarts and is digest-verified on every load, so lookups fall
//! through memory → disk → cold compute and a restarted server warms
//! itself from disk instead of re-paying synthesis.
//!
//! # Quickstart
//!
//! ```
//! use ss_core::Engine;
//! use ss_server::{Client, JobSpec, ServeOptions, Server};
//! use ss_testdata::WorkloadRegistry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // serve on a loopback ephemeral port
//! let handle = Server::bind(&ServeOptions::default())?.spawn();
//!
//! // submit the same workload twice: cold, then cached
//! let engine = Engine::builder().window(24).segment(4).speedup(6).build()?;
//! let set = WorkloadRegistry::find("tiny-1").unwrap().test_set();
//! let spec = JobSpec::new(&set, engine.config());
//! let mut client = Client::connect(handle.addr())?;
//! let (_, cold) = client.run(&spec)?;
//! let (_, warm) = client.run(&spec)?;
//! assert!(!cold.cached() && warm.cached());
//! assert_eq!(cold.digest, warm.digest); // bit-identical result
//! # handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Beyond one node, the same artifacts shard horizontally: they are
//! pure functions of `(cube text, knobs)`, so [`shard::ShardRing`]
//! partitions the content-key space across a fleet by rendezvous
//! hashing, the client-side [`Balancer`] routes each submission to
//! its owning shard (failing over down the ring when shards die), and
//! a sharded server redirects misrouted submissions to the owner —
//! keeping the cold computation exactly-once *cluster-wide* and
//! growing aggregate cache capacity linearly with the shard count.
//!
//! The fleet also self-heals: each cold artifact is pushed
//! (write-behind `Replicate`) to the next `--replicas - 1` shards
//! of its key's rendezvous order, so a shard death fails over onto a
//! *warm* replica instead of re-paying synthesis; rings carry a
//! membership epoch and an admin `Reconfigure` swaps the peer list on
//! every live process — no restarts — with epoch gossip (`Ping`/`Pong`
//! between shards, [`Balancer::refresh_membership`] on the client)
//! converging the whole fleet from a single acknowledgement.
//!
//! The `state-skip` binary wires this up as `state-skip serve` /
//! `state-skip submit`; `crates/bench/benches/server_stress.rs` fans
//! concurrent clients over the whole registry corpus and records
//! `BENCH_server.json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod codec;
#[cfg(test)]
mod proptests;
pub mod protocol;
mod server;
pub mod shard;

pub use cache::{cache_key, ArtifactCache, CacheStats, CachedArtifacts, Fnv64};
pub use client::{BalancedRun, Balancer, Client, ClientError, RetryPolicy, HELLO_TIMEOUT};
pub use codec::{
    Codec, CodecConfig, CodecError, WireStats, DEFAULT_CHUNK_BYTES, MAX_CHUNK_BYTES,
    MAX_MESSAGE_BYTES, MIN_CHUNK_BYTES,
};
pub use protocol::{
    CacheTier, CodecCounters, ConnStats, JobReport, JobSpec, PhaseHistogram, Request, Response,
    ServerStats, Span, SpanDump, SpanKind, StatField, StatKind, StatValue, TierStats, TraceContext,
    WireError, HISTOGRAM_BUCKETS, MAX_FRAME_BYTES, PROTOCOL_VERSION, SHARD_REMOVED,
};
pub use server::{ServeOptions, Server, ServerHandle};
pub use shard::{ShardError, ShardRing, ShardSpec};

// the digest moved to `ss-store` (every artifact file embeds it);
// re-exported so `ss_server::report_digest` keeps resolving
pub use ss_store::report_digest;

/// Default listen address of `state-skip serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7113";

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::Engine;
    use ss_testdata::{generate_test_set, CubeProfile, WorkloadRegistry};

    fn spec_for(seed: u64) -> JobSpec {
        let set = generate_test_set(&CubeProfile::mini(), seed);
        let engine = Engine::builder()
            .window(16)
            .segment(4)
            .speedup(4)
            .build()
            .unwrap();
        JobSpec::new(&set, engine.config())
    }

    #[test]
    fn digest_separates_different_reports() {
        let engine = Engine::builder()
            .window(16)
            .segment(4)
            .speedup(4)
            .build()
            .unwrap();
        let a = engine
            .run(&generate_test_set(&CubeProfile::mini(), 1))
            .unwrap();
        let b = engine
            .run(&generate_test_set(&CubeProfile::mini(), 2))
            .unwrap();
        assert_eq!(report_digest(&a), report_digest(&a));
        assert_ne!(report_digest(&a), report_digest(&b));
    }

    /// Full loopback round-trip: cold run → cached rerun, plus stats
    /// and error surfacing for a bad workload.
    #[test]
    fn loopback_end_to_end() {
        let handle = Server::bind(&ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        })
        .unwrap()
        .spawn();
        let mut client = Client::connect(handle.addr()).unwrap();

        let spec = spec_for(1);
        let (job, cold) = client.run(&spec).unwrap();
        assert_eq!(cold.tier, CacheTier::Cold);
        assert!(cold.seeds > 0 && cold.tsl_proposed < cold.tsl_original);

        let (warm_job, warm) = client.run(&spec).unwrap();
        assert!(warm_job > job, "every run is a new job");
        assert_eq!(
            warm.tier,
            CacheTier::Memory,
            "second submission must hit the memory tier"
        );
        assert_eq!(warm.digest, cold.digest);
        assert_eq!(warm.seeds, cold.seeds);

        // a different workload is a different key
        let (_, fresh) = client.run(&spec_for(2)).unwrap();
        assert!(!fresh.cached());
        assert_ne!(fresh.digest, cold.digest);

        // one connection carried everything: the server's rx tallies
        // equal what the last reply echoed; its tx tally may still lack
        // that reply, which is counted after the write
        let codec = handle.stats().codec;
        assert_eq!(codec.connections, 1);
        assert_eq!(codec.frames_received, fresh.conn.frames_received);
        assert_eq!(codec.raw_rx_bytes, fresh.conn.raw_rx_bytes);
        assert_eq!(codec.wire_rx_bytes, fresh.conn.wire_rx_bytes);
        assert!(codec.raw_tx_bytes >= fresh.conn.raw_tx_bytes);

        let stats = client.stats().unwrap();
        assert_eq!(stats.jobs_done, 3);
        assert_eq!(stats.memory.hits, 1);
        assert_eq!(stats.memory.misses, 2);
        assert_eq!(stats.workers, 2);
        // no --store-dir: the disk tier is inert
        assert_eq!(stats.disk, TierStats::default());
        assert_eq!(stats.store_writes, 0);
        // two cold jobs timed every phase; the warm hit answered from
        // its slot's summary and computed nothing
        assert_eq!(stats.synthesis.count, 2);
        assert_eq!(stats.encode.count, 2);
        assert_eq!(stats.embed.count, 2);
        assert_eq!(stats.segment.count, 2);

        // a malformed workload is rejected at submit time
        let mut bad = spec_for(1);
        bad.set_text = "garbage".to_string();
        assert!(matches!(client.run(&bad), Err(ClientError::Server(_))));

        handle.shutdown();
    }

    /// The registry path the CLI uses: a named workload served equals
    /// the same workload run locally, digest and all.
    #[test]
    fn served_registry_workload_matches_local_engine_run() {
        let w = WorkloadRegistry::find("tiny-1").unwrap();
        let set = w.test_set();
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap();

        // local reference: the CLI `run` path (filter + pinned LFSR)
        let ctx = engine.synthesize(&set).unwrap();
        let (encodable, dropped) = ctx.encodable_subset(&set);
        let mut config = *engine.config();
        config.lfsr_size = Some(ctx.lfsr_size());
        let pinned = Engine::from_config(config).unwrap();
        let local = pinned.run(&encodable).unwrap();

        let handle = Server::bind(&ServeOptions::default()).unwrap().spawn();
        let mut client = Client::connect(handle.addr()).unwrap();
        let (_, served) = client.run(&JobSpec::new(&set, engine.config())).unwrap();
        handle.shutdown();

        assert_eq!(served.digest, report_digest(&local));
        assert_eq!(served.seeds as usize, local.seeds);
        assert_eq!(served.tdv as usize, local.tdv);
        assert_eq!(served.tsl_proposed, local.tsl_proposed);
        assert_eq!(served.lfsr_size as usize, local.lfsr_size);
        assert_eq!(served.dropped as usize, dropped.len());
    }
}
