//! Deterministic chaos harness for the self-healing fleet: a seeded
//! fault scheduler kills a shard mid-workload, reconfigures the ring
//! live (removing the dead shard, then rolling a replacement in), and
//! keeps driving balancer clients over the corpus throughout —
//! asserting the three resilience invariants end to end:
//!
//! * every answer stays bit-identical to the uncached golden digests
//!   computed locally, through every fault;
//! * with replication factor 2, killing a shard causes **zero** cold
//!   re-synthesis of previously computed keys — failover lands on a
//!   warm replica (the synthesis counters are pinned exactly);
//! * a `Reconfigure` sent to *one* shard converges the whole fleet —
//!   every surviving shard and the balancer report the new epoch —
//!   without restarting any process, via `Ping`/`Pong` epoch gossip.
//!
//! The schedule is a pure function of `SS_CHAOS_SEED` (default
//! `0xC0FFEE`); `SS_CHAOS_ROUNDS` bounds the extra shuffled-load
//! rounds so CI can run a short soak of the same determinism.

use std::time::{Duration, Instant};

use ss_core::{Encoded, Engine};
use ss_server::{
    cache_key, report_digest, Balancer, Client, JobSpec, RetryPolicy, ServeOptions, Server,
    ServerHandle, ShardRing, ShardSpec, SpanKind, TraceContext,
};
use ss_telemetry::{stitch, ShardDump};
use ss_testdata::{generate_test_set, CubeProfile, TestSet};

const WINDOW: usize = 16;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 4;

/// How long convergence polls may spin before the harness gives up.
const CONVERGE_DEADLINE: Duration = Duration::from_secs(30);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The harness's own deterministic randomness: SplitMix64, so the
/// fault schedule is a pure function of the seed with no dependency
/// on the library's jitter streams.
struct ChaosRng(u64);

impl ChaosRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn spec_for(seed: u64) -> JobSpec {
    let set = generate_test_set(&CubeProfile::mini(), seed);
    let engine = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP)
        .build()
        .unwrap();
    JobSpec::new(&set, engine.config())
}

/// The uncached answer, straight through the local engine path.
fn golden_digest(spec: &JobSpec) -> u64 {
    let set = TestSet::from_text(&spec.set_text).unwrap();
    let engine = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP)
        .build()
        .unwrap();
    let ctx = engine.synthesize(&set).unwrap();
    let (encodable, _) = ctx.encodable_subset(&set);
    let report = Encoded::from_ctx_ref(&encodable, &ctx)
        .unwrap()
        .embed()
        .segment()
        .finish()
        .unwrap();
    report_digest(&report)
}

fn bind_shard() -> Server {
    Server::bind(&ServeOptions {
        workers: 1,
        cache_bytes: 64 << 20,
        queue_depth: 8,
        replicas: 2,
        ..ServeOptions::default()
    })
    .unwrap()
}

/// Binds `n` shards on ephemeral ports with replication factor 2,
/// then configures every one with the full fleet list.
fn spawn_fleet(n: usize) -> (Vec<String>, Vec<Option<ServerHandle>>) {
    let servers: Vec<Server> = (0..n).map(|_| bind_shard()).collect();
    let peers: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().unwrap().to_string())
        .collect();
    let handles = servers
        .into_iter()
        .enumerate()
        .map(|(id, mut server)| {
            server
                .set_shards(ShardSpec {
                    peers: peers.clone(),
                    id,
                    epoch: 0,
                })
                .unwrap();
            Some(server.spawn())
        })
        .collect();
    (peers, handles)
}

fn synthesis_sum<'a, I: IntoIterator<Item = &'a ServerHandle>>(handles: I) -> u64 {
    handles.into_iter().map(|h| h.stats().synthesis.count).sum()
}

fn replicas_received_sum<'a, I: IntoIterator<Item = &'a ServerHandle>>(handles: I) -> u64 {
    handles
        .into_iter()
        .map(|h| h.stats().replicas_received)
        .sum()
}

/// Re-asks `probe` until it answers true, failing the test with
/// `what` after the convergence deadline.
fn poll_until(what: &str, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(
            start.elapsed() < CONVERGE_DEADLINE,
            "gave up waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs every spec through the balancer (in the given order) and
/// asserts each answer against its golden digest.
fn drive(balancer: &mut Balancer, order: &[usize], specs: &[JobSpec], goldens: &[u64]) {
    for &i in order {
        let run = balancer.run(&specs[i]).unwrap();
        assert_eq!(
            run.report.digest, goldens[i],
            "fleet answer diverged from the uncached golden"
        );
    }
}

#[test]
fn seeded_chaos_kill_reconfigure_and_rejoin_stay_bit_identical() {
    let seed = env_u64("SS_CHAOS_SEED", 0xC0_FFEE);
    let rounds = env_u64("SS_CHAOS_ROUNDS", 2);
    let mut rng = ChaosRng(seed);

    let (peers, mut handles) = spawn_fleet(3);
    let specs: Vec<JobSpec> = (1..=8).map(spec_for).collect();
    let goldens: Vec<u64> = specs.iter().map(golden_digest).collect();
    let keys: Vec<u64> = specs.iter().map(cache_key).collect();
    let order: Vec<usize> = (0..specs.len()).collect();

    let mut balancer = Balancer::new(peers.clone())
        .unwrap()
        .with_policy(RetryPolicy::seeded(seed).with_deadline(Duration::from_secs(20)));

    // ---- phase 1: warm the fleet, exactly-once cluster-wide --------
    drive(&mut balancer, &order, &specs, &goldens);
    assert_eq!(
        synthesis_sum(handles.iter().flatten()),
        specs.len() as u64,
        "a healthy fleet computes each key cold exactly once"
    );

    // ---- phase 2: write-behind replication settles -----------------
    // R=2 on 3 shards: every key gets exactly one replica push
    poll_until("initial replication to settle", || {
        replicas_received_sum(handles.iter().flatten()) >= specs.len() as u64
    });
    assert_eq!(
        replicas_received_sum(handles.iter().flatten()),
        specs.len() as u64,
        "each key is replicated to exactly one runner-up"
    );

    // ---- phase 3: seeded kill, mid-workload ------------------------
    let victim = rng.below(3);
    let survivor_ids: Vec<usize> = (0..3).filter(|&s| s != victim).collect();
    let pre_kill_synthesis =
        synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap()));
    handles[victim].take().unwrap().shutdown();

    // the whole corpus again, seeded order, against a dead shard: every
    // answer golden, and — the replication guarantee — ZERO cold
    // re-synthesis of previously computed keys (failover is warm)
    let mut shuffled = order.clone();
    rng.shuffle(&mut shuffled);
    drive(&mut balancer, &shuffled, &specs, &goldens);
    assert_eq!(
        synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap())),
        pre_kill_synthesis,
        "a replicated key was re-synthesized after the shard death"
    );

    // fresh keys still flow: they synthesize once, on a survivor
    let fresh: Vec<JobSpec> = (100..102).map(spec_for).collect();
    let fresh_goldens: Vec<u64> = fresh.iter().map(golden_digest).collect();
    drive(&mut balancer, &[0, 1], &fresh, &fresh_goldens);
    assert_eq!(
        synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap())),
        pre_kill_synthesis + fresh.len() as u64,
        "new keys must each cost exactly one cold synthesis"
    );

    // ---- phase 4: Reconfigure removes the dead shard ---------------
    // the new view goes to ONE survivor; gossip must converge the rest
    let survivors: Vec<String> = survivor_ids.iter().map(|&s| peers[s].clone()).collect();
    let told = survivor_ids[rng.below(survivor_ids.len())];
    let mut admin = Client::connect(peers[told].as_str()).unwrap();
    assert_eq!(admin.reconfigure(2, survivors.clone()).unwrap(), 2);

    poll_until("fleet-wide epoch convergence", || {
        survivor_ids
            .iter()
            .all(|&s| handles[s].as_ref().unwrap().stats().epoch == 2)
    });
    // the balancer converges by probing — no restart, no new Balancer
    poll_until("balancer epoch convergence", || {
        balancer.refresh_membership() == 2
    });
    assert_eq!(balancer.epoch(), 2);
    assert_eq!(balancer.ring().len(), 2, "the dead shard left the ring");

    // re-replication on the 2-shard ring gives every survivor every
    // key — memory entries are the observable
    poll_until("post-removal re-replication", || {
        survivor_ids
            .iter()
            .all(|&s| handles[s].as_ref().unwrap().stats().memory.entries >= specs.len() as u64)
    });

    // ---- phase 5: roll a replacement shard into the live fleet -----
    let mut replacement = bind_shard();
    let new_addr = replacement.local_addr().unwrap().to_string();
    let mut joined = survivors.clone();
    joined.push(new_addr.clone());
    // the replacement boots already knowing the joined list (it could
    // not know the epoch an admin will pick; gossip fixes that up)
    replacement
        .set_shards(ShardSpec {
            peers: joined.clone(),
            id: joined.len() - 1,
            epoch: 0,
        })
        .unwrap();
    let new_handle = replacement.spawn();

    // how many keys the new shard must inherit: exactly those whose
    // replica set on the joined ring includes it
    let joined_ring = ShardRing::new(joined.clone()).unwrap();
    let gained = keys
        .iter()
        .filter(|&&k| joined_ring.replicas(k, 2).contains(&new_addr))
        .count() as u64;

    // again: one admin message to one shard, gossip does the rest
    let told = survivor_ids[rng.below(survivor_ids.len())];
    let mut admin = Client::connect(peers[told].as_str()).unwrap();
    assert_eq!(admin.reconfigure(3, joined.clone()).unwrap(), 3);
    poll_until("rejoin epoch convergence", || {
        survivor_ids
            .iter()
            .all(|&s| handles[s].as_ref().unwrap().stats().epoch == 3)
            && new_handle.stats().epoch == 3
            && balancer.refresh_membership() == 3
    });

    // the joining shard is warmed by re-replication, not by traffic
    poll_until("re-replication onto the joining shard", || {
        new_handle.stats().replicas_received >= gained
    });
    assert_eq!(
        new_handle.stats().synthesis.count,
        0,
        "warming a joining shard must cost zero synthesis"
    );

    // the whole corpus over the 3-shard ring: golden answers, and the
    // previously computed keys still never re-synthesize
    let total_before = synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap()))
        + new_handle.stats().synthesis.count;
    let mut shuffled = order.clone();
    rng.shuffle(&mut shuffled);
    drive(&mut balancer, &shuffled, &specs, &goldens);
    assert_eq!(
        synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap()))
            + new_handle.stats().synthesis.count,
        total_before,
        "a key was re-synthesized after the replacement joined"
    );

    // ---- phase 6: bounded seeded soak — reconfigure mid-load -------
    for round in 0..rounds {
        // an epoch bump with the same membership, sent to a random
        // shard while load runs: answers must stay golden and warm
        let epoch = 4 + round;
        let mut admin = Client::connect(joined[rng.below(joined.len())].as_str()).unwrap();
        assert_eq!(admin.reconfigure(epoch, joined.clone()).unwrap(), epoch);
        let mut shuffled = order.clone();
        rng.shuffle(&mut shuffled);
        drive(&mut balancer, &shuffled, &specs, &goldens);
        poll_until("soak epoch convergence", || {
            survivor_ids
                .iter()
                .all(|&s| handles[s].as_ref().unwrap().stats().epoch == epoch)
                && new_handle.stats().epoch == epoch
        });
    }
    let final_total = synthesis_sum(survivor_ids.iter().map(|&s| handles[s].as_ref().unwrap()))
        + new_handle.stats().synthesis.count;
    assert_eq!(
        final_total, total_before,
        "the soak re-synthesized a warm key"
    );

    // a stale client that never heard any of this still gets golden
    // answers (failover) and can converge by probing
    let mut stale = Balancer::new(peers.clone())
        .unwrap()
        .with_policy(RetryPolicy::seeded(seed ^ 1).with_deadline(Duration::from_secs(20)));
    let run = stale.run(&specs[0]).unwrap();
    assert_eq!(run.report.digest, goldens[0]);
    poll_until("stale balancer convergence", || {
        stale.refresh_membership() >= 3
    });

    new_handle.shutdown();
    for handle in handles.into_iter().flatten() {
        handle.shutdown();
    }
}

/// Pulls the span dump for `trace` from one shard, or panics with the
/// shard's address in the message.
fn dump_from(addr: &str, trace: u64) -> ss_server::SpanDump {
    Client::connect(addr)
        .and_then(|mut c| c.trace_dump(trace))
        .unwrap_or_else(|e| panic!("trace dump from {addr}: {e}"))
}

fn has_kind(dump: &ss_server::SpanDump, kind: SpanKind) -> bool {
    dump.spans.iter().any(|s| s.kind == kind)
}

/// The observability acceptance story: a traced job whose owner is
/// killed mid-workload must still be reconstructable **end to end**
/// from `TraceDump` spans pulled off the surviving shards — the
/// replica's ingest (recorded before the kill), the warm failover
/// serve, and the reconfigure-driven re-replication hop onto the
/// third shard all stitch under the one pinned trace id, which is a
/// pure function of `SS_CHAOS_SEED`.
#[test]
fn traced_job_surviving_a_shard_kill_reconstructs_across_shards() {
    let seed = env_u64("SS_CHAOS_SEED", 0xC0_FFEE);
    let (peers, mut handles) = spawn_fleet(3);
    let mut balancer = Balancer::new(peers.clone())
        .unwrap()
        .with_policy(RetryPolicy::seeded(seed).with_deadline(Duration::from_secs(20)));

    // pin the trace id so the whole story is deterministic in the seed
    // (the balancer keeps a caller-supplied context instead of minting)
    let trace = seed | 1;
    let mut spec = spec_for(42);
    spec.trace = TraceContext::root(trace);
    let golden = golden_digest(&spec);

    // cold run lands on the rendezvous owner and carries the trace
    let cold = balancer.run(&spec).unwrap();
    assert_eq!(cold.report.digest, golden);
    assert_eq!(cold.trace, trace, "balancer must keep the pinned trace");
    assert_eq!(cold.report.trace, trace, "the report echoes the trace id");
    let owner = cold.shard;

    // the write-behind push delivers the key — trace attached — to the
    // runner-up replica before the fault fires
    poll_until("replication of the traced key", || {
        replicas_received_sum(handles.iter().flatten()) >= 1
    });

    // kill the owner: its span ring dies with it; what survives is
    // exactly what the trace already propagated to other processes
    handles[owner].take().unwrap().shutdown();
    let survivor_ids: Vec<usize> = (0..3).filter(|&s| s != owner).collect();

    // the same traced job resubmitted mid-kill: failover serves it
    // warm off the replica, under the same trace id
    let warm = balancer.run(&spec).unwrap();
    assert_eq!(warm.report.digest, golden, "failover answer diverged");
    assert_eq!(warm.trace, trace);
    assert!(
        warm.failovers >= 1,
        "the dead owner must cost a failover hop"
    );
    let serving = warm.shard;
    assert_ne!(serving, owner, "a dead shard cannot have served the job");
    let other = survivor_ids
        .iter()
        .copied()
        .find(|&s| s != serving)
        .unwrap();

    // shrink the ring to the survivor pair: placement changes push the
    // key — originating trace still attached — onto the last shard
    let survivors: Vec<String> = survivor_ids.iter().map(|&s| peers[s].clone()).collect();
    let mut admin = Client::connect(peers[serving].as_str()).unwrap();
    assert_eq!(admin.reconfigure(2, survivors).unwrap(), 2);
    poll_until(
        "re-replication to carry the trace to the last shard",
        || {
            has_kind(
                &dump_from(peers[other].as_str(), trace),
                SpanKind::ReplicaIngest,
            )
        },
    );

    // ---- reconstruct end to end from the surviving rings -----------
    let mut shards: Vec<ShardDump> = survivor_ids
        .iter()
        .map(|&s| ShardDump {
            addr: peers[s].clone(),
            dump: dump_from(peers[s].as_str(), trace),
        })
        .collect();
    shards.push(ShardDump {
        addr: "client".to_string(),
        dump: balancer.local_dump(),
    });

    let contributing = shards
        .iter()
        .filter(|s| s.dump.spans.iter().any(|sp| sp.trace == trace))
        .count();
    assert!(
        contributing >= 3,
        "expected spans from the client and both surviving shards, got {contributing}"
    );

    // the serving replica tells the whole survival story: the ingest
    // recorded before the kill, the warm failover serve, and the
    // re-replication push that rebalanced the key afterwards
    let serving_dump = &shards[survivor_ids.iter().position(|&s| s == serving).unwrap()].dump;
    for kind in [
        SpanKind::ReplicaIngest,
        SpanKind::RecvDecode,
        SpanKind::QueueWait,
        SpanKind::CacheMemory,
        SpanKind::Embed,
        SpanKind::Segment,
        SpanKind::CodecTx,
        SpanKind::ReplicatePush,
    ] {
        assert!(
            has_kind(serving_dump, kind),
            "serving replica is missing a {kind} span for the trace"
        );
    }
    assert!(
        serving_dump.spans.iter().all(|s| s.trace == trace),
        "a trace-filtered dump leaked spans from another trace"
    );
    assert_eq!(
        serving_dump.evicted, 0,
        "the span ring must not have evicted"
    );

    // the balancer's own spans cover both submissions and the hop
    let client_dump = &shards.last().unwrap().dump;
    assert!(
        client_dump
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::ClientSubmit)
            .count()
            >= 2,
        "both the cold and the warm run must record a client-submit span"
    );
    assert!(has_kind(client_dump, SpanKind::FailoverHop));

    // stitching is causally ordered: the ingest that saved the key
    // precedes the warm cache hit that served it after the kill
    let timeline = stitch(&shards);
    assert!(!timeline.is_empty());
    assert!(
        timeline
            .windows(2)
            .all(|w| w[0].abs_start_micros <= w[1].abs_start_micros),
        "stitched timeline is not time-ordered"
    );
    let pos = |kind: SpanKind, addr: &str| {
        timeline
            .iter()
            .position(|e| e.span.kind == kind && e.addr == addr)
            .unwrap_or_else(|| panic!("no {kind} span from {addr} in the timeline"))
    };
    let serving_addr = peers[serving].as_str();
    assert!(
        pos(SpanKind::ReplicaIngest, serving_addr) < pos(SpanKind::CacheMemory, serving_addr),
        "the replica ingest must precede the warm hit it made possible"
    );

    for handle in handles.into_iter().flatten() {
        handle.shutdown();
    }
}
