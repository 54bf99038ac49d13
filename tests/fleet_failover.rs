//! Fleet failover acceptance test: a 3-shard serving tier is fed a
//! workload through the balancer, one shard is killed mid-workload,
//! and every job must still complete with answers bit-identical to
//! the uncached golden digests computed locally — the paper's flow is
//! deterministic end to end, so failover may change *where* a job
//! runs but never *what* it answers.
//!
//! Also pinned here, end to end over real sockets: exactly-once
//! cluster-wide cold computation (the ring sends every key to one
//! owner) and the redirect contract for misrouted plain submissions.

use std::time::Duration;

use ss_core::{Encoded, Engine};
use ss_server::{
    cache_key, report_digest, Balancer, Client, ClientError, JobSpec, RetryPolicy, ServeOptions,
    Server, ServerHandle, ShardSpec,
};
use ss_testdata::{generate_test_set, CubeProfile, TestSet};

const WINDOW: usize = 16;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 4;

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

/// Binds `n` shards on ephemeral ports, then configures every one
/// with the full fleet address list before spawning.
fn spawn_fleet(n: usize) -> (Vec<String>, Vec<Option<ServerHandle>>) {
    let servers: Vec<Server> = (0..n)
        .map(|_| {
            Server::bind(&ServeOptions {
                workers: 1,
                cache_bytes: 64 << 20,
                queue_depth: 8,
                // replication off: this test pins the *unreplicated*
                // exactly-once arithmetic (a dead shard's keys recompute
                // on the failover target);
                // the replicated counterpart lives in fleet_chaos.rs
                replicas: 1,
                ..ServeOptions::default()
            })
            .unwrap()
        })
        .collect();
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

fn fleet_synthesis_count(handles: &[Option<ServerHandle>]) -> u64 {
    handles
        .iter()
        .flatten()
        .map(|h| h.stats().synthesis.count)
        .sum()
}

#[test]
fn killing_a_shard_mid_workload_keeps_answers_bit_identical() {
    let (peers, mut handles) = spawn_fleet(3);
    let specs: Vec<JobSpec> = (1..=6).map(spec_for).collect();
    let goldens: Vec<u64> = specs.iter().map(golden_digest).collect();

    let mut balancer = Balancer::new(peers.clone())
        .unwrap()
        .with_policy(RetryPolicy::seeded(11).with_deadline(Duration::from_secs(20)));

    // round 1: a healthy fleet routes every key to its ring owner and
    // answers the golden digest
    let mut owners = Vec::new();
    for (spec, golden) in specs.iter().zip(&goldens) {
        let run = balancer.run(spec).unwrap();
        assert_eq!(run.report.digest, *golden, "fleet answer diverged");
        assert_eq!(run.failovers, 0, "healthy fleet must not fail over");
        assert_eq!(
            run.shard,
            balancer.ring().owner(cache_key(spec)),
            "job served off its owning shard"
        );
        owners.push(run.shard);
    }
    assert!(
        owners.iter().any(|&s| s != owners[0]),
        "6 keys all landed on one shard — the ring is not spreading"
    );

    // exactly-once cluster-wide: 6 distinct keys, 6 cold syntheses
    // across the whole fleet, no matter which shards served them
    assert_eq!(fleet_synthesis_count(&handles), 6);

    // a plain submission to a non-owner is redirected to the owner,
    // and nothing runs on the wrong shard
    let spec0 = &specs[0];
    let owner0 = owners[0];
    let non_owner = (0..3).find(|&s| s != owner0).unwrap();
    let mut direct_client = Client::connect(peers[non_owner].as_str()).unwrap();
    match direct_client.run(spec0) {
        Err(ClientError::Redirected(addr)) => assert_eq!(addr, peers[owner0]),
        other => panic!("non-owner answered {other:?} instead of a redirect"),
    }
    assert_eq!(fleet_synthesis_count(&handles), 6);

    // kill spec0's owner mid-workload
    handles[owner0].take().unwrap().shutdown();

    // round 2: the old keys plus fresh ones; every job must complete
    // on a surviving shard with the same digests
    let more_specs: Vec<JobSpec> = (7..=12).map(spec_for).collect();
    let more_goldens: Vec<u64> = more_specs.iter().map(golden_digest).collect();
    for (spec, golden) in specs
        .iter()
        .zip(&goldens)
        .chain(more_specs.iter().zip(&more_goldens))
    {
        let run = balancer.run(spec).unwrap();
        assert_eq!(
            run.report.digest, *golden,
            "failover changed an answer bit-for-bit"
        );
        assert_ne!(
            run.shard, owner0,
            "a job was served by the shard that was killed"
        );
    }
    // still exactly once per key on the survivors: the dead owner's
    // keys recomputed once on their failover targets, the 6 fresh keys
    // once each, and the survivors' own keys hit their caches — 12
    // distinct keys, 12 syntheses (the dead shard's counters are gone)
    assert_eq!(fleet_synthesis_count(&handles), 12);

    for handle in handles.into_iter().flatten() {
        handle.shutdown();
    }
}
