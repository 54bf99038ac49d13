//! Content-addressed synthesis cache: FNV keying over `(cube set,
//! engine config)` and a size-bounded LRU of the expensive artifacts.
//!
//! A cache entry stores everything the encode stage produced —
//! synthesised [`HardwareCtx`], the filtered (encodable) [`TestSet`]
//! and the [`EncodingResult`] — plus a [`ReportSummary`] of the report
//! those artifacts finish into. The flow is bit-deterministic, so the
//! report is fixed by the key: a memory hit answers from the summary
//! alone and runs no pipeline stage, yet returns byte-identical
//! results to a cold run. The artifacts are what the disk tier stores
//! and replication pushes; a copy loaded from either re-enters the
//! staged flow at [`Encoded::from_cached`](ss_core::Encoded::from_cached)
//! and re-runs the cheap later stages (embed → segment → finish) to
//! verify its digest before it is admitted.
//!
//! Keys are 64-bit FNV-1a hashes over the canonical workload text and
//! every result-shaping engine knob (the `threads` knob is excluded —
//! results are bit-identical at every thread count). The map is
//! bounded by an approximate byte budget; insertion evicts
//! least-recently-used entries until the new entry fits, and an entry
//! larger than the whole budget is simply not cached.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use ss_core::{Encoded, EncodingResult, HardwareCtx, PipelineReport};
use ss_store::{report_digest, Artifact};
use ss_testdata::TestSet;

use crate::protocol::JobSpec;

// the hash moved to `ss-store` (both crates key artifacts with it);
// re-exported here so `ss_server::cache::Fnv64` keeps resolving
pub use ss_store::Fnv64;

/// The content-addressed key of a job: an FNV-1a hash over the
/// canonical cube-set text and every result-shaping engine knob.
///
/// The spec's `set_text` is hashed as transmitted; the server
/// canonicalises it (parse → `to_text`) before calling this, so
/// comment/whitespace variants of the same set share a key.
pub fn cache_key(spec: &JobSpec) -> u64 {
    let mut h = Fnv64::new();
    // version salt: bump if key semantics ever change
    h.write(b"ss-cache-v1");
    h.write(spec.set_text.as_bytes());
    h.write_u64(u64::from(spec.window));
    h.write_u64(u64::from(spec.segment));
    h.write_u64(spec.speedup);
    h.write_u64(u64::from(spec.lfsr_size));
    h.write_u64(match spec.lfsr_kind {
        ss_lfsr::LfsrKind::Fibonacci => 0,
        ss_lfsr::LfsrKind::Galois => 1,
    });
    h.write_u64(u64::from(spec.ps_taps));
    h.write_u64(spec.hw_seed);
    h.write_u64(spec.fill_seed);
    h.finish()
}

/// The artifacts one cold run produces and every warm run reuses.
#[derive(Debug)]
pub struct CachedArtifacts {
    /// The synthesised hardware (LFSR, phase shifter, expression
    /// table) for the pinned LFSR size.
    pub ctx: HardwareCtx,
    /// The encodable subset actually encoded (after dropping
    /// intrinsically unencodable cubes).
    pub set: TestSet,
    /// How many cubes were dropped as intrinsically unencodable.
    pub dropped: usize,
    /// The window-based seed encoding.
    pub encoding: EncodingResult,
    /// Digest of the finished report these artifacts deterministically
    /// produce (see [`report_digest`]) — carried so replication can
    /// build a verifiable store envelope without re-running the finish
    /// stages.
    pub report_digest: u64,
    /// The last trace that produced or served this entry (0 when every
    /// toucher was untraced). Carried so reconfigure-driven
    /// re-replication pushes attribute the copy to the trace that made
    /// it — pure telemetry, never part of the cache key or the result.
    pub trace: AtomicU64,
}

impl CachedArtifacts {
    /// Approximate resident bytes: the expression table dominates
    /// (`window * cells` rows of `stride` words), plus seeds and the
    /// cube set. Used for the LRU byte budget — an estimate is enough,
    /// the budget is a resource bound, not an accounting invariant.
    pub fn approx_bytes(&self) -> usize {
        let table = self.ctx.table();
        let table_bytes = table.window() * table.scan().cells() * table.stride() * 8;
        let seed_words = self.encoding.lfsr_size.div_ceil(64);
        let seeds_bytes = self.encoding.seeds.len() * (seed_words * 8 + 48);
        let set_bytes = self.set.len() * (self.set.config().cells().div_ceil(4) + 48);
        table_bytes + seeds_bytes + set_bytes + 256
    }

    /// The store envelope of this entry.
    pub(crate) fn to_artifact(&self) -> Artifact {
        Artifact {
            ctx: self.ctx.clone(),
            set: self.set.clone(),
            dropped: self.dropped as u64,
            encoding: self.encoding.clone(),
            report_digest: self.report_digest,
        }
    }

    /// Re-enters the staged flow at the embed stage.
    pub(crate) fn encoded(&self) -> Result<Encoded<'_>, String> {
        Encoded::from_cached(&self.set, &self.ctx, self.encoding.clone())
            .map_err(|e| format!("cache pairing: {e}"))
    }
}

/// The numbers a reply reads off a finished [`PipelineReport`]: the
/// geometry, seeds, TDV, the three TSLs and the report digest. Every
/// path into the cache — a cold run, a verified disk load, a verified
/// replica — holds the report when it inserts, so the summary is filled
/// there and a memory hit never re-runs the finish stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    pub(crate) lfsr_size: u32,
    pub(crate) window: u32,
    pub(crate) segment: u32,
    pub(crate) speedup: u64,
    pub(crate) seeds: u64,
    pub(crate) tdv: u64,
    pub(crate) tsl_original: u64,
    pub(crate) tsl_truncated: u64,
    pub(crate) tsl_proposed: u64,
    pub(crate) digest: u64,
}

impl ReportSummary {
    /// Summarises a finished report, digest included.
    pub fn of(report: &PipelineReport) -> Self {
        ReportSummary {
            lfsr_size: report.lfsr_size as u32,
            window: report.window as u32,
            segment: report.segment as u32,
            speedup: report.speedup,
            seeds: report.seeds as u64,
            tdv: report.tdv as u64,
            tsl_original: report.tsl_original,
            tsl_truncated: report.tsl_truncated,
            tsl_proposed: report.tsl_proposed,
            digest: report_digest(report),
        }
    }
}

/// Counters a cache exposes for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident.
    pub bytes: usize,
    /// Byte budget.
    pub capacity_bytes: usize,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Inserts refused because the entry alone exceeded the whole
    /// budget — the over-capacity contract: such an entry is never
    /// cached, and the attempt evicts nothing.
    pub oversize_skips: u64,
}

struct Slot {
    artifacts: Arc<CachedArtifacts>,
    /// What the artifacts finish into; evicted and refreshed with them.
    summary: ReportSummary,
    bytes: usize,
    last_used: u64,
}

/// Size-bounded LRU of [`CachedArtifacts`], keyed by [`cache_key`].
///
/// Not internally synchronised — the server wraps it in a `Mutex`
/// (lookups are O(1); eviction scans are O(entries), and the byte
/// budget keeps the entry count small).
pub struct ArtifactCache {
    map: HashMap<u64, Slot>,
    capacity_bytes: usize,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    oversize_skips: u64,
}

impl ArtifactCache {
    /// Creates a cache bounded at `capacity_bytes` of approximate
    /// resident artifact size.
    pub fn new(capacity_bytes: usize) -> Self {
        ArtifactCache {
            map: HashMap::new(),
            capacity_bytes,
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            oversize_skips: 0,
        }
    }

    /// Looks a key up, marking the entry most-recently-used and
    /// counting a hit when found; an absent key counts a miss. A hit
    /// answers the entry with the summary it was inserted with.
    pub fn get(&mut self, key: u64) -> Option<(Arc<CachedArtifacts>, ReportSummary)> {
        let found = self.lookup(key);
        if found.is_none() {
            self.record_miss();
        }
        found
    }

    /// [`get`](ArtifactCache::get) without the miss accounting: an
    /// absent key leaves the counters untouched. For callers that
    /// retry the lookup — the server's coalesced waiters poll this
    /// while an identical cold job is in flight, and only the worker
    /// that actually claims the cold path records the miss (via
    /// [`record_miss`](ArtifactCache::record_miss)), so the telemetry
    /// counts jobs, not polls.
    pub fn lookup(&mut self, key: u64) -> Option<(Arc<CachedArtifacts>, ReportSummary)> {
        self.clock += 1;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = self.clock;
        self.hits += 1;
        Some((Arc::clone(&slot.artifacts), slot.summary))
    }

    /// Counts one miss — the accounting half split off
    /// [`lookup`](ArtifactCache::lookup).
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Inserts an entry, evicting least-recently-used entries until it
    /// fits. An entry larger than the whole budget is not cached —
    /// the attempt is counted and changes *nothing* else: no eviction
    /// of resident entries, no byte-bound violation, no retry loop.
    /// Re-inserting an existing key refreshes the entry and its
    /// summary.
    pub fn insert(&mut self, key: u64, artifacts: Arc<CachedArtifacts>, summary: ReportSummary) {
        let bytes = artifacts.approx_bytes();
        if bytes > self.capacity_bytes {
            self.oversize_skips += 1;
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.capacity_bytes {
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, slot)| slot.last_used) else {
                break;
            };
            let slot = self.map.remove(&oldest).expect("key came from the map");
            self.bytes -= slot.bytes;
            self.evictions += 1;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.map.insert(
            key,
            Slot {
                artifacts,
                summary,
                bytes,
                last_used: self.clock,
            },
        );
    }

    /// Every resident `(key, entry)` pair, unordered, without touching
    /// recency or hit accounting — the enumeration a reconfigured
    /// shard walks to re-replicate keys whose ranked set changed.
    pub fn entries(&self) -> Vec<(u64, Arc<CachedArtifacts>)> {
        self.map
            .iter()
            .map(|(&key, slot)| (key, Arc::clone(&slot.artifacts)))
            .collect()
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            bytes: self.bytes,
            capacity_bytes: self.capacity_bytes,
            evictions: self.evictions,
            oversize_skips: self.oversize_skips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::{Encoded, Engine};
    use ss_testdata::{generate_test_set, CubeProfile};

    fn artifacts_for(seed: u64) -> Arc<CachedArtifacts> {
        let set = generate_test_set(&CubeProfile::mini(), seed);
        let engine = Engine::builder()
            .window(16)
            .segment(4)
            .speedup(4)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let (encodable, dropped) = ctx.encodable_subset(&set);
        let encoding = Encoded::from_ctx_ref(&encodable, &ctx)
            .unwrap()
            .encoding()
            .clone();
        Arc::new(CachedArtifacts {
            ctx,
            set: encodable,
            dropped: dropped.len(),
            encoding,
            report_digest: seed,
            trace: AtomicU64::new(0),
        })
    }

    /// Inserts with the summary the artifacts really finish into.
    fn insert(cache: &mut ArtifactCache, key: u64, artifacts: Arc<CachedArtifacts>) {
        let summary = summary_of(&artifacts);
        cache.insert(key, artifacts, summary);
    }

    fn summary_of(artifacts: &CachedArtifacts) -> ReportSummary {
        let report = artifacts
            .encoded()
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();
        ReportSummary::of(&report)
    }

    fn spec_with(window: u32, text: &str) -> JobSpec {
        JobSpec {
            set_text: text.to_string(),
            window,
            segment: 4,
            speedup: 6,
            lfsr_size: 0,
            lfsr_kind: ss_lfsr::LfsrKind::Fibonacci,
            ps_taps: 3,
            hw_seed: 1,
            fill_seed: 1,
            trace: crate::protocol::TraceContext::default(),
        }
    }

    #[test]
    fn key_separates_workloads_and_configs_but_not_threads() {
        let a = spec_with(24, "chains 1 depth 2\n1X\n");
        assert_eq!(cache_key(&a), cache_key(&a.clone()));
        assert_ne!(
            cache_key(&a),
            cache_key(&spec_with(25, "chains 1 depth 2\n1X\n"))
        );
        assert_ne!(
            cache_key(&a),
            cache_key(&spec_with(24, "chains 1 depth 2\n0X\n"))
        );
        let mut b = a.clone();
        b.fill_seed = 2;
        assert_ne!(cache_key(&a), cache_key(&b));
        // threads is not even a JobSpec field — the key is structurally
        // thread-agnostic; this line documents the intent
        assert_eq!(
            cache_key(&JobSpec::new(
                &ss_testdata::TestSet::from_text(&a.set_text).unwrap(),
                Engine::builder()
                    .window(24)
                    .segment(4)
                    .speedup(6)
                    .hw_seed(1)
                    .fill_seed(1)
                    .threads(7)
                    .build()
                    .unwrap()
                    .config(),
            )),
            cache_key(&JobSpec::new(
                &ss_testdata::TestSet::from_text(&a.set_text).unwrap(),
                Engine::builder()
                    .window(24)
                    .segment(4)
                    .speedup(6)
                    .hw_seed(1)
                    .fill_seed(1)
                    .threads(1)
                    .build()
                    .unwrap()
                    .config(),
            ))
        );
    }

    #[test]
    fn lru_bounds_bytes_and_evicts_oldest() {
        let a = artifacts_for(1);
        let per_entry = a.approx_bytes();
        // room for exactly two entries
        let mut cache = ArtifactCache::new(per_entry * 2 + per_entry / 2);
        insert(&mut cache, 1, Arc::clone(&a));
        insert(&mut cache, 2, artifacts_for(2));
        assert!(cache.get(1).is_some(), "touch 1 so 2 is the LRU");
        insert(&mut cache, 3, artifacts_for(3));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.capacity_bytes);
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
    }

    #[test]
    fn oversize_entries_are_skipped_and_hits_share_ownership() {
        let a = artifacts_for(1);
        let mut cache = ArtifactCache::new(a.approx_bytes() - 1);
        insert(&mut cache, 1, Arc::clone(&a));
        assert_eq!(cache.stats().entries, 0, "too big to cache");
        assert!(cache.get(1).is_none());

        let mut cache = ArtifactCache::new(a.approx_bytes() * 4);
        insert(&mut cache, 1, Arc::clone(&a));
        let (hit, _) = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&hit, &a), "hit shares, never clones");
        // refresh with the same key does not double-count bytes
        insert(&mut cache, 1, Arc::clone(&a));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().bytes, a.approx_bytes());
    }

    /// Pins the over-capacity contract: an entry whose `approx_bytes`
    /// exceeds `capacity_bytes` is refused without touching anything
    /// resident — no mass eviction, no byte-bound violation, no spin —
    /// while an entry of exactly `capacity_bytes` is still cached.
    #[test]
    fn over_capacity_insert_evicts_nothing_and_is_counted() {
        let a = artifacts_for(1);
        let per_entry = a.approx_bytes();

        // the boundary itself is cacheable: == capacity fits
        let mut exact = ArtifactCache::new(per_entry);
        insert(&mut exact, 1, Arc::clone(&a));
        assert_eq!(exact.stats().entries, 1, "== capacity must cache");
        assert_eq!(exact.stats().oversize_skips, 0);

        // one byte over is not, even into an empty cache
        let mut small = ArtifactCache::new(per_entry - 1);
        insert(&mut small, 1, Arc::clone(&a));
        let s = small.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.evictions, 0);
        assert_eq!(s.oversize_skips, 1);

        // and into a *populated* cache the refusal must not evict the
        // resident entries (the historical LRU failure mode this test
        // pins: "evict everything, then still not fit"). A wider
        // synthesis window makes a genuinely over-budget entry.
        let big = {
            let set = generate_test_set(&CubeProfile::mini(), 9);
            let engine = Engine::builder()
                .window(64)
                .segment(4)
                .speedup(4)
                .build()
                .unwrap();
            let ctx = engine.synthesize(&set).unwrap();
            let (encodable, dropped) = ctx.encodable_subset(&set);
            let encoding = Encoded::from_ctx_ref(&encodable, &ctx)
                .unwrap()
                .encoding()
                .clone();
            Arc::new(CachedArtifacts {
                ctx,
                set: encodable,
                dropped: dropped.len(),
                encoding,
                report_digest: 9,
                trace: AtomicU64::new(0),
            })
        };
        let mut cache = ArtifactCache::new(per_entry * 2 + per_entry / 2);
        assert!(
            big.approx_bytes() > cache.stats().capacity_bytes,
            "window-64 artifacts must exceed the 2.5-entry budget"
        );
        insert(&mut cache, 1, Arc::clone(&a));
        insert(&mut cache, 2, artifacts_for(2));
        let before = cache.stats();
        assert_eq!(before.entries, 2);

        insert(&mut cache, 3, big);
        let after = cache.stats();
        assert_eq!(after.entries, before.entries, "residents were evicted");
        assert_eq!(after.bytes, before.bytes);
        assert_eq!(after.evictions, 0);
        assert_eq!(after.oversize_skips, 1);
        assert!(after.bytes <= after.capacity_bytes);
        assert!(cache.get(3).is_none());
        assert!(cache.get(1).is_some() && cache.get(2).is_some());
    }

    /// The summary lives and dies with its slot: an evicted key's
    /// summary goes with it, and a re-insert — after eviction or over
    /// a resident entry — answers the new summary, never a stale one.
    #[test]
    fn summaries_are_evicted_and_refreshed_with_their_slot() {
        let (a, b) = (artifacts_for(1), artifacts_for(2));
        let (sa, sb) = (summary_of(&a), summary_of(&b));
        assert_ne!(sa, sb, "different workloads finish differently");
        let per_entry = a.approx_bytes().max(b.approx_bytes());
        let mut cache = ArtifactCache::new(per_entry + per_entry / 2);

        cache.insert(1, Arc::clone(&a), sa);
        assert_eq!(cache.get(1).unwrap().1, sa);
        // room for one entry: inserting key 2 evicts key 1 and its summary
        cache.insert(2, Arc::clone(&b), sb);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(1).is_none(), "the summary left with its slot");
        assert_eq!(cache.get(2).unwrap().1, sb);

        // re-admitting key 1 answers the summary it was re-inserted with
        cache.insert(1, Arc::clone(&b), sb);
        assert_eq!(cache.get(1).unwrap().1, sb);
        // and a refresh over a resident slot replaces it
        cache.insert(1, Arc::clone(&a), sa);
        let (entry, summary) = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&entry, &a));
        assert_eq!(summary, sa);
        assert_eq!(cache.stats().entries, 1);
    }
}
