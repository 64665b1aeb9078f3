//! Cross-job shared edge-extent cache.
//!
//! A multi-tenant service runs many jobs over the same immutable on-disk
//! graph. Each adjacency edge run is written once and read by every job
//! that computes its vertex, so a byte-weighted cache over decoded edge
//! extents turns repeated physical reads into memory hits — the
//! [`LruCache`] of the per-vertex pull baseline promoted to a cache shared
//! *between* jobs.
//!
//! Attribution is per requesting job, not global: the cache itself holds
//! no [`IoStats`](crate::stats::IoStats). A hit means the requesting job
//! moved no physical bytes — the caller records the extent's logical bytes
//! into *its own* stats sink
//! ([`IoStats::record_logical`](crate::stats::IoStats::record_logical)) so
//! the job's `io_ratio` (physical / logical) reflects exactly what the
//! cache saved *it*. A miss is a normal read through the job's own store
//! view, already charged to the job. Evictions displace clean immutable
//! data (no write-back), so their only cost is the insert-side bookkeeping
//! counted by the inserting job.
//!
//! Sharding and determinism: the cache is sharded by worker slot, and a
//! vertex's extent lives only in the shard of the worker that owns the
//! vertex. While one job holds the engine (see the service scheduler),
//! each shard is touched by exactly one worker thread, in that worker's
//! deterministic access order — so the cache contents after every
//! scheduler grant are a pure function of the grant history, which is what
//! makes multi-job runs byte-identically replayable.

use crate::lru::LruCache;
use hybridgraph_codec::frame::AsU32;
use hybridgraph_codec::record;
use hybridgraph_graph::Edge;
use std::io;
use std::sync::{Arc, Mutex};

/// Fixed per-entry bookkeeping weight (key, Arc, length fields) charged on
/// top of the extent's stored bytes.
pub const CACHE_ENTRY_OVERHEAD: usize = 32;

/// Cache key: `(graph id, vertex id)` — graphs registered in the same
/// service share one cache, so extents of different graphs must not
/// collide.
pub type ExtentKey = (u32, u32);

/// One shard's counters, exposed for service-level reporting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found the extent.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by inserts.
    pub evictions: u64,
    /// Bytes currently cached (weights, including overhead).
    pub used_bytes: u64,
}

impl SharedCacheStats {
    /// Component-wise sum.
    pub fn plus(&self, o: &SharedCacheStats) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            used_bytes: self.used_bytes + o.used_bytes,
        }
    }
}

struct Shard {
    lru: LruCache<ExtentKey, Arc<Vec<Edge>>>,
    evictions: u64,
}

/// One cached extent of a [`ShardSnapshot`].
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Which graph's vertex the extent belongs to.
    pub key: ExtentKey,
    /// The exact weight it was inserted with.
    pub weight: usize,
    /// The decoded edges.
    pub edges: Arc<Vec<Edge>>,
}

/// One shard of a [`CacheSnapshot`]: MRU-first entries plus the shard's
/// attribution counters.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Cached extents, most-recently-used first.
    pub entries: Vec<CacheEntry>,
    /// Lookups that found an extent.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by inserts.
    pub evictions: u64,
}

/// A deep, order- and weight-exact copy of a [`SharedEdgeCache`], taken at
/// a barrier and replayed on service restore.
#[derive(Clone, Debug)]
pub struct CacheSnapshot {
    /// Per-slot shard snapshots, in slot order.
    pub shards: Vec<ShardSnapshot>,
}

/// An edge as the service log stores it: destination id, weight bits.
pub struct EdgeLayout;

record! { EdgeLayout: Edge { dst via AsU32, weight } }
record! { CacheEntry { key, weight, edges via Arc<Vec<EdgeLayout>> } }
record! { ShardSnapshot { hits, misses, evictions, entries } }
record! { CacheSnapshot { shards } }

/// A byte-weighted cache of decoded adjacency extents shared by every job
/// of a service, sharded per worker slot.
pub struct SharedEdgeCache {
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for SharedEdgeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedEdgeCache")
            .field("slots", &self.slots())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("used_bytes", &s.used_bytes)
            .finish()
    }
}

impl SharedEdgeCache {
    /// A cache with `slots` shards (one per worker slot of the registered
    /// graphs) and `capacity_bytes` total budget, split evenly.
    ///
    /// # Panics
    /// Panics if `slots` is zero or the per-shard budget rounds to zero.
    pub fn new(slots: usize, capacity_bytes: usize) -> SharedEdgeCache {
        assert!(slots > 0, "shared cache needs at least one shard");
        let per = capacity_bytes / slots;
        SharedEdgeCache {
            shards: (0..slots)
                .map(|_| {
                    Mutex::new(Shard {
                        lru: LruCache::new(per),
                        evictions: 0,
                    })
                })
                .collect(),
        }
    }

    /// Number of shards (worker slots) the cache was built for.
    pub fn slots(&self) -> usize {
        self.shards.len()
    }

    /// Looks up the extent of `vertex` of `graph` in `slot`'s shard,
    /// promoting it on hit. The caller is responsible for charging the
    /// extent's logical bytes to the requesting job's stats.
    pub fn get(&self, slot: usize, graph: u32, vertex: u32) -> Option<Arc<Vec<Edge>>> {
        self.shards[slot]
            .lock()
            .unwrap()
            .lru
            .get(&(graph, vertex))
            .map(Arc::clone)
    }

    /// Inserts a decoded extent weighing `stored_bytes` on disk. Returns
    /// how many entries were evicted to make room (charged to the
    /// inserting job's counters by the caller).
    pub fn insert(
        &self,
        slot: usize,
        graph: u32,
        vertex: u32,
        edges: Arc<Vec<Edge>>,
        stored_bytes: u64,
    ) -> u64 {
        let mut shard = self.shards[slot].lock().unwrap();
        let weight = stored_bytes as usize + CACHE_ENTRY_OVERHEAD;
        let evicted = shard
            .lru
            .insert_weighted((graph, vertex), edges, false, weight)
            .len() as u64;
        shard.evictions += evicted;
        evicted
    }

    /// Drops every cached extent of `graph` — called when the catalog
    /// evicts a graph so its memory is returned.
    ///
    /// Surviving entries keep their recency order *and* their exact
    /// insert-time weights (the extent's stored on-disk bytes plus
    /// overhead) — recomputing weights from decoded edge counts would
    /// drift `used_bytes` away from what the inserting jobs were charged,
    /// and a later [`Self::snapshot`] would then disagree with a
    /// log-replayed cache.
    pub fn purge_graph(&self, graph: u32) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let keep: Vec<(ExtentKey, Arc<Vec<Edge>>, bool, usize)> = shard
                .lru
                .snapshot_mru()
                .into_iter()
                .filter(|((g, _), _, _, _)| *g != graph)
                .collect();
            shard.lru.drain();
            // Re-insert MRU-first entries in reverse so recency survives.
            for ((g, v), edges, _, weight) in keep.into_iter().rev() {
                shard.lru.insert_weighted((g, v), edges, false, weight);
            }
        }
    }

    /// A deep copy of the cache: per shard, the MRU-ordered entries with
    /// their exact weights plus the attribution counters. This is what the
    /// durable service writes into its log at every barrier so a restarted
    /// service resumes with byte-identical cache behaviour (same hits,
    /// same evictions, same `io_ratio` attribution per tenant).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let shard = shard.lock().unwrap();
                    ShardSnapshot {
                        entries: shard
                            .lru
                            .snapshot_mru()
                            .into_iter()
                            .map(|(key, edges, _, weight)| CacheEntry { key, weight, edges })
                            .collect(),
                        hits: shard.lru.hits(),
                        misses: shard.lru.misses(),
                        evictions: shard.evictions,
                    }
                })
                .collect(),
        }
    }

    /// Replaces the cache contents and counters with `snap` — the restore
    /// half of [`Self::snapshot`]. A snapshot of another shard count (a
    /// log written under another `cache_slots`) is `InvalidData`, and the
    /// cache is left as it was.
    pub fn restore(&self, snap: &CacheSnapshot) -> io::Result<()> {
        if snap.shards.len() != self.shards.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "cache snapshot has {} shards, the cache {}",
                    snap.shards.len(),
                    self.shards.len()
                ),
            ));
        }
        for (shard, s) in self.shards.iter().zip(&snap.shards) {
            let mut shard = shard.lock().unwrap();
            shard.lru.drain();
            for e in s.entries.iter().rev() {
                shard
                    .lru
                    .insert_weighted(e.key, Arc::clone(&e.edges), false, e.weight);
            }
            shard.lru.set_counters(s.hits, s.misses);
            shard.evictions = s.evictions;
        }
        Ok(())
    }

    /// Summed counters across shards.
    pub fn stats(&self) -> SharedCacheStats {
        let mut out = SharedCacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            out = out.plus(&SharedCacheStats {
                hits: shard.lru.hits(),
                misses: shard.lru.misses(),
                evictions: shard.evictions,
                used_bytes: shard.lru.used_weight() as u64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_graph::VertexId;

    fn extent(n: usize) -> Arc<Vec<Edge>> {
        Arc::new(
            (0..n)
                .map(|i| Edge::weighted(VertexId(i as u32), 1.0))
                .collect(),
        )
    }

    #[test]
    fn hit_after_insert_same_slot() {
        let c = SharedEdgeCache::new(2, 4096);
        assert!(c.get(0, 7, 1).is_none());
        c.insert(0, 7, 1, extent(3), 24);
        let got = c.get(0, 7, 1).unwrap();
        assert_eq!(got.len(), 3);
        // Other shard and other graph are independent namespaces.
        assert!(c.get(1, 7, 1).is_none());
        assert!(c.get(0, 8, 1).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // One shard, room for two 200-byte extents plus overhead.
        let c = SharedEdgeCache::new(1, 2 * (200 + CACHE_ENTRY_OVERHEAD));
        assert_eq!(c.insert(0, 1, 1, extent(25), 200), 0);
        assert_eq!(c.insert(0, 1, 2, extent(25), 200), 0);
        c.get(0, 1, 1); // promote 1; 2 becomes LRU
        assert_eq!(c.insert(0, 1, 3, extent(25), 200), 1);
        assert!(c.get(0, 1, 2).is_none(), "LRU entry must have been evicted");
        assert!(c.get(0, 1, 1).is_some());
        assert!(c.get(0, 1, 3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn purge_graph_keeps_neighbors() {
        let c = SharedEdgeCache::new(1, 1 << 16);
        c.insert(0, 1, 10, extent(2), 16);
        c.insert(0, 2, 10, extent(2), 16);
        c.purge_graph(1);
        assert!(c.get(0, 1, 10).is_none());
        assert!(c.get(0, 2, 10).is_some());
    }

    #[test]
    fn purge_graph_preserves_exact_weights() {
        // A stored weight (300 bytes on disk) that differs from the decoded
        // in-memory size (2 edges): the survivor must keep its insert-time
        // weight, not a recomputed one.
        let c = SharedEdgeCache::new(1, 1 << 16);
        c.insert(0, 1, 10, extent(2), 16);
        c.insert(0, 2, 10, extent(2), 300);
        let before = c.stats().used_bytes;
        assert_eq!(
            before,
            (16 + 300 + 2 * CACHE_ENTRY_OVERHEAD as u64),
            "sanity: weights are stored bytes plus overhead"
        );
        c.purge_graph(1);
        assert_eq!(
            c.stats().used_bytes,
            300 + CACHE_ENTRY_OVERHEAD as u64,
            "survivor keeps its exact stored-bytes weight"
        );
    }

    #[test]
    fn snapshot_restore_is_exact_replica() {
        let c = SharedEdgeCache::new(2, 2 * 2 * (200 + CACHE_ENTRY_OVERHEAD));
        c.insert(0, 1, 1, extent(25), 200);
        c.insert(0, 1, 2, extent(25), 200);
        c.get(0, 1, 1); // promote 1 so 2 is the LRU entry
        c.insert(1, 1, 3, extent(4), 32);
        c.get(1, 9, 9); // a miss, for the counters
        let snap = c.snapshot();

        let d = SharedEdgeCache::new(2, 2 * 2 * (200 + CACHE_ENTRY_OVERHEAD));
        d.restore(&snap).unwrap();
        let other = SharedEdgeCache::new(3, 1 << 16);
        let err = other.restore(&snap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(d.stats(), c.stats(), "counters and used bytes carry over");
        // Recency carried over: inserting a third extent into slot 0 must
        // evict vertex 2 (the LRU), exactly as it would in the original.
        assert_eq!(d.insert(0, 1, 4, extent(25), 200), 1);
        assert!(d.get(0, 1, 2).is_none());
        assert!(d.get(0, 1, 1).is_some());
        assert_eq!(c.insert(0, 1, 4, extent(25), 200), 1);
        assert!(c.get(0, 1, 2).is_none());
        assert!(c.get(0, 1, 1).is_some());
        assert_eq!(d.stats(), c.stats(), "replica tracks original exactly");
    }
}
