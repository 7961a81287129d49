//! The shared k-core index cache.
//!
//! Every SAC algorithm starts from the same two structural facts about the
//! graph: the core number of every vertex (an `O(m)` peeling pass) and the
//! connected component of the k-core containing the query vertex (the
//! paper's Step 1).  A serving engine answering many queries over one
//! immutable snapshot recomputes neither: this module memoises the
//! [`CoreDecomposition`] once per snapshot and a [`KCoreComponents`]
//! labelling (defined in `sac-graph`) once per distinct `k`, both behind
//! lock-free (`OnceLock`) or read-mostly (`RwLock`) sharing so concurrent
//! readers never serialise on a cache hit.  The planner reads its
//! feasibility facts from the per-`k` labelling, and the engine hands the
//! same labelling to the query's `SearchContext`, so Step 1 is a slice copy.

use sac_graph::{core_decomposition, CoreDecomposition, Graph, KCoreComponents};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Hit/miss counters of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLayerStats {
    /// Lookups answered from the resident index.
    pub hits: u64,
    /// Lookups that had to build the index.
    pub misses: u64,
}

/// Snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Core-decomposition layer (one entry per snapshot).
    pub decomposition: CacheLayerStats,
    /// Per-`k` connected-component layer.
    pub components: CacheLayerStats,
}

/// Thread-safe memoisation of the k-core machinery for one graph snapshot.
///
/// The decomposition layer uses a `OnceLock`, so after the first computation a
/// hit is a single atomic load.  The per-`k` layer is a `RwLock`ed map of
/// `Arc`s: hits take the read lock only, and the returned `Arc` keeps the
/// index alive independent of the cache, so handed-out references never block
/// later insertions.
#[derive(Debug, Default)]
pub struct KCoreCache {
    decomposition: OnceLock<Arc<CoreDecomposition>>,
    components: RwLock<HashMap<u32, Arc<KCoreComponents>>>,
    decomp_hits: AtomicU64,
    decomp_misses: AtomicU64,
    comp_hits: AtomicU64,
    comp_misses: AtomicU64,
}

impl KCoreCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        KCoreCache::default()
    }

    /// A cache pre-seeded for a new epoch: the decomposition is already
    /// resident (e.g. maintained incrementally by the live-update path) and
    /// `carried` holds the per-`k` component indexes that survived the epoch's
    /// delta unchanged.
    ///
    /// Carried entries are real cache contents: lookups against them count as
    /// hits, which is how cross-epoch carry-over shows up in [`CacheStats`].
    pub fn seeded(
        decomposition: Arc<CoreDecomposition>,
        carried: impl IntoIterator<Item = Arc<KCoreComponents>>,
    ) -> Self {
        let cache = KCoreCache::default();
        cache
            .decomposition
            .set(decomposition)
            .expect("fresh OnceLock");
        {
            let mut map = cache.components.write().expect("cache lock poisoned");
            for entry in carried {
                map.insert(entry.k(), entry);
            }
        }
        cache
    }

    /// The resident per-`k` component indexes (used by the epoch-publish path
    /// to decide what carries over to the next snapshot).
    pub fn component_entries(&self) -> Vec<Arc<KCoreComponents>> {
        self.components
            .read()
            .expect("cache lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Whether the decomposition is already resident.
    pub fn is_warm(&self) -> bool {
        self.decomposition.get().is_some()
    }

    /// The memoised core decomposition of `graph`, computing it on first use.
    pub fn decomposition(&self, graph: &Graph) -> Arc<CoreDecomposition> {
        if let Some(d) = self.decomposition.get() {
            self.decomp_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(d);
        }
        // `get_or_init` runs the closure on one thread only; threads that
        // raced past the check above wait for it and count as hits, so
        // `misses` is the number of decompositions actually computed.
        let mut computed = false;
        let decomposition = self.decomposition.get_or_init(|| {
            computed = true;
            Arc::new(core_decomposition(graph))
        });
        let counter = if computed {
            &self.decomp_misses
        } else {
            &self.decomp_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(decomposition)
    }

    /// The memoised component labelling of the k-core for this `k`.
    ///
    /// Only `k` values up to the graph's degeneracy are cached: for larger `k`
    /// the k-core is empty, and a cheap throwaway empty labelling is returned
    /// instead, so wire-supplied `k` values cannot grow the cache (or trigger
    /// `O(n)` builds) without bound.
    pub fn components(&self, graph: &Graph, k: u32) -> Arc<KCoreComponents> {
        if let Some(c) = self.components.read().expect("cache lock poisoned").get(&k) {
            self.comp_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(c);
        }
        let decomposition = self.decomposition(graph);
        if k > decomposition.max_core() {
            self.comp_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::new(KCoreComponents::empty(k));
        }
        self.comp_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(KCoreComponents::build(graph, &decomposition, k));
        let mut map = self.components.write().expect("cache lock poisoned");
        // A racing thread may have inserted meanwhile; keep the first so every
        // caller shares one index.
        Arc::clone(map.entry(k).or_insert(built))
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            decomposition: CacheLayerStats {
                hits: self.decomp_hits.load(Ordering::Relaxed),
                misses: self.decomp_misses.load(Ordering::Relaxed),
            },
            components: CacheLayerStats {
                hits: self.comp_hits.load(Ordering::Relaxed),
                misses: self.comp_misses.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_graph::GraphBuilder;

    /// Two disjoint triangles, each with a pendant vertex: the 2-core has two
    /// components {0,1,2} and {4,5,6}; vertices 3 and 7 have core number 1.
    fn two_triangles() -> Graph {
        GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (4, 6),
            (6, 7),
        ])
    }

    #[test]
    fn cache_hits_after_first_use() {
        let g = two_triangles();
        let cache = KCoreCache::new();
        assert!(!cache.is_warm());
        let d1 = cache.decomposition(&g);
        assert!(cache.is_warm());
        let d2 = cache.decomposition(&g);
        assert!(Arc::ptr_eq(&d1, &d2));

        let c1 = cache.components(&g, 2);
        let c2 = cache.components(&g, 2);
        assert!(Arc::ptr_eq(&c1, &c2));
        // k above the degeneracy: answered with an empty labelling, no build,
        // and — crucially — no cache entry (wire-supplied k can't grow the map).
        let c3 = cache.components(&g, 3);
        assert_eq!(c3.num_components(), 0);
        assert!(c3.component_of(0).is_none());

        let stats = cache.stats();
        assert_eq!(stats.decomposition.misses, 1);
        // One explicit hit plus one per components() call below.
        assert_eq!(stats.decomposition.hits, 3);
        assert_eq!(stats.components.misses, 1, "only k=2 required a build");
        assert_eq!(stats.components.hits, 2);
    }

    #[test]
    fn cache_is_safe_under_concurrent_use() {
        let g = two_triangles();
        let cache = KCoreCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in [1u32, 2, 3] {
                        let c = cache.components(&g, k);
                        assert_eq!(c.k(), k);
                        if k == 2 {
                            assert_eq!(c.core_size_of(0), Some(3));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.components.hits + stats.components.misses, 24);
    }
}
