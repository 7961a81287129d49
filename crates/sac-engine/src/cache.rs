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
use sac_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
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

/// The cache's hit/miss counters.  An engine registers one set in its
/// metric registry and hands it to every epoch's cache, so the counts are
/// cumulative across epoch swaps with nothing to fold.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    decomp_hits: Arc<Counter>,
    decomp_misses: Arc<Counter>,
    comp_hits: Arc<Counter>,
    comp_misses: Arc<Counter>,
}

impl CacheCounters {
    /// The `sac_cache_*_total` counters of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let counter = |name, help| registry.counter(name, help, &[]);
        CacheCounters {
            decomp_hits: counter(
                "sac_cache_decomposition_hits_total",
                "Core-decomposition cache hits",
            ),
            decomp_misses: counter(
                "sac_cache_decomposition_misses_total",
                "Core-decomposition cache misses",
            ),
            comp_hits: counter(
                "sac_cache_components_hits_total",
                "Per-k component index cache hits",
            ),
            comp_misses: counter(
                "sac_cache_components_misses_total",
                "Per-k component index cache misses",
            ),
        }
    }

    /// Current hit/miss counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            decomposition: CacheLayerStats {
                hits: self.decomp_hits.get(),
                misses: self.decomp_misses.get(),
            },
            components: CacheLayerStats {
                hits: self.comp_hits.get(),
                misses: self.comp_misses.get(),
            },
        }
    }
}

/// Thread-safe memoisation of the k-core machinery for one graph snapshot.
///
/// The decomposition layer uses a `OnceLock`, so after the first computation a
/// hit is a single atomic load.  The per-`k` layer is a `RwLock`ed map of
/// `Arc`s: hits take the read lock only, and the returned `Arc` keeps the
/// index alive independent of the cache, so handed-out references never block
/// later insertions.  Lookups count into the [`CacheCounters`] the cache
/// was built with.
#[derive(Debug, Default)]
pub struct KCoreCache {
    decomposition: OnceLock<Arc<CoreDecomposition>>,
    components: RwLock<HashMap<u32, Arc<KCoreComponents>>>,
    counters: CacheCounters,
}

impl KCoreCache {
    /// An empty (cold) cache counting into `counters`.
    pub fn new(counters: CacheCounters) -> Self {
        KCoreCache {
            counters,
            ..KCoreCache::default()
        }
    }

    /// A cache pre-seeded for a new epoch: the decomposition is already
    /// resident (e.g. maintained incrementally by the live-update path) and
    /// `carried` holds the per-`k` component indexes that survived the epoch's
    /// delta unchanged.
    ///
    /// Carried entries are real cache contents: lookups against them count as
    /// hits, which is how cross-epoch carry-over shows up in [`CacheStats`].
    pub fn seeded(
        counters: CacheCounters,
        decomposition: Arc<CoreDecomposition>,
        carried: impl IntoIterator<Item = Arc<KCoreComponents>>,
    ) -> Self {
        let cache = KCoreCache::new(counters);
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
            self.counters.decomp_hits.inc();
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
            &self.counters.decomp_misses
        } else {
            &self.counters.decomp_hits
        };
        counter.inc();
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
            self.counters.comp_hits.inc();
            return Arc::clone(c);
        }
        let decomposition = self.decomposition(graph);
        if k > decomposition.max_core() {
            self.counters.comp_hits.inc();
            return Arc::new(KCoreComponents::empty(k));
        }
        self.counters.comp_misses.inc();
        let built = Arc::new(KCoreComponents::build(graph, &decomposition, k));
        let mut map = self.components.write().expect("cache lock poisoned");
        // A racing thread may have inserted meanwhile; keep the first so every
        // caller shares one index.
        Arc::clone(map.entry(k).or_insert(built))
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
        let counters = CacheCounters::default();
        let cache = KCoreCache::new(counters.clone());
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

        let stats = counters.stats();
        assert_eq!(stats.decomposition.misses, 1);
        // One explicit hit plus one per components() call below.
        assert_eq!(stats.decomposition.hits, 3);
        assert_eq!(stats.components.misses, 1, "only k=2 required a build");
        assert_eq!(stats.components.hits, 2);
    }

    #[test]
    fn cache_is_safe_under_concurrent_use() {
        let g = two_triangles();
        let counters = CacheCounters::default();
        let cache = KCoreCache::new(counters.clone());
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
        let stats = counters.stats();
        assert_eq!(stats.components.hits + stats.components.misses, 24);
    }
}
