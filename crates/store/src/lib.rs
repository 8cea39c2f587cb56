//! # wdsparql-store
//!
//! A dictionary-encoded triple store with sorted permutation indexes, a
//! log-structured write path and a concurrent query service — the
//! production-path substrate behind the evaluation engine, replacing
//! [`RdfGraph`](wdsparql_rdf::RdfGraph)'s string-interned hash indexes
//! on the hot path.
//!
//! ## Index layout
//!
//! Triples are interned through a [`Dictionary`] into dense `u32` ids and
//! stored as sorted arrays of `[TermId; 3]` rows — the SPO, POS and OSP
//! component rotations, plus a base-only PSO rotation for subject-sorted
//! merge-join inputs — each base array with an offset table indexed by
//! leading id, so every bound-prefix lookup lands on one contiguous
//! slice and the sorted blocks double as merge-join inputs
//! ([`EncodedGraph::merge_join_ids`]). Writes append small sorted delta
//! segments instead of rewriting the base; reads merge base + deltas
//! behind the same bounded-prefix narrowing, and a [`CompactionPolicy`]
//! (or an explicit [`TripleStore::compact`]) folds the deltas back. The
//! layout diagram, the per-access-pattern index-choice table and the
//! segment lifecycle live in this crate's `README.md` (the single copy,
//! so the two cannot drift).
//!
//! ## Layers
//!
//! * [`Dictionary`] — dense two-way term interning;
//! * [`EncodedGraph`] — the permutation arrays and segments; implements
//!   [`wdsparql_rdf::TripleIndex`], so every evaluation algorithm in the
//!   workspace (naive, pebble, enumeration, reference semantics) runs
//!   against it unchanged;
//! * [`TripleStore`] — the service: queries run lock-free on `Arc`
//!   snapshots of the graph, batched
//!   [`bulk_load`](TripleStore::bulk_load) appends delta segments
//!   copy-on-write under the write lock with epoch bumping, an LRU
//!   result cache keyed by `(query, epoch)` deduplicates concurrent
//!   misses in flight, and [`StoreStats`] selectivity statistics drive
//!   most-selective-first, connectivity-aware BGP planning. Every BGP
//!   query enters through [`TripleStore::execute`]: a [`QueryRequest`]
//!   (patterns, budget, optional LIMIT, optional profile) in, a
//!   [`QueryResponse`] out — the rows with the executed plan from the
//!   same snapshot, planned exactly once;
//! * [`ShardedStore`] — write scaling: N hash-partitioned-by-subject
//!   [`TripleStore`] shards behind one facade. Bulk loads scatter to
//!   per-shard write locks (parallel on multi-core hosts, and a reader's
//!   snapshot pins one shard, not the dataset), subject-bound patterns
//!   route to exactly one shard, unbound ones scatter (on scoped threads
//!   when the host and the run sizes warrant it) and concatenate the
//!   disjoint per-shard runs lazily, and the facade's result cache is
//!   keyed by the epoch vector of the shards each query read — so routed
//!   results survive writes to other shards. [`ShardedStore::execute`]
//!   answers through the same skeleton as the single store, on its
//!   scatter-gather snapshot. [`ShardedSnapshot`]
//!   implements [`wdsparql_rdf::TripleIndex`], so every evaluator runs
//!   unchanged on the sharded layout;
//! * [`wcoj`] — worst-case-optimal multiway joins: a leapfrog triejoin
//!   over seekable tries ([`wdsparql_rdf::TrieCursor`]) served zero-copy
//!   from the sorted permutations, behind the
//!   [`JoinStrategy`]`::{Pairwise, Wco, Auto}` knob on both services and
//!   the engine — under `Auto`, cyclic query cores (triangles,
//!   k-cliques) route to the WCOJ instead of blowing up the pairwise
//!   pipeline's intermediates;
//! * [`persist`] — durable storage behind a fault-injectable [`Vfs`]:
//!   checksummed paged segments, a length-prefixed manifest and a
//!   commit log, with crash-safe tmp→fsync→rename→dir-sync publishes
//!   and defensive recovery (torn log tails truncated, corrupt
//!   referenced segments quarantined). [`TripleStore::open`] /
//!   [`TripleStore::persist_to`] (and the [`ShardedStore`]
//!   equivalents, one subdirectory per shard) wire it into the
//!   services; every durable `bulk_load` is fsynced before it is
//!   acknowledged.

#![forbid(unsafe_code)]

mod cache;
pub mod dict;
pub mod encoded;
pub mod join;
pub mod obs;
pub mod persist;
mod segment;
pub mod service;
pub mod shard;
pub mod wcoj;

pub use cache::CacheStats;
pub use dict::{Dictionary, TermId};
pub use encoded::{CompactionPolicy, EncodedGraph};
pub use join::{open_bgp_stream, BgpStream, PairwiseStepStats, PairwiseStream};
pub use obs::metrics_json;
pub use persist::vfs::{Fault, FaultFs, FaultKind, RealFs, Vfs, VfsError};
pub use persist::{PersistError, PersistOpts, Recovered, StoreDir};
pub use segment::{CapacityError, MAX_TRIPLES};
pub use service::{
    QueryRequest, QueryResponse, StoreError, StoreSnapshot, StoreStats, TripleStore,
};
pub use shard::{ShardedSnapshot, ShardedStats, ShardedStore};
pub use wcoj::{
    bgp_is_cyclic, eval_bgp_with_strategy, hypergraph_is_cyclic, resolve_strategy,
    wco_variable_order, JoinStrategy, WcoLevelStats, WcoStream,
};
