//! The store stack's process-wide metrics: one [`wdsparql_obs::Registry`]
//! shared by every [`TripleStore`]/[`ShardedStore`] in the process, fed
//! by the event hooks below.
//!
//! The hooks are the **only** coupling between the store internals and
//! the registry. With the default `obs` feature they are one atomic RMW
//! each; built with `--no-default-features` every hook compiles to an
//! empty inline function, which is how the documented hot-path overhead
//! bound is measured (see `crates/obs/README.md`). Per-query execution
//! profiles ([`QueryProfile`](wdsparql_obs::QueryProfile) span trees)
//! are *not* routed through here — they are explicit opt-in values built
//! when a [`QueryRequest`](crate::QueryRequest) asks for one and carried
//! on its [`QueryResponse`](crate::QueryResponse).
//!
//! [`TripleStore`]: crate::TripleStore
//! [`ShardedStore`]: crate::ShardedStore

use std::sync::OnceLock;
use wdsparql_obs::Registry;

#[cfg(feature = "obs")]
use std::time::Duration;
#[cfg(feature = "obs")]
use wdsparql_obs::SHARD_SLOTS;

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Exists (empty) even without the `obs`
/// feature, so `metrics_json` keeps a stable signature either way.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// The `schema: 4` JSON snapshot of the registry — what the CLI's
/// `--metrics-json PATH` writes and CI validates against
/// `crates/obs/metrics-schema.json`.
pub fn metrics_json() -> String {
    registry().to_json()
}

/// Saturates a `Duration` into histogram nanoseconds.
#[cfg(feature = "obs")]
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(feature = "obs")]
pub(crate) fn on_query(wco: bool, total: Duration, plan: Duration) {
    let r = registry();
    r.queries_total.inc();
    if wco {
        r.queries_wco.inc();
    } else {
        r.queries_pairwise.inc();
    }
    r.query_ns.record(ns(total));
    r.plan_ns.record(ns(plan));
}

#[cfg(feature = "obs")]
pub(crate) fn on_epoch_bump() {
    registry().epoch_bumps.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_bulk_load(elapsed: Duration) {
    registry().bulk_load_ns.record(ns(elapsed));
}

#[cfg(feature = "obs")]
pub(crate) fn on_compaction(elapsed: Duration) {
    let r = registry();
    r.compactions.inc();
    r.compact_ns.record(ns(elapsed));
}

#[cfg(feature = "obs")]
pub(crate) fn on_segment_append() {
    registry().segments_created.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_cache_hit() {
    registry().cache_hits.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_cache_miss() {
    registry().cache_misses.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_cache_eviction() {
    registry().cache_evictions.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_cache_stampede_wait() {
    registry().cache_stampede_waits.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_routed_read() {
    registry().routed_reads.inc();
}

#[cfg(feature = "obs")]
pub(crate) fn on_fanout(elapsed: Duration) {
    let r = registry();
    r.fanout_reads.inc();
    r.fanout_ns.record(ns(elapsed));
}

/// Rows ingested by shard `shard` — the load-balance signal. Shards
/// past the fixed slot count fold into the last slot.
#[cfg(feature = "obs")]
pub(crate) fn on_shard_rows(shard: usize, rows: u64) {
    registry().shard_rows[shard.min(SHARD_SLOTS - 1)].add(rows);
}

/// One shard's share of a read (routed or fan-out): rows served and
/// time spent, by slot — the read-side load-balance signal.
#[cfg(feature = "obs")]
pub(crate) fn on_shard_read(shard: usize, rows: u64, elapsed: Duration) {
    let slot = shard.min(SHARD_SLOTS - 1);
    let r = registry();
    r.shard_read_rows[slot].add(rows);
    r.shard_read_ns[slot].record(ns(elapsed));
}

/// A budgeted query failed its deadline checkpoint.
#[cfg(feature = "obs")]
pub(crate) fn on_deadline_exceeded() {
    registry().deadline_exceeded.inc();
}

/// A budgeted query was cancelled through its token.
#[cfg(feature = "obs")]
pub(crate) fn on_cancelled() {
    registry().cancelled.inc();
}

/// The persistence layer issued an `fsync` or `dir_sync`.
#[cfg(feature = "obs")]
pub(crate) fn on_fsync() {
    registry().fsyncs.inc();
}

/// The persistence layer retried a transient I/O failure.
#[cfg(feature = "obs")]
pub(crate) fn on_commit_retry() {
    registry().commit_retries.inc();
}

/// Recovery quarantined `n` segments that failed verification.
#[cfg(feature = "obs")]
pub(crate) fn on_quarantine(n: u64) {
    registry().segments_quarantined.add(n);
}

/// A durable store finished opening (verify + rebuild + replay).
#[cfg(feature = "obs")]
pub(crate) fn on_recovery(elapsed: Duration) {
    registry().recovery_ns.record(ns(elapsed));
}

/// A query completed, returning `rows` solutions.
#[cfg(feature = "obs")]
pub(crate) fn on_rows_streamed(rows: u64) {
    registry().rows_streamed.record(rows);
}

/// Refreshes the `store.*` gauges from a stats snapshot (called by the
/// services' `stats()`, so the registry mirrors the latest observation).
#[cfg(feature = "obs")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn publish_store_gauges(
    triples: u64,
    terms: u64,
    base_rows: u64,
    delta_rows: u64,
    segments: u64,
    epoch: u64,
    shard_count: u64,
) {
    let r = registry();
    r.triples.set(triples);
    r.terms.set(terms);
    r.base_rows.set(base_rows);
    r.delta_rows.set(delta_rows);
    r.segments.set(segments);
    r.epoch.set(epoch);
    r.shard_count.set(shard_count);
}

// ── no-op shims (feature `obs` off) ────────────────────────────────────
// Same names, same call sites, zero code: the compiler inlines these
// away entirely, which is what the instrumentation-overhead measurement
// compares against.

#[cfg(not(feature = "obs"))]
pub(crate) fn on_query(_wco: bool, _total: std::time::Duration, _plan: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_epoch_bump() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_bulk_load(_elapsed: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_compaction(_elapsed: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_segment_append() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_cache_hit() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_cache_miss() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_cache_eviction() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_cache_stampede_wait() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_routed_read() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_fanout(_elapsed: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_shard_rows(_shard: usize, _rows: u64) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_shard_read(_shard: usize, _rows: u64, _elapsed: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_deadline_exceeded() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_cancelled() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_fsync() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_commit_retry() {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_quarantine(_n: u64) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_recovery(_elapsed: std::time::Duration) {}
#[cfg(not(feature = "obs"))]
pub(crate) fn on_rows_streamed(_rows: u64) {}
#[cfg(not(feature = "obs"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn publish_store_gauges(
    _triples: u64,
    _terms: u64,
    _base_rows: u64,
    _delta_rows: u64,
    _segments: u64,
    _epoch: u64,
    _shard_count: u64,
) {
}

#[cfg(test)]
mod tests {
    #[test]
    fn metrics_json_is_schema_valid_from_a_cold_start() {
        let text = super::metrics_json();
        assert!(text.contains("\"schema\": 4"));
        assert!(text.contains("\"cache.hits\""));
        assert!(text.contains("\"query.total_ns\""));
        assert!(text.contains("\"store.deadline_exceeded_total\""));
        assert!(text.contains("\"store.cancelled_total\""));
        assert!(text.contains("\"query.rows_streamed\""));
        assert!(text.contains("\"shard_read_ns\""));
        assert!(text.contains("\"store.fsync_total\""));
        assert!(text.contains("\"store.commit_retries_total\""));
        assert!(text.contains("\"store.segments_quarantined_total\""));
        assert!(text.contains("\"store.recovery_ns\""));
    }
}
