//! store_latency — the first latency-distribution numbers in the repo:
//! per-query-shape p50/p90/p99 under a concurrent mixed read/write
//! workload, against the sharded triple store. A background writer
//! keeps appending delta segments (bumping epochs, so the result cache
//! cannot serve every probe) and a background reader keeps scatter-
//! gather scans in flight while the foreground measures three query
//! shapes: a routed point lookup, a subject star, and the cyclic
//! triangle that `Auto` sends to the WCOJ. Percentile entries merge
//! into the workspace-root `BENCH_store.json` next to the medians of
//! the other store targets (the vendored criterion emits
//! `p50_ns`/`p90_ns`/`p99_ns` alongside `median_ns`).
//!
//! A second group measures the streaming core's LIMIT pushdown on the
//! quiesced store: time-to-first-solution (LIMIT 1) and LIMIT-10
//! against full enumeration, for the triangle and the 4-clique under
//! the pairwise pipeline — the shapes where stopping after k pulls
//! skips the bulk of the probe work.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, Iri, QueryBudget, Triple, TriplePattern};
use wdsparql_store::{QueryRequest, ShardedStore};
use wdsparql_workloads::triple_stream;

const NODES: usize = 4_000;
const DRAWS: usize = 30_000;
const PREDICATES: usize = 8;
/// Closed `p0`-triangles seeded on top of the stream, so the cyclic
/// query has guaranteed answers.
const TRIANGLES: usize = 64;
/// Closed `p0`-4-cliques seeded likewise, so the 4-clique streaming
/// benches have solutions to find early.
const CLIQUES: usize = 16;
const SHARDS: usize = 4;

/// `cargo test` runs bench targets with `--test` (each body once); a
/// token workload keeps that pass fast while still exercising every
/// bench path end to end.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn seed_triples() -> Vec<Triple> {
    let (nodes, draws, triangles, cliques) = if test_mode() {
        (200, 1_000, 8, 4)
    } else {
        (NODES, DRAWS, TRIANGLES, CLIQUES)
    };
    triple_stream(nodes, draws, PREDICATES, 42)
        .chain((0..triangles).flat_map(|i| {
            let (a, b, c) = (format!("t{i}a"), format!("t{i}b"), format!("t{i}c"));
            [
                Triple::from_strs(&a, "p0", &b),
                Triple::from_strs(&b, "p0", &c),
                Triple::from_strs(&a, "p0", &c),
            ]
        }))
        .chain((0..cliques).flat_map(|i| {
            let v = [
                format!("q{i}a"),
                format!("q{i}b"),
                format!("q{i}c"),
                format!("q{i}d"),
            ];
            [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
                .map(|(a, b)| Triple::from_strs(&v[a], "p0", &v[b]))
        }))
        .collect()
}

/// The store under concurrent load, built once: seeded, compacted, and
/// with the baseline JSON path pinned to the workspace root (shared
/// with the other store targets).
fn workload() -> &'static Arc<ShardedStore> {
    static WORKLOAD: OnceLock<Arc<ShardedStore>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        criterion::set_bench_json_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_store.json"
        ));
        Arc::new(ShardedStore::from_triples(SHARDS, seed_triples()))
    })
}

/// Background churn: a writer appending small fresh batches (each one
/// bumps a shard epoch and invalidates facade cache entries that read
/// it) and a reader keeping fan-out scans in flight. Stops on the flag;
/// the guard joins the threads.
struct Churn {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Churn {
    fn start(store: &Arc<ShardedStore>) -> Churn {
        let stop = Arc::new(AtomicBool::new(false));
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut handles = Vec::new();
        {
            let (store, stop) = (Arc::clone(store), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                // relaxed-ok: stop flag and id counter need no ordering
                // with the store's own synchronization
                while !stop.load(Ordering::Relaxed) {
                    let base = NEXT.fetch_add(64, Ordering::Relaxed);
                    store.bulk_load((base..base + 64).map(|i| {
                        Triple::from_strs(&format!("w{i}"), "p7", &format!("w{}", i / 2))
                    }));
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }));
        }
        {
            let (store, stop) = (Arc::clone(store), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                let pat = tp(var("x"), Iri::new("p1"), var("y"));
                // relaxed-ok: stop flag needs no ordering with the reads
                while !stop.load(Ordering::Relaxed) {
                    black_box(store.snapshot().shard(0).match_pattern(&pat).len());
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }));
        }
        Churn { stop, handles }
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        // relaxed-ok: thread join below is the synchronization point
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn bench_latency_under_churn(c: &mut Criterion) {
    let store = workload();
    // Correctness before timing: every shape must actually answer.
    let point = tp(Iri::new("t0a"), Iri::new("p0"), var("y"));
    let star = [
        tp(Iri::new("t0a"), Iri::new("p0"), var("y")),
        tp(Iri::new("t0a"), var("w"), var("z")),
    ];
    let triangle = [
        tp(var("x"), Iri::new("p0"), var("y")),
        tp(var("y"), Iri::new("p0"), var("z")),
        tp(var("x"), Iri::new("p0"), var("z")),
    ];
    assert!(!store.query(&[point]).is_empty(), "point probe is empty");
    assert!(!store.query(&star).is_empty(), "star probe is empty");
    let planned = store
        .execute(&QueryRequest::new(&triangle, &QueryBudget::unlimited()))
        .expect("an unlimited budget never fails a checkpoint");
    assert!(!planned.rows.is_empty(), "no triangles in workload");
    assert_eq!(
        planned.strategy,
        wdsparql_store::JoinStrategy::Wco,
        "auto must route the triangle to the WCOJ"
    );

    let churn = Churn::start(store);
    let mut group = c.benchmark_group("store_latency");
    group.sample_size(30);
    // Rotating probe subjects: epoch churn already defeats most cache
    // hits, rotation defeats the rest — the numbers are evaluation
    // latency, not cache-lookup latency.
    let probe = AtomicU64::new(0);
    let triangles = if test_mode() { 8 } else { TRIANGLES } as u64;
    group.bench_function("point_routed", |b| {
        b.iter(|| {
            // relaxed-ok: bench-local rotation counter
            let i = probe.fetch_add(1, Ordering::Relaxed) % triangles;
            let pat = tp(Iri::new(&format!("t{i}a")), Iri::new("p0"), var("y"));
            black_box(store.query(&[pat]).len())
        })
    });
    group.bench_function("star_routed", |b| {
        b.iter(|| {
            // relaxed-ok: bench-local rotation counter
            let i = probe.fetch_add(1, Ordering::Relaxed) % triangles;
            let s = format!("t{i}b");
            let pats = [
                tp(Iri::new(&s), Iri::new("p0"), var("y")),
                tp(Iri::new(&s), var("w"), var("z")),
            ];
            black_box(store.query(&pats).len())
        })
    });
    group.bench_function("triangle_wco_fanout", |b| {
        b.iter(|| black_box(store.query(&triangle).len()))
    });
    group.finish();
    drop(churn);
}

/// LIMIT pushdown on the quiesced store: time-to-first-solution and
/// LIMIT-10 against full enumeration for the triangle and the
/// 4-clique, all on the uncached `query_limited` streaming path under
/// the pairwise pipeline — the strategy where the old materialise-all
/// evaluator paid the full probe cost before the first row.
fn bench_streaming_limits(c: &mut Criterion) {
    let store = workload();
    store.set_join_strategy(wdsparql_store::JoinStrategy::Pairwise);
    let p0 = Iri::new("p0");
    let triangle = [
        tp(var("x"), p0, var("y")),
        tp(var("y"), p0, var("z")),
        tp(var("x"), p0, var("z")),
    ];
    let clique4 = [
        tp(var("x"), p0, var("y")),
        tp(var("y"), p0, var("z")),
        tp(var("x"), p0, var("z")),
        tp(var("x"), p0, var("w")),
        tp(var("y"), p0, var("w")),
        tp(var("z"), p0, var("w")),
    ];
    // Correctness before timing: both shapes must stream a first row.
    let limited = |pats: &[TriplePattern], k: usize| {
        store
            .query_limited(pats, k, &QueryBudget::unlimited())
            .expect("an unlimited budget never fails a checkpoint")
    };
    assert!(!limited(&triangle, 1).is_empty(), "no triangle to stream");
    assert!(!limited(&clique4, 1).is_empty(), "no 4-clique to stream");

    let mut group = c.benchmark_group("store_latency");
    group.sample_size(30);
    for (name, pats) in [("triangle", &triangle[..]), ("clique4", &clique4[..])] {
        group.bench_function(format!("{name}_ttfs"), |b| {
            b.iter(|| black_box(limited(black_box(pats), 1).len()))
        });
        group.bench_function(format!("{name}_limit10"), |b| {
            b.iter(|| black_box(limited(black_box(pats), 10).len()))
        });
        group.bench_function(format!("{name}_full_stream"), |b| {
            b.iter(|| black_box(limited(black_box(pats), usize::MAX).len()))
        });
    }
    group.finish();
    store.set_join_strategy(wdsparql_store::JoinStrategy::default());
}

criterion_group!(benches, bench_latency_under_churn, bench_streaming_limits);
criterion_main!(benches);
