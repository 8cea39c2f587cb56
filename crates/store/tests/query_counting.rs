//! The metrics registry sees every BGP query exactly once: each
//! `query`, `query_limited` or `execute` call on either facade moves
//! `store.queries_total`, `query.total_ns` and the wco/pairwise split by
//! one — cache hits, LIMITed runs and failed calls included — and each
//! budget failure lands in its own outcome counter. The registry is
//! process-global, so this binary holds a single test: nothing else can
//! move the counters while it measures.

use std::time::Duration;
use wdsparql_rdf::{iri, tp, var, CancelToken, ExecError, QueryBudget, Triple, TriplePattern};
use wdsparql_store::{obs, QueryRequest, ShardedStore, TripleStore};

/// The registry figures this test tracks, read at one instant.
#[derive(Debug)]
struct Counts {
    total: u64,
    wco: u64,
    pairwise: u64,
    total_ns: u64,
    deadline: u64,
    cancelled: u64,
}

impl Counts {
    fn now() -> Counts {
        let snap = obs::registry().capture();
        let counter = |name| snap.counter(name).expect("counter in the catalog");
        let total_ns = snap
            .histograms()
            .iter()
            .find(|(name, _)| *name == "query.total_ns")
            .map(|(_, h)| h.count())
            .expect("histogram in the catalog");
        Counts {
            total: counter("store.queries_total"),
            wco: counter("store.queries_wco"),
            pairwise: counter("store.queries_pairwise"),
            total_ns,
            deadline: counter("store.deadline_exceeded_total"),
            cancelled: counter("store.cancelled_total"),
        }
    }
}

#[test]
fn every_query_call_is_counted_once_on_both_facades() {
    let triples: Vec<Triple> = [
        ("a", "p", "b"),
        ("b", "p", "c"),
        ("a", "p", "c"),
        ("c", "p", "a"),
        ("b", "q", "x"),
        ("c", "q", "x"),
    ]
    .map(|(s, p, o)| Triple::from_strs(s, p, o))
    .to_vec();
    let single = TripleStore::from_triples(triples.iter().copied());
    let sharded = ShardedStore::from_triples(2, triples);
    // Under `Auto` the cyclic triangle resolves to the WCOJ and the
    // acyclic chain to the pairwise pipeline.
    let triangle: [TriplePattern; 3] = [
        tp(var("x"), iri("p"), var("y")),
        tp(var("y"), iri("p"), var("z")),
        tp(var("x"), iri("p"), var("z")),
    ];
    let chain: [TriplePattern; 2] = [
        tp(var("x"), iri("p"), var("y")),
        tp(var("y"), iri("q"), var("z")),
    ];
    let unlimited = QueryBudget::unlimited();
    let token = CancelToken::new();
    token.cancel();
    let cancelled = QueryBudget::with_cancel(token);
    let before = Counts::now();

    // Triangle on the single store: 7 calls, all WCO.
    assert!(!single.query(&triangle).is_empty()); // miss
    assert!(!single.query(&triangle).is_empty()); // hit
    assert_eq!(
        single
            .query_limited(&triangle, 1, &unlimited)
            .map(|r| r.len()),
        Ok(1)
    );
    let plain = single
        .execute(&QueryRequest::new(&triangle, &unlimited))
        .expect("unlimited");
    let profiled = QueryRequest {
        profile: true,
        ..QueryRequest::new(&triangle, &unlimited)
    };
    let profiled = single.execute(&profiled).expect("unlimited");
    assert_eq!(plain.rows, profiled.rows);
    assert_eq!(
        single
            .execute(&QueryRequest::new(&triangle, &cancelled))
            .map(|r| r.rows),
        Err(ExecError::Cancelled)
    );
    let dead = QueryBudget::with_deadline(Duration::ZERO);
    assert_eq!(
        single
            .execute(&QueryRequest::new(&triangle, &dead))
            .map(|r| r.rows),
        Err(ExecError::DeadlineExceeded)
    );

    // Chain on the sharded facade: 6 calls, all pairwise.
    assert!(!sharded.query(&chain).is_empty()); // miss
    assert!(!sharded.query(&chain).is_empty()); // hit
    assert_eq!(
        sharded
            .query_limited(&chain, 1, &unlimited)
            .map(|r| r.len()),
        Ok(1)
    );
    let plain = sharded
        .execute(&QueryRequest::new(&chain, &unlimited))
        .expect("unlimited");
    let limited = QueryRequest {
        limit: Some(1),
        profile: true,
        ..QueryRequest::new(&chain, &unlimited)
    };
    let limited = sharded.execute(&limited).expect("unlimited");
    assert_eq!(limited.rows[..], plain.rows[..1]);
    assert_eq!(
        sharded.query_limited(&chain, 1, &cancelled),
        Err(ExecError::Cancelled)
    );

    let after = Counts::now();
    let calls = 7 + 6;
    assert_eq!(after.total - before.total, calls, "{before:?} -> {after:?}");
    assert_eq!(
        after.total_ns - before.total_ns,
        calls,
        "one latency sample per call"
    );
    assert_eq!(
        after.wco - before.wco,
        7,
        "the triangle calls resolve to WCO"
    );
    assert_eq!(
        after.pairwise - before.pairwise,
        6,
        "the chain calls resolve pairwise"
    );
    assert_eq!(
        after.cancelled - before.cancelled,
        2,
        "tripped tokens are counted"
    );
    assert_eq!(
        after.deadline - before.deadline,
        1,
        "a dead deadline is counted"
    );
}
