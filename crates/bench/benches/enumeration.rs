//! E14 — enumeration and counting: output-sensitive behaviour on layered
//! chain queries (solution count grows with fanout^depth) and counting on
//! realistic OPT data and on a cyclic (triangle) core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdsparql_core::{count_by_domain, enumerate_with_stats, Query};
use wdsparql_rdf::{RdfGraph, Triple};
use wdsparql_tree::Wdpf;
use wdsparql_workloads::{chain_tree, social_network};

fn layered_graph(depth: usize, fanout: usize) -> RdfGraph {
    let mut g = RdfGraph::new();
    for i in 0..depth {
        for j in 0..fanout {
            for j2 in 0..fanout {
                g.insert(Triple::from_strs(
                    &format!("l{i}_{j}"),
                    &format!("p{i}"),
                    &format!("l{}_{j2}", i + 1),
                ));
            }
        }
    }
    g
}

fn bench_chain_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_chain_layered");
    group.sample_size(10);
    for depth in [2usize, 3, 4] {
        let f = Wdpf::new(vec![chain_tree(depth)]);
        let g = layered_graph(depth, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(depth),
            &(&f, &g),
            |b, (f, g)| b.iter(|| enumerate_with_stats(f, *g).0.len()),
        );
    }
    group.finish();
}

fn bench_counting_social(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_by_domain_social");
    group.sample_size(10);
    let q =
        Query::parse("{ ?x knows ?y OPTIONAL { ?y email ?e } OPTIONAL { ?y city ?c } }").unwrap();
    // A cyclic core: `Auto` counts it through the leapfrog join.
    let triangle =
        Query::parse("((?x, knows, ?y) AND (?y, knows, ?z)) AND (?z, knows, ?x)").unwrap();
    for n in [30usize, 60, 120] {
        let g = social_network(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| count_by_domain(q.forest(), g).len())
        });
        group.bench_with_input(BenchmarkId::new("triangle", n), &g, |b, g| {
            b.iter(|| count_by_domain(triangle.forest(), g).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_enumeration, bench_counting_social);
criterion_main!(benches);
