//! Property tests for the store: dictionary round-trips, full
//! access-pattern equivalence between [`EncodedGraph`]'s sorted
//! permutation ranges and [`RdfGraph`]'s hash indexes — with delta
//! segments pending, absent, and interleaved with compaction — and
//! service-level queries racing compaction. All properties replay under
//! `PROPTEST_SEED=<u64>` (reported on failure by the vendored
//! proptest).

use proptest::prelude::*;
use wdsparql_rdf::{
    tp, Iri, Mapping, QueryBudget, RdfGraph, Triple, TripleIndex, TriplePattern, Variable,
};
use wdsparql_store::{
    eval_bgp_with_strategy, CompactionPolicy, Dictionary, EncodedGraph, JoinStrategy, QueryRequest,
    ShardedStore, TripleStore,
};

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..6usize, 0..3usize, 0..6usize), 0..20).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
        }))
    })
}

/// One of the nine interesting term choices per position: a present
/// constant, a maybe-absent constant, or one of two variables (repeats
/// exercise the repeated-variable constraints).
fn term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::{iri, var};
    match choice {
        0..=5 => iri(&format!("{prefix}{choice}")),
        6 => iri("absent-term"),
        7 => var("a"),
        _ => var("b"),
    }
}

/// As [`term_of`] with a third variable, so multi-pattern BGPs can close
/// cycles (triangles over `a`/`b`/`c`) as well as chain and star.
fn join_term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::var;
    match choice {
        0..=6 => term_of(choice, prefix),
        7 => var("a"),
        8 => var("b"),
        _ => var("c"),
    }
}

/// The reference BGP semantics: fold nested-loop joins of the
/// per-pattern solution sets over the hash-indexed graph, dedup.
fn reference_bgp(g: &RdfGraph, pats: &[TriplePattern]) -> Vec<Mapping> {
    let mut acc = vec![Mapping::new()];
    for pat in pats {
        let sols = g.solutions(pat);
        let mut next = Vec::new();
        for a in &acc {
            for b in &sols {
                if let Some(u) = a.union(b) {
                    next.push(u);
                }
            }
        }
        acc = next;
    }
    acc.sort();
    acc.dedup();
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dictionary encode/decode/lookup round-trips, with dense ids.
    #[test]
    fn dictionary_round_trips(names in proptest::collection::vec("[a-z]{1,6}", 1..20)) {
        let mut d = Dictionary::new();
        let ids: Vec<u32> = names.iter().map(|n| d.encode(Iri::new(n))).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(d.decode(id), Iri::new(name));
            prop_assert_eq!(d.lookup(Iri::new(name)), Some(id));
            prop_assert_eq!(d.encode(Iri::new(name)), id, "re-encode must be stable");
        }
        // Ids are dense: 0..distinct-names.
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        prop_assert_eq!(d.len(), distinct.len());
        let max = ids.iter().copied().max().unwrap() as usize;
        prop_assert_eq!(max + 1, d.len());
    }

    /// EncodedGraph agrees with RdfGraph on every access pattern,
    /// including repeated variables and absent constants.
    #[test]
    fn encoded_matches_rdf_graph(g in arb_graph(), s in 0..9usize, p in 0..9usize, o in 0..9usize) {
        let enc = EncodedGraph::from_rdf(&g);
        prop_assert_eq!(enc.len(), g.len());
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        let mut got = enc.match_pattern(&pat);
        let mut want = g.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "pattern {}", pat);
        prop_assert!(enc.candidate_count(&pat) >= got.len());
        // Solutions agree as sets.
        let mut gs = enc.solutions(&pat);
        let mut ws = g.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        // The TripleIndex views agree on the global surface too.
        let ei: &dyn TripleIndex = &enc;
        let gi: &dyn TripleIndex = &g;
        prop_assert_eq!(ei.dom().collect::<Vec<_>>(), gi.dom().collect::<Vec<_>>());
        for t in gi.triples() {
            prop_assert!(ei.contains(&t));
        }
    }

    /// Incremental bulk loads converge to the one-shot build, and the
    /// service's BGP join agrees with the reference pairwise join.
    #[test]
    fn service_join_agrees_with_reference(g in arb_graph(), chunk in 1..7usize) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let store = TripleStore::new();
        for batch in triples.chunks(chunk) {
            store.bulk_load(batch.iter().copied());
        }
        prop_assert_eq!(store.len(), g.len());
        let pats = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut got: Vec<_> = store.query(&pats).iter().cloned().collect();
        got.sort();
        // Reference: nested-loop join over RdfGraph solutions.
        let mut want = Vec::new();
        for a in g.solutions(&pats[0]) {
            for b in g.solutions(&pats[1]) {
                if let Some(u) = a.union(&b) {
                    want.push(u);
                }
            }
        }
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want);
        let _ = store.cache_stats();
    }

    /// Interleaved `insert_batch`/`compact` sequences agree with the
    /// hash indexes on every access pattern, whether the probed rows
    /// live in the base, in pending delta segments, or both. The
    /// `compact_mask` drives when compaction strikes, so the property
    /// covers deltas-present and deltas-absent states of the same data.
    #[test]
    fn interleaved_batches_and_compactions_match_rdf_graph(
        g in arb_graph(),
        chunk in 1..6usize,
        compact_mask in 0u32..64,
        s in 0..9usize,
        p in 0..9usize,
        o in 0..9usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let mut enc = EncodedGraph::with_compaction_policy(CompactionPolicy::Manual);
        for (i, batch) in triples.chunks(chunk).enumerate() {
            enc.insert_batch(batch.iter().copied()).expect("tiny batch");
            if compact_mask & (1 << (i % 6)) != 0 {
                enc.compact();
            }
        }
        prop_assert_eq!(enc.len(), g.len());
        prop_assert_eq!(enc.base_len() + enc.delta_len(), enc.len());
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        let mut got = enc.match_pattern(&pat);
        let mut want = g.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "pattern {} (segments: {})", pat, enc.segment_count());
        prop_assert!(enc.candidate_count(&pat) >= got.len());
        let mut gs = enc.solutions(&pat);
        let mut ws = g.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        // Compacting afterwards changes the layout only.
        let before_iter: Vec<Triple> = enc.iter().collect();
        enc.compact();
        prop_assert_eq!(enc.segment_count(), 0);
        let mut got_after = enc.match_pattern(&pat);
        got_after.sort();
        prop_assert_eq!(got_after, want);
        prop_assert_eq!(enc.iter().collect::<Vec<Triple>>(), before_iter);
        // The TripleIndex dom view survives the whole interleaving.
        let ei: &dyn TripleIndex = &enc;
        let gi: &dyn TripleIndex = &g;
        prop_assert_eq!(ei.dom().collect::<Vec<_>>(), gi.dom().collect::<Vec<_>>());
    }

    /// Queries racing a compaction see exactly the same answers: the
    /// service's snapshot isolation makes the fold invisible. The inputs
    /// (graph, chunking, query epoch) replay under `PROPTEST_SEED`; the
    /// thread interleaving is free, which is the point — every
    /// interleaving must yield the reference answer.
    #[test]
    fn service_queries_during_compaction_are_snapshot_consistent(
        g in arb_graph(),
        chunk in 1..6usize,
        rounds in 1..4usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let store = std::sync::Arc::new(TripleStore::new());
        for batch in triples.chunks(chunk) {
            store.bulk_load(batch.iter().copied());
        }
        let pats = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut want: Vec<_> = store.query(&pats).iter().cloned().collect();
        want.sort();
        let compactor = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    store.compact();
                }
            })
        };
        let epoch = store.epoch();
        for _ in 0..rounds {
            let out = store
                .execute(&QueryRequest::new(&pats, &QueryBudget::unlimited()))
                .expect("unlimited");
            prop_assert_eq!(out.read, vec![(0, epoch)], "compaction must not bump the epoch");
            let mut got: Vec<_> = out.rows.iter().cloned().collect();
            got.sort();
            prop_assert_eq!(&got, &want, "query racing compaction diverged");
        }
        compactor.join().expect("compactor thread");
        prop_assert_eq!(store.stats().delta_rows, 0);
        let mut after: Vec<_> = store.query(&pats).iter().cloned().collect();
        after.sort();
        prop_assert_eq!(after, want);
    }

    /// A hash-sharded store is indistinguishable from a single
    /// `TripleStore` on every access pattern — chunked loads interleaved
    /// with *per-shard* compactions (driven by `compact_mask`, so some
    /// shards answer from delta segments while others are freshly
    /// folded), the full `TripleIndex` surface through the scatter-gather
    /// snapshot, and the facade's cached BGP path. Replays under
    /// `PROPTEST_SEED`.
    #[test]
    fn sharded_store_matches_single_store(
        g in arb_graph(),
        shards in 1..5usize,
        chunk in 1..6usize,
        compact_mask in 0u32..64,
        s in 0..9usize,
        p in 0..9usize,
        o in 0..9usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let single = TripleStore::new();
        let sharded = ShardedStore::new(shards);
        for (i, batch) in triples.chunks(chunk).enumerate() {
            single.bulk_load(batch.iter().copied());
            sharded.bulk_load(batch.iter().copied());
            if compact_mask & (1 << (i % 6)) != 0 {
                // Fold one shard only: the layouts diverge across
                // shards, the contents must not.
                sharded.shards()[i % shards].compact();
            }
        }
        prop_assert_eq!(sharded.len(), single.len());
        prop_assert_eq!(sharded.epochs().len(), shards);

        let snap = sharded.snapshot();
        let sref = single.read_snapshot();
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        // The TripleIndex surface agrees: matches, bounds, solutions,
        // membership, domain.
        let mut got = TripleIndex::match_pattern(&snap, &pat);
        let mut want = sref.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "{} shards, pattern {}", shards, pat);
        prop_assert!(TripleIndex::candidate_count(&snap, &pat) >= got.len());
        let mut gs = TripleIndex::solutions(&snap, &pat);
        let mut ws = sref.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        for t in &triples {
            prop_assert!(TripleIndex::contains(&snap, t));
        }
        prop_assert_eq!(
            TripleIndex::dom(&snap).collect::<Vec<_>>(),
            TripleIndex::dom(sref.graph()).collect::<Vec<_>>()
        );

        // The facade's cached, planned BGP path agrees with the single
        // service — for the fan-out join and for a routed point query.
        let join = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut got: Vec<_> = sharded.query(&join).iter().cloned().collect();
        let mut want: Vec<_> = single.query(&join).iter().cloned().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "facade join diverged at {} shards", shards);
        let routed = [tp(wdsparql_rdf::iri("sn0"), wdsparql_rdf::var("a"), wdsparql_rdf::var("b"))];
        let mut got: Vec<_> = sharded.query(&routed).iter().cloned().collect();
        let mut want: Vec<_> = single.query(&routed).iter().cloned().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "routed query diverged at {} shards", shards);

        // A full compact is invisible to queries, like the single store's.
        sharded.compact();
        let snap = sharded.snapshot();
        let mut after = TripleIndex::match_pattern(&snap, &pat);
        after.sort();
        let mut want = sref.match_pattern(&pat);
        want.sort();
        prop_assert_eq!(after, want);
        for st in sharded.stats().shards {
            prop_assert_eq!((st.delta_rows, st.segments), (0, 0));
        }
    }

    /// The worst-case-optimal join ≡ the pairwise pipeline ≡ the
    /// reference nested-loop semantics, on random BGPs — including
    /// cyclic cores over three shared variables, repeated variables,
    /// ground and absent-constant patterns — over both the single
    /// `TripleStore` snapshot (zero-copy permutation tries) and every
    /// sharded layout (materialised scatter-gather tries), plus the
    /// facade under every `JoinStrategy`. Replays under `PROPTEST_SEED`.
    #[test]
    fn wcoj_matches_pairwise(
        g in arb_graph(),
        raw in proptest::collection::vec((0..10usize, 0..10usize, 0..10usize), 1..5),
        shards in 1..4usize,
    ) {
        let pats: Vec<TriplePattern> = raw
            .into_iter()
            .map(|(s, p, o)| tp(join_term_of(s, "sn"), join_term_of(p, "sp"), join_term_of(o, "sn")))
            .collect();
        let want = reference_bgp(&g, &pats);
        let store = TripleStore::from_triples(g.iter().copied());
        let snap = store.read_snapshot();
        let mut wco = eval_bgp_with_strategy(snap.graph(), &pats, JoinStrategy::Wco);
        wco.sort();
        prop_assert_eq!(&wco, &want, "wco vs reference on {:?}", &pats);
        let mut pairwise = eval_bgp_with_strategy(snap.graph(), &pats, JoinStrategy::Pairwise);
        pairwise.sort();
        prop_assert_eq!(&pairwise, &want, "pairwise vs reference on {:?}", &pats);
        // The sharded scatter-gather snapshot joins through materialised
        // tries; the facade must agree under every knob setting.
        let sharded = ShardedStore::from_triples(shards, g.iter().copied());
        let ssnap = sharded.snapshot();
        let mut swco = eval_bgp_with_strategy(&ssnap, &pats, JoinStrategy::Wco);
        swco.sort();
        prop_assert_eq!(&swco, &want, "sharded wco vs reference on {:?}", &pats);
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco, JoinStrategy::Auto] {
            sharded.set_join_strategy(strategy);
            let mut got: Vec<Mapping> = sharded.query(&pats).iter().cloned().collect();
            got.sort();
            prop_assert_eq!(&got, &want, "facade {} on {:?}", strategy, &pats);
        }
    }

    /// merge_join_ids equals the set intersection of the per-pattern
    /// candidate bindings.
    #[test]
    fn merge_join_is_set_intersection(g in arb_graph(), p1 in 0..3usize, p2 in 0..3usize) {
        let enc = EncodedGraph::from_rdf(&g);
        let v = Variable::new("j");
        let a = tp(wdsparql_rdf::var("j"), wdsparql_rdf::iri(&format!("sp{p1}")), wdsparql_rdf::var("o1"));
        let b = tp(wdsparql_rdf::var("j"), wdsparql_rdf::iri(&format!("sp{p2}")), wdsparql_rdf::var("o2"));
        let joined: std::collections::BTreeSet<Iri> =
            enc.merge_join_values(&a, &b, v).unwrap().into_iter().collect();
        let sa: std::collections::BTreeSet<Iri> =
            g.solutions(&a).into_iter().filter_map(|m| m.get(v)).collect();
        let sb: std::collections::BTreeSet<Iri> =
            g.solutions(&b).into_iter().filter_map(|m| m.get(v)).collect();
        let want: std::collections::BTreeSet<Iri> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(joined, want);
    }
}

// ---------------------------------------------------------------------
// Durable-store equivalence
// ---------------------------------------------------------------------

fn prop_tempdir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wdsparql-durable-prop-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    // Each case touches a real temp directory (commits + reopen), so
    // the case budget is smaller than the in-memory properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A durable store fed a random script of batched loads and
    /// compactions, then **reopened from disk**, is indistinguishable
    /// from a volatile store fed the same script: same epoch, same
    /// triple set, and the same answers over the full [`TripleIndex`]
    /// surface (len / contains / dom / match_pattern / solutions for
    /// every constant-and-variable pattern shape over the universe).
    /// Replays under `PROPTEST_SEED=<u64>`.
    #[test]
    fn durable_store_matches_volatile(
        script in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0..6usize, 0..3usize, 0..6usize), 0..6),
            ),
            1..10,
        )
    ) {
        let dir = prop_tempdir();
        let opts = wdsparql_store::PersistOpts {
            page_size: 64,
            ..Default::default()
        };
        let durable = TripleStore::open_with_opts(&dir, opts).expect("open durable");
        let volatile = TripleStore::new();
        for (compact_after, coded) in &script {
            let batch: Vec<Triple> = coded
                .iter()
                .map(|&(s, p, o)| {
                    Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
                })
                .collect();
            let a = durable.try_bulk_load(batch.iter().copied()).expect("durable load");
            let b = volatile.try_bulk_load(batch.iter().copied()).expect("volatile load");
            prop_assert_eq!(a, b, "added counts diverge");
            prop_assert_eq!(durable.epoch(), volatile.epoch(), "epochs diverge mid-script");
            if *compact_after {
                prop_assert_eq!(durable.compact(), volatile.compact());
            }
        }
        drop(durable);

        let reopened = TripleStore::open(&dir).expect("reopen from disk");
        prop_assert_eq!(reopened.epoch(), volatile.epoch(), "epoch lost across restart");
        let got = reopened.read_snapshot();
        let want = volatile.read_snapshot();
        let (got, want) = (got.graph(), want.graph());
        prop_assert_eq!(got.len(), want.len());
        let gs: std::collections::BTreeSet<Triple> = got.triples().collect();
        let ws: std::collections::BTreeSet<Triple> = want.triples().collect();
        prop_assert_eq!(&gs, &ws, "triple sets diverge across restart");
        let gd: std::collections::BTreeSet<Iri> = got.dom().collect();
        let wd: std::collections::BTreeSet<Iri> = want.dom().collect();
        prop_assert_eq!(gd, wd, "domains diverge across restart");
        for t in &ws {
            prop_assert!(got.contains(t));
        }
        // Every single-pattern shape over the universe answers alike.
        for s in 0..9usize {
            for p in 0..4usize {
                for o in 0..9usize {
                    let pat = tp(
                        term_of(s, "sn"),
                        if p < 3 { wdsparql_rdf::iri(&format!("sp{p}")) } else { wdsparql_rdf::var("p") },
                        join_term_of(o, "sn"),
                    );
                    let mut gm = got.match_pattern(&pat);
                    let mut wm = want.match_pattern(&pat);
                    gm.sort();
                    wm.sort();
                    prop_assert_eq!(gm, wm, "match_pattern diverges on {:?}", &pat);
                    prop_assert_eq!(
                        got.candidate_count(&pat) == 0,
                        want.candidate_count(&pat) == 0,
                        "candidate emptiness diverges on {:?}", &pat
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded equivalent: persist, reopen, and the scatter-gather
    /// snapshot serves the same triples.
    #[test]
    fn durable_sharded_store_matches_volatile(
        coded in proptest::collection::vec((0..12usize, 0..3usize, 0..12usize), 0..30),
        shards in 1..4usize,
    ) {
        let dir = prop_tempdir();
        let triples: Vec<Triple> = coded
            .iter()
            .map(|&(s, p, o)| {
                Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
            })
            .collect();
        let store = ShardedStore::new(shards);
        store.bulk_load(triples.iter().copied());
        store.persist_to(&dir).expect("attach");
        let want: std::collections::BTreeSet<Triple> = store.snapshot().triples().collect();
        drop(store);
        let reopened = ShardedStore::open(&dir).expect("reopen sharded");
        prop_assert_eq!(reopened.shard_count(), shards);
        let reopened_set: std::collections::BTreeSet<Triple> = reopened.snapshot().triples().collect();
        prop_assert_eq!(reopened_set, want);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
