//! Property tests for the streaming execution core: every request shape
//! `execute` takes — complete, LIMITed, budgeted, profiled — must be
//! indistinguishable from the complete unprofiled answer on random BGPs
//! (cyclic cores, repeated variables, ground and absent-constant
//! patterns), random LIMIT prefixes, every `JoinStrategy` and both
//! store facades — and a budget that is already dead must always
//! surface as a typed error, never a panic or a partial answer. All
//! properties replay under `PROPTEST_SEED=<u64>`.

use proptest::prelude::*;
use std::time::Duration;
use wdsparql_rdf::{
    tp, CancelToken, ExecError, Mapping, QueryBudget, RdfGraph, Triple, TriplePattern,
};
use wdsparql_store::{JoinStrategy, QueryRequest, QueryResponse, ShardedStore, TripleStore};

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..6usize, 0..3usize, 0..6usize), 0..20).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
        }))
    })
}

/// A present constant, a maybe-absent constant, or one of three
/// variables — repeats close cycles (triangles over `a`/`b`/`c`) and
/// exercise repeated-variable constraints.
fn join_term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::{iri, var};
    match choice {
        0..=5 => iri(&format!("{prefix}{choice}")),
        6 => iri("absent-term"),
        7 => var("a"),
        8 => var("b"),
        _ => var("c"),
    }
}

/// A fresh, already-expired budget.
fn dead() -> QueryBudget {
    QueryBudget::with_deadline(Duration::ZERO)
}

/// The rows of a response, or its typed failure.
fn rows(out: Result<QueryResponse, ExecError>) -> Result<Vec<Mapping>, ExecError> {
    out.map(|r| r.rows.as_ref().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed k-prefix equals the materialised result's first k
    /// rows exactly (so sizes are exact and the prefix is a subset),
    /// an unlimited budgeted query reproduces the materialised answer,
    /// a profiled run (counters on) reproduces it row for row under the
    /// same plan, and a dead budget — zero deadline or tripped
    /// cancellation token, fresh per query — fails typed. Across all
    /// three join strategies, every shard layout, both store facades.
    #[test]
    fn streaming_matches_materialized(
        g in arb_graph(),
        raw in proptest::collection::vec((0..10usize, 0..10usize, 0..10usize), 1..5),
        shards in 1..4usize,
        k in 0..12usize,
    ) {
        let pats: Vec<TriplePattern> = raw
            .into_iter()
            .map(|(s, p, o)| {
                tp(join_term_of(s, "sn"), join_term_of(p, "sp"), join_term_of(o, "sn"))
            })
            .collect();
        let single = TripleStore::from_triples(g.iter().copied());
        let sharded = ShardedStore::from_triples(shards, g.iter().copied());
        let unlimited = QueryBudget::unlimited();
        let complete = QueryRequest::new(&pats, &unlimited);
        let profiled = QueryRequest { profile: true, ..complete };
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco, JoinStrategy::Auto] {
            single.set_join_strategy(strategy);
            sharded.set_join_strategy(strategy);

            let plain = single.execute(&complete).expect("unlimited");
            let splain = sharded.execute(&complete).expect("unlimited");
            let full: Vec<Mapping> = plain.rows.as_ref().clone();
            let sharded_full: Vec<Mapping> = splain.rows.as_ref().clone();

            // Profiled: re-setting the knob clears the cache, so the
            // profiled request really runs with its counters on — and
            // must reproduce the unprofiled rows in order, under the
            // identical plan.
            single.set_join_strategy(strategy);
            sharded.set_join_strategy(strategy);
            let prof = single.execute(&profiled).expect("unlimited");
            prop_assert_eq!(prof.rows.as_ref(), &full, "{} single profiled rows", strategy);
            prop_assert_eq!(&prof.plan, &plain.plan, "{} single profiled plan", strategy);
            prop_assert!(prof.profile.is_some_and(|p| p.root.get("cache") == Some("miss")));
            let sprof = sharded.execute(&profiled).expect("unlimited");
            prop_assert_eq!(
                sprof.rows.as_ref(),
                &sharded_full,
                "{} sharded profiled rows",
                strategy
            );
            prop_assert_eq!(&sprof.plan, &splain.plan, "{} sharded profiled plan", strategy);
            prop_assert!(sprof.profile.is_some_and(|p| p.root.get("cache") == Some("miss")));

            // Exact prefix: first-k streamed rows are the materialised
            // result's first k rows, in order.
            let prefix = single.query_limited(&pats, k, &unlimited).expect("unlimited");
            prop_assert_eq!(prefix.len(), k.min(full.len()), "{} single prefix size", strategy);
            prop_assert_eq!(
                &prefix[..],
                &full[..prefix.len()],
                "{} single prefix content on {:?}",
                strategy,
                &pats
            );
            let sprefix = sharded.query_limited(&pats, k, &unlimited).expect("unlimited");
            prop_assert_eq!(
                sprefix.len(),
                k.min(sharded_full.len()),
                "{} sharded prefix size",
                strategy
            );
            prop_assert_eq!(
                &sprefix[..],
                &sharded_full[..sprefix.len()],
                "{} sharded prefix content on {:?}",
                strategy,
                &pats
            );

            // An unlimited budget changes nothing.
            let budgeted = single.execute(&complete).expect("unlimited").rows;
            prop_assert_eq!(budgeted.as_ref(), &full);
            let sbudgeted = sharded.execute(&complete).expect("unlimited").rows;
            prop_assert_eq!(sbudgeted.as_ref(), &sharded_full);

            // A dead budget always fails typed — fresh budget per query
            // (the first checkpoint is the one guaranteed clock check),
            // cached or not, limited or not.
            prop_assert_eq!(
                rows(single.execute(&QueryRequest::new(&pats, &dead()))),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                single.query_limited(&pats, k, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                rows(sharded.execute(&QueryRequest::new(&pats, &dead()))),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                sharded.query_limited(&pats, k, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            let token = CancelToken::new();
            token.cancel();
            prop_assert_eq!(
                rows(single.execute(&QueryRequest::new(
                    &pats,
                    &QueryBudget::unlimited().and_cancel(token.clone())
                ))),
                Err(ExecError::Cancelled)
            );
            prop_assert_eq!(
                sharded.query_limited(&pats, k, &QueryBudget::unlimited().and_cancel(token)),
                Err(ExecError::Cancelled)
            );
        }
    }
}
