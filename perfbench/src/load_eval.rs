//! `load_eval` — the user path: N-Triples text and query text in,
//! answers out.
//!
//! Set-up mirrors `wdsparql store`: `parse_ntriples`, then
//! `TripleStore::try_bulk_load` in 4096-triple batches, then `compact`.
//! Ops mirror `wdsparql eval` (parse the query, `Engine::evaluate` on
//! the store, format the answers) and `wdsparql count`
//! (`enumerate_with_stats` plus `count_by_domain`, then format). Answers
//! are checked against an `Engine::new(RdfGraph)` oracle built from the
//! generated graph, which never passes through the N-Triples reader.

use crate::rng::Rng;
use crate::trace::Recorder;
use crate::{parse_query, Config, Op, RegistryDelta, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use wdsparql_algebra::SolutionSet;
use wdsparql_core::{count_by_domain, enumerate_with_stats, Engine, EnumStats, Query};
use wdsparql_rdf::{parse_ntriples, write_ntriples, Iri, Triple, Variable};
use wdsparql_store::TripleStore;

/// An OPT chain, a nested OPT, a UNION of OPTs, a cyclic AND core (the
/// triangle) and a 2-hop AND under an OPT, over `social_network` data.
const QUERIES: [&str; 5] = [
    "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)",
    "(?p, type, Person) OPT ((?p, wrote, ?w) OPT (?w, topic, ?t))",
    "((?p, email, ?e) OPT (?p, city, ?c)) UNION ((?p, wrote, ?w) OPT (?w, topic, ?t))",
    "((?x, knows, ?y) AND (?y, knows, ?z)) AND (?z, knows, ?x)",
    "(?p, city, city1) OPT ((?p, knows, ?f) AND (?f, email, ?e))",
];

const BATCH: usize = 4096;

pub struct LoadEval {
    text: String,
    triples: usize,
    store: Option<Arc<TripleStore>>,
    expected_eval: Vec<String>,
    expected_count: Vec<String>,
    rng: Rng,
    counts: Counts,
}

#[derive(Default)]
struct Counts {
    evals: u64,
    solutions: u64,
    count_ops: u64,
    hom_calls: u64,
    steps: u64,
    max_delay_steps: u64,
    stats_solutions: u64,
}

/// The `wdsparql eval` output.
fn format_eval(sols: &SolutionSet) -> String {
    let mut out = format!("{} solution(s):\n", sols.len());
    for mu in sols {
        let _ = writeln!(out, "  {mu}");
    }
    out
}

/// The answer part of the `wdsparql count` output (the work line that
/// follows it depends on enumeration order, so it is not checked).
fn format_count(n: usize, by_domain: &BTreeMap<Vec<Variable>, usize>) -> String {
    let mut out = format!("{n} solution(s)\n");
    for (domain, count) in by_domain {
        let names: Vec<String> = domain.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(out, "  {{{}}}: {count}", names.join(", "));
    }
    out
}

impl LoadEval {
    pub fn new(cfg: &Config) -> Result<LoadEval, String> {
        let (people, target) = match cfg.scale {
            Scale::Full => (4000, 50_000),
            Scale::Tiny => (40, 300),
        };
        let mut g = wdsparql_workloads::social_network(people, cfg.seed);
        // A random `knows` graph over the same people fills the data up
        // to the target size.
        let mut rng = Rng::new(cfg.seed ^ 0x5EED_0001);
        let knows = Iri::new("knows");
        let person: Vec<Iri> = (0..people)
            .map(|i| Iri::new(&format!("person{i}")))
            .collect();
        while g.len() < target {
            let (a, b) = (rng.below(people), rng.below(people));
            if a != b {
                g.insert(Triple::new(person[a], knows, person[b]));
            }
        }
        let text = write_ntriples(&g);
        let triples = g.len();
        let oracle = Engine::new(g);
        let graph = oracle
            .graph()
            .expect("an Engine::new engine holds its graph");
        let mut expected_eval = Vec::new();
        let mut expected_count = Vec::new();
        for text in QUERIES {
            let q = Query::parse(text).map_err(|e| format!("{text}: {e}"))?;
            expected_eval.push(format_eval(&oracle.evaluate(&q)));
            let n = wdsparql_core::enumerate_forest(q.forest(), graph).len();
            expected_count.push(format_count(n, &count_by_domain(q.forest(), graph)));
        }
        if cfg.poison {
            expected_eval[0].push_str("  (a deliberately wrong answer)\n");
        }
        Ok(LoadEval {
            text,
            triples,
            store: None,
            expected_eval,
            expected_count,
            rng: Rng::new(cfg.seed ^ 0x5EED_0002),
            counts: Counts::default(),
        })
    }

    fn store(&self) -> Arc<TripleStore> {
        Arc::clone(self.store.as_ref().expect("ops run after set-up"))
    }

    fn eval(&mut self, qi: usize, tr: &mut Recorder) -> Op {
        let store = self.store();
        let start = Instant::now();
        let root = tr.begin("op.eval");
        let out = parse_query(QUERIES[qi], tr).map(|q| {
            let engine = Engine::from_store(store);
            let sols = tr.span("core.evaluate", || engine.evaluate(&q));
            (sols.len(), tr.span("rdf.format", || format_eval(&sols)))
        });
        tr.end(root);
        let elapsed = start.elapsed();
        if tr.is_on() {
            if let Ok((n, _)) = &out {
                self.counts.evals += 1;
                self.counts.solutions += *n as u64;
            }
        }
        Op {
            side: false,
            elapsed,
            ok: out.is_ok_and(|(_, text)| text == self.expected_eval[qi]),
        }
    }

    fn count(&mut self, qi: usize, tr: &mut Recorder) -> Op {
        let store = self.store();
        let start = Instant::now();
        let root = tr.begin("op.count");
        let out = parse_query(QUERIES[qi], tr).map(|q| {
            let (n, stats, by_domain) = store.with_index(|g| {
                let (sols, stats) = tr.span("core.enumerate_with_stats", || {
                    enumerate_with_stats(q.forest(), g)
                });
                let by_domain = tr.span("core.count_by_domain", || count_by_domain(q.forest(), g));
                (sols.len(), stats, by_domain)
            });
            let mut text = format_count(n, &by_domain);
            let answers = text.len();
            let _ = writeln!(
                text,
                "(work: {} hom calls, {} steps, max delay {} steps)",
                stats.hom_calls, stats.steps, stats.max_delay_steps
            );
            (stats, text, answers)
        });
        tr.end(root);
        let elapsed = start.elapsed();
        if tr.is_on() {
            if let Ok((stats, _, _)) = &out {
                self.record_stats(stats);
            }
        }
        Op {
            side: true,
            elapsed,
            ok: out.is_ok_and(|(_, text, answers)| text[..answers] == self.expected_count[qi]),
        }
    }

    fn record_stats(&mut self, stats: &EnumStats) {
        let c = &mut self.counts;
        c.count_ops += 1;
        c.hom_calls += stats.hom_calls as u64;
        c.steps += stats.steps as u64;
        c.max_delay_steps += stats.max_delay_steps as u64;
        c.stats_solutions += stats.solutions as u64;
    }
}

impl Workload for LoadEval {
    fn epoch_cycles(&self) -> usize {
        8
    }

    fn rss_epochs(&self) -> usize {
        1
    }

    fn teardown(&mut self) {
        self.store = None;
    }

    fn setup(&mut self, tr: &mut Recorder) -> Result<(), String> {
        let graph = tr
            .span("rdf.parse_ntriples", || parse_ntriples(&self.text))
            .map_err(|e| e.to_string())?;
        let store = Arc::new(TripleStore::new());
        let triples: Vec<Triple> = graph.iter().copied().collect();
        drop(graph);
        for batch in triples.chunks(BATCH) {
            tr.span("store.bulk_load", || {
                store.try_bulk_load(batch.iter().copied())
            })
            .map_err(|e| e.to_string())?;
        }
        tr.span("store.compact", || store.compact());
        if store.len() != self.triples {
            return Err(format!(
                "loaded {} triples, generated {}",
                store.len(),
                self.triples
            ));
        }
        self.store = Some(store);
        Ok(())
    }

    fn cycle(&mut self) -> Vec<usize> {
        let mut ops: Vec<usize> = (0..2 * QUERIES.len()).collect();
        self.rng.shuffle(&mut ops);
        ops
    }

    fn op(&mut self, op: usize, tr: &mut Recorder) -> Op {
        match op {
            i if i < QUERIES.len() => self.eval(i, tr),
            i => self.count(i - QUERIES.len(), tr),
        }
    }

    fn layer_counts(&self, _reg: &RegistryDelta) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let per = |v: u64, n: u64| crate::ratio(v as f64, n as f64);
        vec![
            ("core.solutions", per(c.solutions, c.evals)),
            ("core.hom_calls", per(c.hom_calls, c.count_ops)),
            ("core.steps", per(c.steps, c.count_ops)),
            ("core.max_delay_steps", per(c.max_delay_steps, c.count_ops)),
            (
                "core.solutions_per_hom_call",
                per(c.stats_solutions, c.hom_calls),
            ),
        ]
    }
}
