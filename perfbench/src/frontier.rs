//! `frontier_check` — the paper's EVAL problem (`µ ∈ ⟦P⟧_G`?) as
//! `wdsparql check` runs it, on the `RdfGraph` backend.
//!
//! Each op parses the query text into a fresh `Query`, so domination
//! width is computed per op, then calls `Engine::check`. `check_auto`
//! ops (`Strategy::Auto`, the pebble game with `k = dw`) run on `F_k`
//! (dw = 1) and its negative variant for k ∈ {4, 5, 6}, each against
//! Turán adversaries of five sizes, and on the clique-child family `Q_k`
//! for k ∈ {4, 5}, the unbounded-width control whose pebble cost grows
//! with k. `check_naive` ops run the coNP algorithm on the positive
//! `F_5` cases. Verdicts are checked against `Instance::expected`, and
//! Naive must agree with Auto on the same case.
//!
//! Set-up builds the instances' `RdfGraph` indexes and engines.

use crate::rng::Rng;
use crate::trace::Recorder;
use crate::{parse_query, Config, Op, RegistryDelta, Scale, Workload};
use std::time::Instant;
use wdsparql_core::{mu_subtree, Engine, Query, Strategy};
use wdsparql_hom::GenTGraph;
use wdsparql_pebble::{pebble_game, PebbleStats};
use wdsparql_rdf::{Mapping, RdfGraph, Triple};
use wdsparql_tree::{pattern_from_wdpf, subtree_children, subtree_pat, subtree_vars};
use wdsparql_workloads::{clique_instance, fk_instance, fk_instance_negative, Instance};

/// `peak_rss_mb` is read after this many one-cycle epochs. RSS here
/// grows with every domination-width computation, so the figure is
/// taken at a fixed op count.
const RSS_EPOCHS: usize = 16;

struct Case {
    text: String,
    triples: Vec<Triple>,
    mu: Mapping,
    expected: bool,
    /// What one `check_auto` op on this case costs the pebble game.
    pebble: PebbleStats,
}

pub struct Frontier {
    cases: Vec<Case>,
    engines: Vec<Engine>,
    /// One cycle's ops before shuffling: `(case, naive?)`.
    template: Vec<(usize, bool)>,
    /// The last `check_auto` verdict per case, for the Naive/Auto
    /// agreement check.
    auto_verdict: Vec<Option<bool>>,
    rng: Rng,
    counts: PebbleStats,
    auto_ops: u64,
}

/// The pebble-game statistics of one `Strategy::Auto` check, replayed
/// from outside through the public functions `check_forest_pebble` is
/// built from; also returns the verdict, which must match the engine's.
fn pebble_replay(q: &Query, g: &RdfGraph, mu: &Mapping) -> (bool, PebbleStats) {
    let k = q.domination_width();
    let mut sum = PebbleStats::default();
    for t in &q.forest().trees {
        let Some(st) = mu_subtree(t, g, mu) else {
            continue;
        };
        let x = subtree_vars(t, &st);
        let base = subtree_pat(t, &st);
        let accepted = subtree_children(t, &st).into_iter().all(|n| {
            let src = GenTGraph::new(base.union(t.pat(n)), x.iter().copied());
            let (wins, s) = pebble_game(&src, g, mu, k + 1);
            sum.initial_assignments += s.initial_assignments;
            sum.deleted += s.deleted;
            sum.subsets += s.subsets;
            !wins
        });
        if accepted {
            return (true, sum);
        }
    }
    (false, sum)
}

impl Frontier {
    pub fn new(cfg: &Config) -> Result<Frontier, String> {
        // F_k runs against Turán adversaries of five sizes around the
        // experiments harness's n = 4(k − 1) (E5), Q_k at n = 3(k − 1)
        // (E6). The sizes give each op kind a continuum of costs, so its
        // median moves smoothly, instead of jumping between two cost
        // levels, when the host's speed drifts.
        let (fk, naive_k, cliques): (&[usize], usize, &[usize]) = match cfg.scale {
            Scale::Full => (&[4, 5, 6], 5, &[4, 5]),
            Scale::Tiny => (&[3, 4], 4, &[3]),
        };
        let mut instances: Vec<(Instance, bool)> = Vec::new();
        for &k in fk {
            for n in 4 * (k - 1) - 2..=4 * (k - 1) + 2 {
                instances.push((fk_instance(k, n), k == naive_k));
                instances.push((fk_instance_negative(k, n), false));
            }
        }
        for &k in cliques {
            instances.push((clique_instance(k, 3 * (k - 1)), false));
        }
        let mut cases = Vec::new();
        // Every case is checked once per cycle by Auto; the positive
        // F_5 cases (F_4 at tiny scale) also by Naive.
        let mut template = Vec::new();
        for (ci, (inst, naive)) in instances.into_iter().enumerate() {
            let text = pattern_from_wdpf(&inst.forest).to_string();
            let q = Query::parse(&text).map_err(|e| format!("{}: {e}", inst.label))?;
            let (verdict, pebble) = pebble_replay(&q, &inst.graph, &inst.mu);
            if verdict != inst.expected {
                return Err(format!("{}: the pebble replay disagrees", inst.label));
            }
            template.push((ci, false));
            if naive {
                template.push((ci, true));
            }
            cases.push(Case {
                text,
                triples: inst.graph.iter().copied().collect(),
                mu: inst.mu,
                expected: inst.expected,
                pebble,
            });
        }
        if cfg.poison {
            cases[0].expected = !cases[0].expected;
        }
        Ok(Frontier {
            auto_verdict: vec![None; cases.len()],
            cases,
            engines: Vec::new(),
            template,
            rng: Rng::new(cfg.seed),
            counts: PebbleStats::default(),
            auto_ops: 0,
        })
    }
}

impl Workload for Frontier {
    fn epoch_cycles(&self) -> usize {
        1
    }

    fn rss_epochs(&self) -> usize {
        RSS_EPOCHS
    }

    fn teardown(&mut self) {
        self.engines.clear();
    }

    fn setup(&mut self, _tr: &mut Recorder) -> Result<(), String> {
        self.engines = self
            .cases
            .iter()
            .map(|c| Engine::new(RdfGraph::from_triples(c.triples.iter().copied())))
            .collect();
        Ok(())
    }

    fn cycle(&mut self) -> Vec<usize> {
        let mut ops: Vec<usize> = (0..self.template.len()).collect();
        self.rng.shuffle(&mut ops);
        ops
    }

    fn op(&mut self, op: usize, tr: &mut Recorder) -> Op {
        let (ci, naive) = self.template[op];
        let case = &self.cases[ci];
        let engine = &self.engines[ci];
        let start = Instant::now();
        let root = tr.begin(if naive {
            "op.check_naive"
        } else {
            "op.check_auto"
        });
        let verdict = parse_query(&case.text, tr).map(|q| {
            if naive {
                tr.span("core.check_naive", || {
                    engine.check(&q, &case.mu, Strategy::Naive)
                })
            } else {
                // Computed here so the traced run can time it apart;
                // `check` then reads the cached value.
                tr.span("width.dw", || q.domination_width());
                tr.span("core.check_pebble", || {
                    engine.check(&q, &case.mu, Strategy::Auto)
                })
            }
        });
        tr.end(root);
        let elapsed = start.elapsed();
        let ok = match verdict {
            Ok(v) if naive => v == case.expected && self.auto_verdict[ci].is_none_or(|a| a == v),
            Ok(v) => {
                self.auto_verdict[ci] = Some(v);
                v == case.expected
            }
            Err(_) => false,
        };
        if tr.is_on() && !naive {
            self.auto_ops += 1;
            self.counts.initial_assignments += case.pebble.initial_assignments;
            self.counts.deleted += case.pebble.deleted;
            self.counts.subsets += case.pebble.subsets;
        }
        Op {
            side: naive,
            elapsed,
            ok,
        }
    }

    fn layer_counts(&self, _reg: &RegistryDelta) -> Vec<(&'static str, f64)> {
        let per = |v: usize| crate::ratio(v as f64, self.auto_ops as f64);
        vec![
            (
                "pebble.initial_assignments",
                per(self.counts.initial_assignments),
            ),
            ("pebble.deleted", per(self.counts.deleted)),
            ("pebble.subsets", per(self.counts.subsets)),
        ]
    }
}
