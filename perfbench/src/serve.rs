//! `serve_mixed` — reads beside durable writes on a 2-shard
//! `ShardedStore`.
//!
//! Set-up is a durable ingest of the seeded triples (passed as triples:
//! no N-Triples text), then drop and `ShardedStore::open`. Ops, about 90%
//! reads and 10% writes by count:
//!
//! * `bgp` — `query` / `query_limited` with routed point lookups, subject
//!   stars, anchored 2-hops (the second hop fans out), and, once every
//!   32 cycles, a LIMIT-10 triangle. Anchors are Zipf-drawn from a pool
//!   of subjects much larger than the store's 128-entry result cache.
//!   The triangle is kept rare so that the bgp tail, the 11th-slowest of
//!   some 10k reads, falls inside its cluster of ~100 runs rather than at
//!   the very top of a cluster of thousands, where it would track the
//!   host's single worst moments.
//! * `write` — a 256-triple `try_bulk_load`, committed and fsynced before
//!   it returns (the store's only flush policy), with a `compact` every
//!   16th write.
//!
//! Rows are checked against a volatile mirror of everything ingested
//! (an `RdfGraph` joined by the benchmark's own nested-loop matcher), and
//! each write's count of new triples against the mirror.

use crate::rng::{Rng, Zipf};
use crate::trace::Recorder;
use crate::{Config, Op, RegistryDelta, Scale, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use wdsparql_rdf::{
    binding_of, Iri, Mapping, QueryBudget, RdfGraph, Term, Triple, TriplePattern, Variable,
};
use wdsparql_store::ShardedStore;

const SHARDS: usize = 2;
const INGEST_BATCH: usize = 4096;
const WRITE_BATCH: usize = 256;
const COMPACT_EVERY: u64 = 16;
const LIMIT: usize = 10;
const TRIANGLE_EVERY: u64 = 32;
/// 64 cycles of 2 writes: each epoch adds up to 32k triples.
const EPOCH_CYCLES: usize = 64;

/// Op kinds; one cycle holds each as often as [`CYCLE`] says.
#[derive(Clone, Copy)]
enum Kind {
    Point,
    Star,
    TwoHop,
    Triangle,
    Write,
}

const CYCLE: [(Kind, usize); 4] = [
    (Kind::Point, 8),
    (Kind::Star, 6),
    (Kind::TwoHop, 4),
    (Kind::Write, 2),
];

/// The data: users following users, liking items, and members of
/// groups.
struct Gen {
    users: Vec<Iri>,
    items: Vec<Iri>,
    groups: Vec<Iri>,
    follows: Iri,
    likes: Iri,
    member: Iri,
}

impl Gen {
    fn new(users: usize, items: usize, groups: usize) -> Gen {
        let names = |prefix: &str, n: usize| -> Vec<Iri> {
            (0..n).map(|i| Iri::new(&format!("{prefix}{i}"))).collect()
        };
        Gen {
            users: names("u", users),
            items: names("item", items),
            groups: names("group", groups),
            follows: Iri::new("follows"),
            likes: Iri::new("likes"),
            member: Iri::new("member"),
        }
    }

    fn triple(&self, rng: &mut Rng) -> Triple {
        let n = self.users.len();
        let i = rng.below(n);
        let s = self.users[i];
        match rng.below(10) {
            0..=4 => {
                // Half the follows stay within three places either side
                // on a ring of users, so follows-triangles are common and
                // a LIMIT-10 triangle query stops early.
                let j = if rng.below(2) == 0 {
                    (i + n - 3 + [0, 1, 2, 4, 5, 6][rng.below(6)]) % n
                } else {
                    rng.below(n)
                };
                Triple::new(s, self.follows, self.users[j])
            }
            5..=7 => Triple::new(s, self.likes, self.items[rng.below(self.items.len())]),
            _ => Triple::new(s, self.member, self.groups[rng.below(self.groups.len())]),
        }
    }
}

fn v(name: &str) -> Term {
    Term::Var(Variable::new(name))
}

/// The mirror's answer to a BGP: a nested-loop join of `RdfGraph`
/// pattern matches, independent of the store's planner and joins.
fn oracle(g: &RdfGraph, pats: &[TriplePattern]) -> BTreeSet<Mapping> {
    let mut partial = vec![Mapping::new()];
    for pat in pats {
        let mut next = Vec::new();
        for mu in &partial {
            let bound = pat.apply_partial(mu);
            for t in g.match_pattern(&bound) {
                if let Some(nu) = binding_of(&bound, &t) {
                    next.extend(mu.union(&nu));
                }
            }
        }
        partial = next;
    }
    partial.into_iter().collect()
}

pub struct Serve {
    gen: Gen,
    ingest: Vec<Triple>,
    /// The ingested data, and the mirror of everything ingested since the
    /// epoch's set-up.
    base: RdfGraph,
    mirror: RdfGraph,
    store: Option<Arc<ShardedStore>>,
    dir: Option<PathBuf>,
    work_dir: PathBuf,
    setups: usize,
    anchors: Vec<Iri>,
    zipf: Zipf,
    rng: Rng,
    template: Vec<Kind>,
    poison: bool,
    writes: u64,
    /// Cycles since the epoch's set-up.
    cycles: u64,
    counts: Counts,
}

#[derive(Default)]
struct Counts {
    bgp_ops: u64,
    rows: u64,
    segments: u64,
    write_ops: u64,
}

impl Serve {
    pub fn new(cfg: &Config) -> Result<Serve, String> {
        let (users, items, groups, target, pool) = match cfg.scale {
            Scale::Full => (3000, 1500, 50, 30_000, 2048),
            Scale::Tiny => (60, 30, 5, 600, 40),
        };
        let gen = Gen::new(users, items, groups);
        let mut rng = Rng::new(cfg.seed);
        let mut mirror = RdfGraph::new();
        let mut ingest = Vec::new();
        while mirror.len() < target {
            let t = gen.triple(&mut rng);
            if mirror.insert(t) {
                ingest.push(t);
            }
        }
        let triangle = Serve::patterns_for(&gen, Kind::Triangle, gen.users[0]);
        if oracle(&mirror, &triangle).len() < LIMIT {
            return Err("the generated data has too few follows-triangles".into());
        }
        // Zipf ranks map to a seeded sample of users, so the hot anchors
        // differ from seed to seed.
        let mut anchors = gen.users.clone();
        rng.shuffle(&mut anchors);
        anchors.truncate(pool);
        // The triangle sits last, outside the ops every cycle runs.
        let template = CYCLE
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .chain([Kind::Triangle])
            .collect();
        Ok(Serve {
            gen,
            ingest,
            base: mirror.clone(),
            mirror,
            store: None,
            dir: None,
            work_dir: cfg.work_dir.clone(),
            setups: 0,
            zipf: Zipf::new(anchors.len()),
            anchors,
            rng,
            template,
            poison: cfg.poison,
            writes: 0,
            cycles: 0,
            counts: Counts::default(),
        })
    }

    fn patterns_for(gen: &Gen, kind: Kind, a: Iri) -> Vec<TriplePattern> {
        let a = Term::Iri(a);
        let (f, l, m) = (
            Term::Iri(gen.follows),
            Term::Iri(gen.likes),
            Term::Iri(gen.member),
        );
        match kind {
            Kind::Point => vec![TriplePattern::new(a, f, v("o"))],
            Kind::Star => vec![
                TriplePattern::new(a, f, v("f")),
                TriplePattern::new(a, m, v("g")),
            ],
            Kind::TwoHop => vec![
                TriplePattern::new(a, f, v("x")),
                TriplePattern::new(v("x"), l, v("i")),
            ],
            Kind::Triangle => vec![
                TriplePattern::new(v("x"), f, v("y")),
                TriplePattern::new(v("y"), f, v("z")),
                TriplePattern::new(v("z"), f, v("x")),
            ],
            Kind::Write => unreachable!("a write reads no patterns"),
        }
    }

    fn remove_store(&mut self) {
        self.store = None;
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn store(&self) -> Arc<ShardedStore> {
        Arc::clone(self.store.as_ref().expect("ops run after set-up"))
    }

    fn bgp(&mut self, kind: Kind, tr: &mut Recorder) -> Op {
        let anchor = self.anchors[self.zipf.draw(&mut self.rng)];
        let pats = Serve::patterns_for(&self.gen, kind, anchor);
        let store = self.store();
        if tr.is_on() {
            self.counts.segments += store
                .shards()
                .iter()
                .map(|s| s.with_index(|g| g.segment_count()) as u64)
                .sum::<u64>();
        }
        let start = Instant::now();
        let root = tr.begin("op.bgp");
        let rows: Result<Arc<Vec<Mapping>>, String> = tr.span("store.query", || match kind {
            Kind::Triangle => store
                .query_limited(&pats, LIMIT, &QueryBudget::unlimited())
                .map(Arc::new)
                .map_err(|e| e.to_string()),
            _ => Ok(store.query(&pats)),
        });
        tr.end(root);
        let elapsed = start.elapsed();
        let ok = match &rows {
            Ok(rows) => self.rows_correct(kind, &pats, rows),
            Err(_) => false,
        };
        if tr.is_on() {
            self.counts.bgp_ops += 1;
            self.counts.rows += rows.map_or(0, |r| r.len() as u64);
        }
        Op {
            side: false,
            elapsed,
            ok,
        }
    }

    fn rows_correct(&self, kind: Kind, pats: &[TriplePattern], rows: &[Mapping]) -> bool {
        let distinct: BTreeSet<&Mapping> = rows.iter().collect();
        if distinct.len() != rows.len() {
            return false;
        }
        match kind {
            // A LIMIT prefix may be any LIMIT solutions: each must be one,
            // and the mirror always holds more than LIMIT of them.
            Kind::Triangle => {
                rows.len() == LIMIT
                    && rows.iter().all(|mu| {
                        pats.iter()
                            .all(|p| p.apply(mu).is_some_and(|t| self.mirror.contains(&t)))
                    })
            }
            _ => {
                distinct.into_iter().cloned().collect::<BTreeSet<_>>() == oracle(&self.mirror, pats)
            }
        }
    }

    fn write(&mut self, tr: &mut Recorder) -> Op {
        let batch: Vec<Triple> = (0..WRITE_BATCH)
            .map(|_| self.gen.triple(&mut self.rng))
            .collect();
        let fresh: BTreeSet<Triple> = batch
            .iter()
            .filter(|t| !self.mirror.contains(t))
            .copied()
            .collect();
        let store = self.store();
        self.writes += 1;
        let compact = self.writes.is_multiple_of(COMPACT_EVERY);
        let start = Instant::now();
        let root = tr.begin("op.write");
        let added = tr.span("store.bulk_load", || {
            store.try_bulk_load(batch.iter().copied())
        });
        if compact {
            tr.span("store.compact", || store.compact());
        }
        tr.end(root);
        let elapsed = start.elapsed();
        let mut expected = fresh.len();
        if self.poison && self.writes == 1 {
            expected += 1;
        }
        for t in fresh {
            self.mirror.insert(t);
        }
        if tr.is_on() {
            self.counts.write_ops += 1;
        }
        Op {
            side: true,
            elapsed,
            ok: added.is_ok_and(|n| n == expected),
        }
    }
}

impl Workload for Serve {
    fn epoch_cycles(&self) -> usize {
        EPOCH_CYCLES
    }

    fn rss_epochs(&self) -> usize {
        1
    }

    fn teardown(&mut self) {
        self.remove_store();
        self.mirror = self.base.clone();
        self.writes = 0;
        self.cycles = 0;
    }

    fn setup(&mut self, tr: &mut Recorder) -> Result<(), String> {
        self.setups += 1;
        let dir = self
            .work_dir
            .join(format!("serve-{}-{}", std::process::id(), self.setups));
        let _ = std::fs::remove_dir_all(&dir);
        self.dir = Some(dir.clone());
        let err = |e: wdsparql_store::StoreError| e.to_string();
        let store = ShardedStore::new(SHARDS);
        store.persist_to(&dir).map_err(err)?;
        for batch in self.ingest.chunks(INGEST_BATCH) {
            tr.span("store.bulk_load", || {
                store.try_bulk_load(batch.iter().copied())
            })
            .map_err(err)?;
        }
        tr.span("store.compact", || store.compact());
        drop(store);
        let store = tr
            .span("store.open", || ShardedStore::open(&dir))
            .map_err(err)?;
        if store.len() != self.ingest.len() {
            return Err(format!(
                "reopened {} triples, ingested {}",
                store.len(),
                self.ingest.len()
            ));
        }
        self.store = Some(Arc::new(store));
        Ok(())
    }

    fn cycle(&mut self) -> Vec<usize> {
        let every_cycle = self.template.len() - 1;
        let mut ops: Vec<usize> = (0..every_cycle).collect();
        if self.cycles.is_multiple_of(TRIANGLE_EVERY) {
            ops.push(every_cycle);
        }
        self.cycles += 1;
        self.rng.shuffle(&mut ops);
        ops
    }

    fn op(&mut self, op: usize, tr: &mut Recorder) -> Op {
        match self.template[op] {
            Kind::Write => self.write(tr),
            kind => self.bgp(kind, tr),
        }
    }

    fn layer_counts(&self, reg: &RegistryDelta) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let per = |v: u64, n: u64| crate::ratio(v as f64, n as f64);
        vec![
            (
                "store.rows_examined_per_result",
                per(reg.op("shard_read_rows"), c.rows),
            ),
            ("store.segments_pending", per(c.segments, c.bgp_ops)),
            (
                "store.queries_total_per_bgp",
                per(reg.op("store.queries_total"), c.bgp_ops),
            ),
            (
                "store.fsync_per_write",
                per(reg.op("store.fsync_total"), c.write_ops),
            ),
        ]
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.remove_store();
    }
}
