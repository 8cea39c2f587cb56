//! Full solution enumeration `⟦T⟧_G` / `⟦F⟧_G` over pattern trees — the
//! one enumeration routine behind [`crate::Engine::evaluate`], counting
//! and the instrumented run.
//!
//! Works top-down from the root: for a homomorphism of the current node
//! (compatible with the bindings accumulated on its branch), each child
//! either has no compatible extension (it is skipped — and, by Lemma 1,
//! *must* be skipped) or contributes one of its recursively-maximal
//! extensions (it *must* extend). Sibling subtrees share no private
//! variables (condition (3) of wdPTs), so their extensions combine by
//! cartesian product.
//!
//! The work counters of [`EnumStats`] are plain increments and always
//! on, so an instrumented run is the production run.

use std::collections::BTreeSet;
use wdsparql_algebra::SolutionSet;
use wdsparql_hom::{all_homs_into_graph, TGraph};
use wdsparql_rdf::{
    ExecError, Mapping, QueryBudget, SolutionStream, TripleIndex, TriplePattern, Variable,
};
use wdsparql_store::{hypergraph_is_cyclic, JoinStrategy, WcoStream};
use wdsparql_tree::{NodeId, Wdpf, Wdpt};

/// Work counters for one enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Solutions emitted (before cross-tree deduplication).
    pub emitted: usize,
    /// Distinct solutions after deduplication.
    pub solutions: usize,
    /// Node-core joins (hom solver or leapfrog), one per node visit.
    pub hom_calls: usize,
    /// Tree-node visits (the traversal's step counter).
    pub steps: usize,
    /// Largest number of steps between consecutive emission batches
    /// (including the lead-in to the first batch and the tail after the
    /// last) — the empirical *delay* of the enumeration. Solutions are
    /// emitted once their root homomorphism's subtree has been fully
    /// explored, so the delay measures the work per root-level candidate.
    pub max_delay_steps: usize,
}

/// Enumerates `⟦F⟧_G = ⋃_i ⟦T_i⟧_G` under the default [`JoinStrategy`]
/// (`Auto`, as [`crate::Engine`] uses).
pub fn enumerate_forest(f: &Wdpf, g: &dyn TripleIndex) -> SolutionSet {
    enumerate_forest_with(f, g, JoinStrategy::default())
}

/// As [`enumerate_forest`], with a [`JoinStrategy`] knob for the
/// per-node query cores: each node's pattern set is a BGP, and under
/// `Wco`/`Auto` the ones whose *bound* core is cyclic evaluate through
/// the store's worst-case-optimal leapfrog join instead of the hom
/// solver's backtracking search. The branch bindings shrink the core
/// first — a triangle with one variable already bound is no longer
/// cyclic, so `Auto` leaves it on the fail-first path.
pub fn enumerate_forest_with(f: &Wdpf, g: &dyn TripleIndex, strategy: JoinStrategy) -> SolutionSet {
    enumerate_forest_budgeted(f, g, strategy, &QueryBudget::unlimited())
        .expect("an unlimited budget never fails a checkpoint")
}

/// As [`enumerate_forest_with`], under a [`QueryBudget`]: enumeration
/// checkpoints once per node-extension step (and the leapfrog join
/// checkpoints inside its seek loops), so a deadline or cancellation
/// surfaces as a typed [`ExecError`] instead of running to completion.
pub fn enumerate_forest_budgeted(
    f: &Wdpf,
    g: &dyn TripleIndex,
    strategy: JoinStrategy,
    budget: &QueryBudget,
) -> Result<SolutionSet, ExecError> {
    Ok(enumerate_counted(f, g, strategy, budget)?.0)
}

/// Enumerates `⟦F⟧_G` together with the run's work counters.
pub(crate) fn enumerate_counted(
    f: &Wdpf,
    g: &dyn TripleIndex,
    strategy: JoinStrategy,
    budget: &QueryBudget,
) -> Result<(SolutionSet, EnumStats), ExecError> {
    let mut run = Run {
        g,
        budget,
        stats: EnumStats::default(),
        last_emit_steps: 0,
        out: SolutionSet::new(),
    };
    for t in &f.trees {
        let wco = routes(t, strategy);
        run.solutions_below(t, &wco, t.root(), &Mapping::new())?;
    }
    // Tail delay: steps after the last emission also count.
    let tail = run.stats.steps - run.last_emit_steps;
    run.stats.max_delay_steps = run.stats.max_delay_steps.max(tail);
    run.stats.solutions = run.out.len();
    Ok((run.out, run.stats))
}

/// Each node's join route in `t`, indexed by [`NodeId`]: `true` for the
/// leapfrog join on the bound core, `false` for the hom solver.
///
/// Every homomorphism binds all of its node's variables, so the
/// variables already bound when node `n` is reached are exactly those
/// of `n`'s ancestors, and whether `n`'s bound core is cyclic is a fixed
/// fact of the tree — decided here once, not once per branch extension.
/// `Auto` routes on that cyclicity alone, a structural check with no
/// index probes: the service planner's pairwise blow-up estimate would
/// guard a case the fail-first hom search already handles well.
fn routes(t: &Wdpt, strategy: JoinStrategy) -> Vec<bool> {
    t.node_ids()
        .map(|n| match strategy {
            JoinStrategy::Pairwise => false,
            JoinStrategy::Wco => true,
            JoinStrategy::Auto => {
                let bound: BTreeSet<Variable> =
                    t.branch(n).into_iter().flat_map(|m| t.vars(m)).collect();
                hypergraph_is_cyclic(t.pat(n).iter().map(|p| &p.vars() - &bound))
            }
        })
        .collect()
}

/// One enumeration run: the graph, the budget, the counters and the
/// distinct solutions emitted so far.
struct Run<'a> {
    g: &'a dyn TripleIndex,
    budget: &'a QueryBudget,
    stats: EnumStats,
    last_emit_steps: usize,
    out: SolutionSet,
}

impl Run<'_> {
    /// Emits one root homomorphism's batch of solutions.
    fn emit(&mut self, batch: Vec<Mapping>) {
        self.stats.emitted += batch.len();
        let delay = self.stats.steps - self.last_emit_steps;
        self.stats.max_delay_steps = self.stats.max_delay_steps.max(delay);
        self.last_emit_steps = self.stats.steps;
        self.out.extend(batch);
    }

    /// The homomorphisms of one node's pattern set extending `base`, by
    /// the node's route: the hom solver, or the leapfrog join on the
    /// bound core. Each binds at least the variables of `pat` outside
    /// `dom(base)` and agrees with `base`.
    fn node_homs(
        &self,
        pat: &TGraph,
        wco: bool,
        base: &Mapping,
    ) -> Result<Vec<Mapping>, ExecError> {
        if !wco {
            return Ok(all_homs_into_graph(pat, self.g, base));
        }
        let bound: Vec<TriplePattern> = pat.iter().map(|t| t.apply_partial(base)).collect();
        WcoStream::new(self.g, &bound, self.budget, false).collect_limit(None)
    }

    /// All maximal solutions of the subtree rooted at `n`, each including
    /// the bindings of `base` (the mapping accumulated along the branch)
    /// plus the bindings of `n`'s own pattern and of every extendable
    /// descendant. At the root each homomorphism's batch is emitted as
    /// soon as its subtree is explored — which makes `max_delay_steps` a
    /// per-candidate measure rather than the whole run — and nothing is
    /// returned.
    fn solutions_below(
        &mut self,
        t: &Wdpt,
        wco: &[bool],
        n: NodeId,
        base: &Mapping,
    ) -> Result<Vec<Mapping>, ExecError> {
        // One checkpoint per branch extension: product blow-up happens
        // one node-extension at a time, so this bounds the work between
        // checks.
        self.budget.check()?;
        self.stats.steps += 1;
        self.stats.hom_calls += 1;
        let mut out = Vec::new();
        for nu in self.node_homs(t.pat(n), wco[n.0], base)? {
            let combined = base
                .union(&nu)
                .expect("node homomorphisms agree with their fixed bindings");
            // Children combine by product; a child with no extension is
            // absent.
            let mut partials = vec![combined.clone()];
            for &c in t.children(n) {
                let exts = self.solutions_below(t, wco, c, &combined)?;
                if exts.is_empty() {
                    continue;
                }
                let mut next = Vec::with_capacity(partials.len() * exts.len());
                for p in &partials {
                    self.budget.check()?;
                    for e in &exts {
                        let u = p
                            .union(e)
                            .expect("sibling extensions share only branch variables");
                        next.push(u);
                    }
                }
                partials = next;
            }
            if n == t.root() {
                self.emit(partials);
            } else {
                out.extend(partials);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::{eval, parse_pattern};
    use wdsparql_rdf::RdfGraph;

    fn assert_matches_reference(text: &str, g: &RdfGraph) {
        let p = parse_pattern(text).unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        assert_eq!(
            enumerate_forest(&f, g),
            eval(&p, g),
            "enumeration diverges from reference semantics for {text}"
        );
    }

    fn sample_graph() -> RdfGraph {
        RdfGraph::from_strs([
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("z0", "q", "a"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
            ("w0", "q", "z0"),
            ("d", "q", "a"),
        ])
    }

    #[test]
    fn matches_reference_on_simple_patterns() {
        let g = sample_graph();
        assert_matches_reference("(?x, p, ?y)", &g);
        assert_matches_reference("((?x, p, ?y) AND (?y, r, ?u))", &g);
        assert_matches_reference("((?x, p, ?y) OPT (?y, r, ?u))", &g);
    }

    #[test]
    fn matches_reference_on_nested_opts() {
        let g = sample_graph();
        assert_matches_reference(
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
            &g,
        );
        assert_matches_reference("((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z)))", &g);
        assert_matches_reference("((?x, p, ?y) OPT ((?y, r, ?u) OPT (?u, r, ?v)))", &g);
    }

    #[test]
    fn matches_reference_on_unions() {
        let g = sample_graph();
        assert_matches_reference(
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION ((?x, q, ?y) OPT (?y, p, ?u))",
            &g,
        );
    }

    #[test]
    fn sibling_children_multiply() {
        // Two independent OPT branches, both extendable twice.
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "q", "c1"),
            ("b", "q", "c2"),
            ("a", "r", "d1"),
            ("a", "r", "d2"),
        ]);
        assert_matches_reference("(((?x, p, ?y) OPT (?y, q, ?u)) OPT (?x, r, ?v))", &g);
        let f = Wdpf::from_pattern(
            &parse_pattern("(((?x, p, ?y) OPT (?y, q, ?u)) OPT (?x, r, ?v))").unwrap(),
        )
        .unwrap();
        assert_eq!(enumerate_forest(&f, &g).len(), 4);
    }

    #[test]
    fn empty_graph_has_no_solutions() {
        let f = Wdpf::from_pattern(&parse_pattern("(?x, p, ?y)").unwrap()).unwrap();
        assert!(enumerate_forest(&f, &RdfGraph::new()).is_empty());
    }

    /// A budget that can never be satisfied fails every enumeration
    /// with the typed error before doing index work, and an unlimited
    /// budget reproduces the unbudgeted result exactly — across all
    /// three join strategies.
    #[test]
    fn budgeted_enumeration_types_its_failures_and_agrees_when_unlimited() {
        use std::time::Duration;
        use wdsparql_rdf::CancelToken;
        let g = sample_graph();
        let p =
            parse_pattern("(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))")
                .unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            let want = enumerate_forest_with(&f, &g, strategy);
            assert_eq!(
                enumerate_forest_budgeted(&f, &g, strategy, &QueryBudget::unlimited()),
                Ok(want),
                "{strategy}: unlimited budget must not change the result"
            );
            // Fresh budget per query: the first checkpoint is the one
            // call guaranteed to consult the clock.
            assert_eq!(
                enumerate_forest_budgeted(
                    &f,
                    &g,
                    strategy,
                    &QueryBudget::with_deadline(Duration::ZERO)
                ),
                Err(ExecError::DeadlineExceeded),
                "{strategy}: a zero deadline must fail typed"
            );
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                enumerate_forest_budgeted(
                    &f,
                    &g,
                    strategy,
                    &QueryBudget::unlimited().and_cancel(token)
                ),
                Err(ExecError::Cancelled),
                "{strategy}: a tripped token must fail typed"
            );
        }
    }

    /// Routes are decided once per node from its ancestors' variables.
    /// A triangle OPT child that shares a variable with the root has an
    /// acyclic bound core and stays on the hom solver; one that shares
    /// none is cyclic and takes the leapfrog join. Every strategy
    /// enumerates the reference semantics on that tree.
    #[test]
    fn routes_are_decided_per_node() {
        let g = RdfGraph::from_strs([
            ("a", "p", "1"),
            ("e", "p", "5"),
            ("1", "r", "2"),
            ("2", "r", "3"),
            ("3", "r", "1"),
            ("5", "r", "6"),
            ("6", "r", "5"),
            ("u", "s", "v"),
            ("v", "s", "w"),
            ("w", "s", "u"),
        ]);
        let p = parse_pattern(
            "((?x, p, ?y) OPT (((?y, r, ?b) AND (?b, r, ?c)) AND (?c, r, ?y))) \
             OPT (((?u, s, ?v) AND (?v, s, ?w)) AND (?w, s, ?u))",
        )
        .unwrap();
        let f = Wdpf::from_pattern(&p).unwrap();
        let t = &f.trees[0];
        assert_eq!(t.len(), 3);
        let route = |strategy| {
            let r = routes(t, strategy);
            // Name routes by the node's pattern, whatever order the
            // translation numbered the children in.
            let mut by_child: Vec<(bool, bool)> = t
                .children(t.root())
                .iter()
                .map(|&c| (t.vars(c).contains(&Variable::new("y")), r[c.0]))
                .collect();
            by_child.sort();
            (r[t.root().0], by_child)
        };
        assert_eq!(
            route(JoinStrategy::Auto),
            (false, vec![(false, true), (true, false)])
        );
        assert_eq!(
            route(JoinStrategy::Pairwise),
            (false, vec![(false, false), (true, false)])
        );
        assert_eq!(
            route(JoinStrategy::Wco),
            (true, vec![(false, true), (true, true)])
        );
        let want = eval(&p, &g);
        // (a, 1) extends by the r-triangle, (e, 5) does not; both by the
        // three rotations of the s-triangle.
        assert_eq!(want.len(), 6);
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            assert_eq!(
                enumerate_forest_with(&f, &g, strategy),
                want,
                "{strategy} diverges"
            );
        }
    }

    /// Every join strategy enumerates the same solution sets — on
    /// cyclic node cores (where `Auto` and `Wco` route through the
    /// leapfrog join) and on OPT trees whose branch bindings shrink the
    /// core.
    #[test]
    fn join_strategies_agree_on_cyclic_cores() {
        let g = RdfGraph::from_strs([
            ("1", "r", "2"),
            ("2", "r", "3"),
            ("1", "r", "3"),
            ("3", "r", "1"),
            ("2", "r", "4"),
            ("3", "q", "x"),
        ]);
        for text in [
            // A triangle core in the root.
            "((?a, r, ?b) AND (?b, r, ?c)) AND (?a, r, ?c)",
            // Triangle root with an OPT arm.
            "(((?a, r, ?b) AND (?b, r, ?c)) AND (?a, r, ?c)) OPT (?c, q, ?w)",
            // Acyclic chain under OPT (Auto keeps the hom solver).
            "(?a, r, ?b) OPT ((?b, r, ?c) AND (?c, q, ?w))",
        ] {
            let p = parse_pattern(text).unwrap();
            let f = Wdpf::from_pattern(&p).unwrap();
            let want = eval(&p, &g);
            assert!(!want.is_empty(), "{text} should have solutions");
            for strategy in [
                wdsparql_store::JoinStrategy::Pairwise,
                wdsparql_store::JoinStrategy::Wco,
                wdsparql_store::JoinStrategy::Auto,
            ] {
                assert_eq!(
                    enumerate_forest_with(&f, &g, strategy),
                    want,
                    "{strategy} diverges on {text}"
                );
            }
        }
    }
}
