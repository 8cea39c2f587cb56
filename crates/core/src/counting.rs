//! Counting and instrumented enumeration — the two evaluation variants
//! the paper's §5 lists as open directions beyond membership testing
//! (citing Kroll–Pichler–Skritek for enumeration and Pichler–Skritek for
//! the hardness of counting).
//!
//! Counting solutions of a wdPT is #·P-hard in general, so [`count_forest`]
//! and friends go through enumeration; their value here is as ground
//! truth and as the measurement harness for experiment E14 (enumeration
//! delay on bounded- vs unbounded-width families). They run the
//! production enumeration of [`crate::enumerate`] — the routine behind
//! [`crate::Engine::evaluate`], under the default `Auto` join strategy —
//! not a second walk of their own, and its counters are the
//! [`EnumStats`] reported here.

use crate::enumerate::{enumerate_counted, enumerate_forest, EnumStats};
use std::collections::BTreeMap;
use wdsparql_algebra::SolutionSet;
use wdsparql_rdf::{QueryBudget, TripleIndex, Variable};
use wdsparql_store::JoinStrategy;
use wdsparql_tree::Wdpf;

/// `|⟦F⟧_G|` (distinct mappings; trees of a forest may overlap).
pub fn count_forest(f: &Wdpf, g: &dyn TripleIndex) -> usize {
    enumerate_forest(f, g).len()
}

/// Solution counts of `⟦F⟧_G` grouped by mapping domain (see
/// [`domain_histogram`]).
pub fn count_by_domain(f: &Wdpf, g: &dyn TripleIndex) -> BTreeMap<Vec<Variable>, usize> {
    domain_histogram(&enumerate_forest(f, g))
}

/// Solution counts grouped by mapping domain. Distinct domains arise from
/// distinct witness subtrees, so this histogram shows which OPT-extension
/// patterns actually fire on `G`. Keys are sorted by variable *name* so
/// the histogram is stable across runs (variable ids depend on interning
/// order).
pub fn domain_histogram(sols: &SolutionSet) -> BTreeMap<Vec<Variable>, usize> {
    let mut out: BTreeMap<Vec<Variable>, usize> = BTreeMap::new();
    for mu in sols {
        let mut key: Vec<Variable> = mu.domain().collect();
        key.sort_by_key(|v| v.name());
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

/// Enumerates `⟦F⟧_G` while recording work counters, including the
/// empirical per-solution delay.
pub fn enumerate_with_stats(f: &Wdpf, g: &dyn TripleIndex) -> (SolutionSet, EnumStats) {
    enumerate_counted(f, g, JoinStrategy::default(), &QueryBudget::unlimited())
        .expect("an unlimited budget never fails a checkpoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::parse_pattern;
    use wdsparql_rdf::RdfGraph;

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    fn sample_graph() -> RdfGraph {
        RdfGraph::from_strs([
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ])
    }

    #[test]
    fn counts_match_enumeration() {
        let g = sample_graph();
        for text in [
            "(?x, p, ?y)",
            "((?x, p, ?y) OPT (?y, r, ?u))",
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION (?x, r, ?y)",
        ] {
            let f = forest(text);
            assert_eq!(
                count_forest(&f, &g),
                enumerate_forest(&f, &g).len(),
                "{text}"
            );
        }
    }

    #[test]
    fn domain_histogram_partitions_the_solutions() {
        let g = sample_graph();
        let f = forest("((?x, p, ?y) OPT (?y, r, ?u))");
        let by_domain = count_by_domain(&f, &g);
        // Domains: {x,y} (no r-extension) and {x,y,u} (extended).
        assert_eq!(by_domain.len(), 2);
        assert_eq!(by_domain.values().sum::<usize>(), count_forest(&f, &g));
        let vars =
            |names: &[&str]| -> Vec<Variable> { names.iter().map(|n| Variable::new(n)).collect() };
        // Keys are name-sorted.
        assert_eq!(by_domain[&vars(&["x", "y"])], 1); // (e,p,f): f has no r-edge
        assert_eq!(by_domain[&vars(&["u", "x", "y"])], 2);
    }

    #[test]
    fn stats_agree_with_plain_enumeration() {
        let g = sample_graph();
        for text in [
            "(?x, p, ?y)",
            "((?x, p, ?y) OPT (?y, r, ?u)) UNION (?x, r, ?y)",
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
        ] {
            let f = forest(text);
            let (sols, stats) = enumerate_with_stats(&f, &g);
            assert_eq!(sols, enumerate_forest(&f, &g), "{text}");
            assert_eq!(stats.solutions, sols.len());
            assert!(stats.emitted >= stats.solutions);
            assert!(stats.hom_calls >= 1);
            assert!(stats.steps >= f.trees.len());
        }
    }

    /// The counters keep the meaning they had when counting walked the
    /// tree with the hom solver alone: `hom_calls` and `steps` count node
    /// visits, which do not depend on how a node's core is joined. The
    /// pinned values are those of that earlier walk; every join strategy
    /// must reproduce them.
    #[test]
    fn counters_are_pinned_across_join_strategies() {
        let g = sample_graph();
        // Four directed triangles, three of them extended by a q-edge.
        let tri = RdfGraph::from_strs([
            ("1", "r", "2"),
            ("2", "r", "3"),
            ("1", "r", "3"),
            ("3", "r", "4"),
            ("2", "r", "4"),
            ("4", "r", "1"),
            ("1", "r", "4"),
            ("3", "q", "x"),
            ("4", "q", "y"),
            ("4", "q", "z"),
        ]);
        // (emitted, solutions, hom_calls, steps)
        let cases = [
            ("(?x, p, ?y)", &g, (3, 3, 1, 1)),
            (
                "((?x, p, ?y) OPT (?y, r, ?u)) UNION (?x, r, ?y)",
                &g,
                (5, 5, 5, 5),
            ),
            (
                "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
                &g,
                (3, 3, 7, 7),
            ),
            (
                "(((?a, r, ?b) AND (?b, r, ?c)) AND (?a, r, ?c)) OPT (?c, q, ?w)",
                &tri,
                (7, 7, 5, 5),
            ),
        ];
        for (text, g, want) in cases {
            let f = forest(text);
            let (_, s) = enumerate_with_stats(&f, g);
            assert_eq!(
                (s.emitted, s.solutions, s.hom_calls, s.steps),
                want,
                "{text}"
            );
            for strategy in [
                JoinStrategy::Pairwise,
                JoinStrategy::Wco,
                JoinStrategy::Auto,
            ] {
                let (_, s) = enumerate_counted(&f, g, strategy, &QueryBudget::unlimited()).unwrap();
                assert_eq!(
                    (s.emitted, s.solutions, s.hom_calls, s.steps),
                    want,
                    "{strategy} on {text}"
                );
            }
        }
    }

    #[test]
    fn delay_covers_leading_and_trailing_work() {
        // A graph with no solutions: all steps are 'tail' delay.
        let f = forest("(?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "q", "b")]);
        let (sols, stats) = enumerate_with_stats(&f, &g);
        assert!(sols.is_empty());
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.max_delay_steps, stats.steps);
    }

    #[test]
    fn duplicate_solutions_across_trees_are_deduplicated() {
        let f = forest("(?x, p, ?y) UNION (?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "p", "b")]);
        let (sols, stats) = enumerate_with_stats(&f, &g);
        assert_eq!(sols.len(), 1);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.solutions, 1);
    }
}
