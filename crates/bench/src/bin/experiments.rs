//! The experiments harness: regenerates every figure/claim table of the
//! paper (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! recorded results).
//!
//! Usage: `cargo run -p wdsparql-bench --release --bin experiments -- [--smoke] [e1|e2|...|e18|all]`
//!
//! `--smoke` runs the full suite at reduced scale (smaller parameter
//! sweeps, shorter timing budgets) — every experiment and its
//! correctness assertions still execute, in seconds instead of minutes;
//! CI uses it to keep the harness exercised.

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use std::time::Duration;
use wdsparql_bench::{fmt_duration, time_median, time_once, Table};
use wdsparql_core::{check_forest, check_forest_pebble};
use wdsparql_hardness::{clique_family_parameter, has_k_clique, lemma3_witness, reduce_clique};
use wdsparql_hom::{
    core_of, ctw, find_hom_into_graph, is_core, maps_to, tw_gen, GenTGraph, TGraph, UGraph,
};
use wdsparql_pebble::{duplicator_wins, pebble_game};
use wdsparql_rdf::Mapping;
use wdsparql_tree::{Wdpf, ROOT};
use wdsparql_width::{
    branch_treewidth, domination_width, forest_subtrees, gtg, local_width, local_width_forest,
    ForestSubtree,
};
use wdsparql_workloads as wl;

/// Set once from `--smoke` before any experiment runs.
static SMOKE: OnceLock<bool> = OnceLock::new();

fn smoke() -> bool {
    *SMOKE.get().unwrap_or(&false)
}

/// Sweep upper bound: `full` normally, `small` under `--smoke`.
fn scale(full: usize, small: usize) -> usize {
    if smoke() {
        small
    } else {
        full
    }
}

/// Parameter list prefix: the whole list normally, the first `small`
/// entries under `--smoke`.
fn sweep<T>(xs: &[T], small: usize) -> &[T] {
    if smoke() {
        &xs[..xs.len().min(small)]
    } else {
        xs
    }
}

/// Timing budget, cut to a tenth (min 5ms) under `--smoke`.
fn budget_ms(ms: u64) -> Duration {
    Duration::from_millis(if smoke() { (ms / 10).max(5) } else { ms })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_flag = args.iter().any(|a| a == "--smoke");
    SMOKE.set(smoke_flag).expect("SMOKE set once");
    let which = args
        .iter()
        .map(String::as_str)
        .find(|a| !a.starts_with("--"))
        .unwrap_or("all");
    let all = which == "all";
    let run = |id: &str| all || which == id;

    if run("e1") {
        e1_figure1();
    }
    if run("e2") {
        e2_figure2_gtg();
    }
    if run("e3") {
        e3_figure3_domination();
    }
    if run("e4") {
        e4_frontier();
    }
    if run("e5") {
        e5_dichotomy_fk();
    }
    if run("e6") {
        e6_union_free();
    }
    if run("e7") {
        e7_pebble_scaling();
    }
    if run("e8") {
        e8_proposition3();
    }
    if run("e9") {
        e9_proposition5();
    }
    if run("e10") {
        e10_reduction();
    }
    if run("e11") {
        e11_lemma3();
    }
    if run("e12") {
        e12_ablation();
    }
    if run("e14") {
        e14_enumeration_delay();
    }
    if run("e15") {
        e15_recognition();
    }
    if run("e16") {
        e16_projection_hardness();
    }
    if run("e17") {
        e17_containment();
    }
    if run("e18") {
        e18_wcoj();
    }
}

/// E1 — Figure 1 / Example 3: the widths of (S,X) and (S',X).
fn e1_figure1() {
    let mut t = Table::new(
        "E1  Figure 1 / Example 3 — tw and ctw of (S,X), (S',X)",
        &[
            "k",
            "ctw(S,X) [paper: k-1]",
            "is_core(S,X)",
            "tw(S',X) [k-1]",
            "ctw(S',X) [1]",
            "core(S')=C'",
        ],
    );
    for k in 2..=scale(6, 3) {
        let s = wl::example3_s(k);
        let sp = wl::example3_s_prime(k);
        let c = core_of(&sp);
        t.row(&[
            &k,
            &ctw(&s).width,
            &is_core(&s),
            &tw_gen(&sp).width,
            &ctw(&sp).width,
            &(c.s == wl::example3_c_prime()),
        ]);
    }
    println!("{}", t.render());
}

/// E2 — Figure 2 / Example 4: the GtG structure of F_k.
fn e2_figure2_gtg() {
    let mut t = Table::new(
        "E2  Figure 2 / Example 4 — subtrees of F_k with non-empty GtG (paper: exactly 5)",
        &[
            "k",
            "subtrees",
            "non-empty GtG",
            "|GtG(T1[r1])|",
            "ctws of GtG(T1[r1])",
        ],
    );
    for k in 2..=scale(5, 3) {
        let f = wl::fk_forest(k);
        let subtrees = forest_subtrees(&f);
        let nonempty = subtrees.iter().filter(|st| !gtg(&f, st).is_empty()).count();
        let root = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        let elements = gtg(&f, &root);
        let mut widths: Vec<usize> = elements.iter().map(|e| ctw(&e.graph).width).collect();
        widths.sort();
        let widths_s = format!("{widths:?}");
        t.row(&[&k, &subtrees.len(), &nonempty, &elements.len(), &widths_s]);
    }
    println!("{}", t.render());
}

/// E3 — Figure 3 / Example 5: domination inside GtG(T1\[r1\]) and dw(F_k).
fn e3_figure3_domination() {
    let mut t = Table::new(
        "E3  Figure 3 / Example 5 — (S∆1) → (S∆2) and dw(F_k) = 1",
        &["k", "ctw(S∆1)", "ctw(S∆2)", "S∆1→S∆2", "S∆2→S∆1", "dw(F_k)"],
    );
    for k in 2..=scale(5, 3) {
        let f = wl::fk_forest(k);
        let root = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        let elements = gtg(&f, &root);
        let lo = elements.iter().min_by_key(|e| ctw(&e.graph).width).unwrap();
        let hi = elements.iter().max_by_key(|e| ctw(&e.graph).width).unwrap();
        t.row(&[
            &k,
            &ctw(&lo.graph).width,
            &ctw(&hi.graph).width,
            &maps_to(&lo.graph, &hi.graph),
            &maps_to(&hi.graph, &lo.graph),
            &domination_width(&f),
        ]);
    }
    println!("{}", t.render());
}

/// E4 — the tractability frontier across families (end of §3.1/§3.2).
fn e4_frontier() {
    let mut t = Table::new(
        "E4  The frontier: dw vs bw vs local width across families",
        &[
            "family",
            "dw",
            "bw",
            "local",
            "verdict (Theorem 3 / Cor. 1)",
        ],
    );
    for k in 2..=scale(4, 3) {
        let f = wl::fk_forest(k);
        t.row(&[
            &format!("F_{k}"),
            &domination_width(&f),
            &"-",
            &local_width_forest(&f),
            &"PTIME (dominated; not locally tractable)",
        ]);
    }
    for k in 2..=scale(4, 3) {
        let tr = wl::tprime_tree(k);
        let bw = branch_treewidth(&tr);
        let lw = local_width(&tr);
        let dw = domination_width(&Wdpf::new(vec![tr]));
        t.row(&[
            &format!("T'_{k}"),
            &dw,
            &bw,
            &lw,
            &"PTIME (bw = 1; not locally tractable)",
        ]);
    }
    for k in 2..=scale(4, 3) {
        let tr = wl::clique_child_tree(k);
        let bw = branch_treewidth(&tr);
        let lw = local_width(&tr);
        let dw = domination_width(&Wdpf::new(vec![tr]));
        t.row(&[
            &format!("Q_{k}"),
            &dw,
            &bw,
            &lw,
            &"W[1]-hard as a class (width grows)",
        ]);
    }
    println!("{}", t.render());
}

/// E5 — Theorem 1 dichotomy on {F_k}: naive vs pebble runtimes.
fn e5_dichotomy_fk() {
    let mut t = Table::new(
        "E5  Theorem 1 on {F_k} (positive instances): naive (coNP) vs pebble (PTIME, k=dw=1)",
        &["k", "|G|", "naive", "pebble(k=1)", "agree", "speedup"],
    );
    let budget = budget_ms(300);
    for k in 3..=scale(6, 4) {
        let n = 4 * (k - 1);
        let inst = wl::fk_instance(k, n);
        let (naive_ans, _) = time_once(|| check_forest(&inst.forest, &inst.graph, &inst.mu));
        let naive_t = time_median(budget, || check_forest(&inst.forest, &inst.graph, &inst.mu));
        let peb_ans = check_forest_pebble(&inst.forest, &inst.graph, &inst.mu, 1);
        let peb_t = time_median(budget, || {
            check_forest_pebble(&inst.forest, &inst.graph, &inst.mu, 1)
        });
        let speedup = naive_t.as_secs_f64() / peb_t.as_secs_f64().max(1e-9);
        t.row(&[
            &k,
            &inst.graph.len(),
            &fmt_duration(naive_t),
            &fmt_duration(peb_t),
            &(naive_ans == peb_ans && naive_ans == inst.expected),
            &format!("{speedup:.1}x"),
        ]);
    }
    println!("{}", t.render());
    println!("(expected shape: naive grows superpolynomially in k, pebble stays flat)\n");
}

/// E6 — Corollary 1: UNION-free families, tractable vs intractable.
fn e6_union_free() {
    let mut t = Table::new(
        "E6  Corollary 1 (UNION-free): bounded bw (T'_k) vs unbounded bw (Q_k), naive evaluator",
        &[
            "k",
            "T'_k naive",
            "Q_k naive",
            "Q_k pebble(k-1) [exact]",
            "Q_k answers agree",
        ],
    );
    let budget = budget_ms(300);
    for k in 3..=scale(5, 4) {
        // The pebble game state space is (n*d)^k: keep the adversary small
        // enough that the k = 5 row (4 pebbles) stays tractable to *run*
        // while still showing the growth.
        let n = 3 * (k - 1);
        let tp = wl::tprime_instance(k, n);
        let tp_t = time_median(budget, || check_forest(&tp.forest, &tp.graph, &tp.mu));
        let q = wl::clique_instance(k, n);
        let (q_naive, _) = time_once(|| check_forest(&q.forest, &q.graph, &q.mu));
        let q_t = time_median(budget, || check_forest(&q.forest, &q.graph, &q.mu));
        let q_peb = check_forest_pebble(&q.forest, &q.graph, &q.mu, k - 1);
        let q_peb_t = time_median(budget, || {
            check_forest_pebble(&q.forest, &q.graph, &q.mu, k - 1)
        });
        t.row(&[
            &k,
            &fmt_duration(tp_t),
            &fmt_duration(q_t),
            &fmt_duration(q_peb_t),
            &(q_naive == q.expected && q_peb == q.expected),
        ]);
    }
    println!("{}", t.render());
    println!("(expected shape: T'_k flat; both Q_k columns grow with k — no algorithm is\n polynomial on an unbounded-width class, matching Theorem 2)\n");
}

/// E7 — Proposition 2: pebble game cost scaling in |dom(G)| and k.
fn e7_pebble_scaling() {
    // Headers follow the sweep — under --smoke it is truncated, and a
    // skipped column must say so rather than promise a measurement.
    let all_ns = [9usize, 12, 15, 18];
    let ns = sweep(&all_ns, 2);
    let n_cols: Vec<String> = all_ns
        .iter()
        .map(|n| {
            if ns.contains(n) {
                format!("n={n}")
            } else {
                format!("n={n} (skipped)")
            }
        })
        .collect();
    let assignments_col = format!("assignments@{}", ns.last().expect("sweep is non-empty"));
    let mut t = Table::new(
        "E7  Proposition 2 — pebble game cost vs |dom(G)| and k (polynomial for fixed k)",
        &[
            "k",
            &n_cols[0],
            &n_cols[1],
            &n_cols[2],
            &n_cols[3],
            &assignments_col,
        ],
    );
    let budget = budget_ms(250);
    // A fixed query: root ∪ K4 clique child (4 existential variables).
    let tree = wl::clique_child_tree(4);
    let child = tree.children(ROOT)[0];
    let pat = tree.pat(child).union(tree.pat(ROOT));
    let x: Vec<_> = pat
        .vars()
        .into_iter()
        .filter(|v| ["x", "y"].contains(&v.name()))
        .collect();
    let src = GenTGraph::new(pat, x);
    for k in 2..=scale(4, 3) {
        let mut cells: Vec<String> = Vec::new();
        let mut last_assignments = 0;
        for &n in ns {
            let inst = wl::clique_instance(4, n);
            let mu = Mapping::from_strs([("x", "a"), ("y", "b")]);
            let d = time_median(budget, || duplicator_wins(&src, &inst.graph, &mu, k));
            let (_, stats) = pebble_game(&src, &inst.graph, &mu, k);
            last_assignments = stats.initial_assignments;
            cells.push(fmt_duration(d));
        }
        cells.resize(4, "-".into());
        t.row(&[
            &k,
            &cells[0],
            &cells[1],
            &cells[2],
            &cells[3],
            &last_assignments,
        ]);
    }
    println!("{}", t.render());
    println!("(expected shape: each row polynomial in n; cost jumps with k as d^k)\n");
}

/// E8 — Proposition 3: →k coincides with → when ctw ≤ k−1.
fn e8_proposition3() {
    let mut t = Table::new(
        "E8  Proposition 3 — agreement of →µ_k with →µ (ctw ≤ k−1: must be 100%)",
        &[
            "query ctw",
            "k",
            "trials",
            "agreements",
            "relaxation gaps (ctw > k−1)",
        ],
    );
    let mut lcg: u64 = 0xABCDEF12345;
    let mut next = move |m: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % m
    };
    let cases: Vec<(&str, GenTGraph, usize, bool)> = vec![
        ("1 (path)", path_query(3), 2, true),
        ("2 (triangle)", triangle_query(), 2, false),
        ("2 (triangle)", triangle_query(), 3, true),
    ];
    for (label, src, k, exact) in cases {
        let trials = scale(60, 12);
        let mut agree = 0;
        let mut gaps = 0;
        for _ in 0..trials {
            let n_edges = 4 + next(8) as usize;
            let g = wdsparql_rdf::RdfGraph::from_triples((0..n_edges).map(|_| {
                wdsparql_rdf::Triple::from_strs(
                    &format!("v{}", next(5)),
                    "r",
                    &format!("v{}", next(5)),
                )
            }));
            let hom = find_hom_into_graph(&src, &g, &Mapping::new()).is_some();
            let peb = duplicator_wins(&src, &g, &Mapping::new(), k);
            if hom == peb {
                agree += 1;
            } else {
                gaps += 1;
                assert!(peb && !hom, "the relaxation can only over-approximate");
            }
        }
        if exact {
            assert_eq!(agree, trials, "Proposition 3 violated");
        }
        t.row(&[&label, &k, &trials, &agree, &gaps]);
    }
    println!("{}", t.render());
}

fn path_query(len: usize) -> GenTGraph {
    let pats = (0..len).map(|i| {
        wdsparql_rdf::tp(
            wdsparql_rdf::var(&format!("e8p{i}")),
            wdsparql_rdf::iri("r"),
            wdsparql_rdf::var(&format!("e8p{}", i + 1)),
        )
    });
    GenTGraph::new(TGraph::from_patterns(pats), [])
}

fn triangle_query() -> GenTGraph {
    let v = wdsparql_rdf::var;
    GenTGraph::new(
        TGraph::from_patterns([
            wdsparql_rdf::tp(v("e8a"), wdsparql_rdf::iri("r"), v("e8b")),
            wdsparql_rdf::tp(v("e8b"), wdsparql_rdf::iri("r"), v("e8c")),
            wdsparql_rdf::tp(v("e8c"), wdsparql_rdf::iri("r"), v("e8a")),
        ]),
        [],
    )
}

/// E9 — Proposition 5: dw = bw on random UNION-free trees.
fn e9_proposition5() {
    let mut t = Table::new(
        "E9  Proposition 5 — dw(P) = bw(P) on random UNION-free wdPTs",
        &["seeds", "equalities", "max dw seen", "max nodes"],
    );
    let mut equal = 0;
    let mut max_dw = 0;
    let mut max_nodes = 0;
    let seeds = scale(30, 8) as u64;
    for seed in 0..seeds {
        let tree = wl::random_wdpt(wl::RandomTreeParams::default(), seed);
        max_nodes = max_nodes.max(tree.len());
        let bw = branch_treewidth(&tree);
        let dw = domination_width(&Wdpf::new(vec![tree]));
        assert_eq!(dw, bw, "Proposition 5 violated at seed {seed}");
        equal += 1;
        max_dw = max_dw.max(dw);
    }
    t.row(&[&seeds, &equal, &max_dw, &max_nodes]);
    println!("{}", t.render());
}

/// E10 — the §4.2 reduction, end to end.
fn e10_reduction() {
    let mut t = Table::new(
        "E10  §4.2 reduction p-CLIQUE → p-co-wdEVAL (k = 2): H has k-clique ⟺ µ ∉ ⟦P⟧_G",
        &["H", "|B|", "|G|", "build", "k-clique", "µ∈⟦P⟧", "agree"],
    );
    let k = 2;
    let m = clique_family_parameter(k).max(2);
    let mut cases: Vec<(String, UGraph)> = vec![
        ("P4".into(), UGraph::path(4)),
        ("C5".into(), UGraph::cycle(5)),
        ("K4".into(), UGraph::complete(4)),
        ("K6".into(), UGraph::complete(6)),
        ("star+edge".into(), {
            let mut g = UGraph::new(6);
            for i in 1..6 {
                g.add_edge(0, i);
            }
            g
        }),
    ];
    if smoke() {
        cases.truncate(3);
    }
    for (label, h) in cases {
        let forest = Wdpf::new(vec![wl::clique_child_tree(m)]);
        let (inst, build) = time_once(|| reduce_clique(forest, &h, k, m - 1).unwrap());
        let clique = has_k_clique(&h, k);
        let member = check_forest(&inst.forest, &inst.graph, &inst.mu);
        t.row(&[
            &label,
            &inst.lemma2.b.s.len(),
            &inst.graph.len(),
            &fmt_duration(build),
            &clique,
            &member,
            &(clique != member),
        ]);
        assert_eq!(clique, !member, "reduction correctness");
    }
    println!("{}", t.render());

    // k = 3 at the t-graph level: Lemma 2 condition (3) directly (the
    // frozen-graph evaluation is exercised at k = 2 above). The decider is
    // the slot-respecting search, exact by the core-automorphism argument
    // (see hardness::lemma2::slot_respecting_hom_exists) — the generic
    // refutation is itself an NP-hard instance by design.
    let mut t3 = Table::new(
        "E10b Lemma 2 condition (3) at k = 3: H has triangle ⟺ (S,X) → (B,X)",
        &[
            "H",
            "|B|",
            "build+check",
            "triangle",
            "(S,X)→(B,X)",
            "agree",
        ],
    );
    let s = clique_source_for(9);
    let mut cases3: Vec<(String, UGraph)> = vec![
        ("C5 (triangle-free)".into(), UGraph::cycle(5)),
        ("Petersen-ish C7".into(), UGraph::cycle(7)),
        ("C5+chord".into(), {
            let mut g = UGraph::cycle(5);
            g.add_edge(0, 2);
            g
        }),
        ("K4".into(), UGraph::complete(4)),
        ("grid 3x3".into(), UGraph::grid(3, 3)),
    ];
    if smoke() {
        cases3.truncate(3);
    }
    for (label, h) in cases3 {
        let ((out, hom), t_build) = time_once(|| {
            let out = wdsparql_hardness::lemma2(&s, &h, 3).unwrap();
            let hom = wdsparql_hardness::slot_respecting_hom_exists(&out);
            (out, hom)
        });
        let tri = has_k_clique(&h, 3);
        t3.row(&[
            &label,
            &out.b.s.len(),
            &fmt_duration(t_build),
            &tri,
            &hom,
            &(tri == hom),
        ]);
        assert_eq!(tri, hom, "Lemma 2 condition (3)");
    }
    println!("{}", t3.render());
}

fn clique_source_for(m: usize) -> GenTGraph {
    let tree = wl::clique_child_tree(m);
    let child = tree.children(ROOT)[0];
    let pat = tree.pat(ROOT).union(tree.pat(child));
    let x: Vec<_> = pat
        .vars()
        .into_iter()
        .filter(|v| ["x", "y"].contains(&v.name()))
        .collect();
    GenTGraph::new(pat, x)
}

/// E11 — Lemma 3 witnesses on unbounded-width forests.
fn e11_lemma3() {
    let mut t = Table::new(
        "E11  Lemma 3 — witness search: ctw ≥ k and hom-minimality",
        &[
            "family",
            "threshold k",
            "witness found",
            "witness ctw",
            "minimality verified",
        ],
    );
    for m in 3..=scale(5, 4) {
        let f = Wdpf::new(vec![wl::clique_child_tree(m)]);
        let threshold = m - 1;
        match lemma3_witness(&f, threshold) {
            Some(w) => {
                let elements = gtg(&f, &w.subtree);
                let minimal = elements.iter().all(|e| {
                    !maps_to(&e.graph, &w.element.graph) || maps_to(&w.element.graph, &e.graph)
                });
                t.row(&[&format!("Q_{m}"), &threshold, &true, &w.ctw, &minimal]);
            }
            None => t.row(&[&format!("Q_{m}"), &threshold, &false, &0usize, &false]),
        }
    }
    // Bounded family: no witness above its width.
    let f = wl::fk_forest(4);
    let none = lemma3_witness(&f, 2).is_none();
    t.row(&[&"F_4", &2usize, &!none, &0usize, &none]);
    println!("{}", t.render());
}

/// E12 — ablation: pebble algorithm below the domination width.
fn e12_ablation() {
    let mut t = Table::new(
        "E12  Ablation — pebble evaluator below dw: soundness holds, completeness fails",
        &[
            "family",
            "dw",
            "k used",
            "false accepts",
            "false rejects",
            "trials",
        ],
    );
    for &m in sweep(&[3usize, 4], 1) {
        let dw = m - 1;
        let mut false_accepts = 0;
        let mut false_rejects = 0;
        let mut trials = 0;
        for &n in sweep(&[6usize, 8, 10], 2) {
            let inst = wl::clique_instance(m, n);
            let truth = check_forest(&inst.forest, &inst.graph, &inst.mu);
            let approx = check_forest_pebble(&inst.forest, &inst.graph, &inst.mu, 1);
            trials += 1;
            if approx && !truth {
                false_accepts += 1;
            }
            if !approx && truth {
                false_rejects += 1;
            }
        }
        t.row(&[
            &format!("Q_{m}"),
            &dw,
            &1usize,
            &false_accepts,
            &false_rejects,
            &trials,
        ]);
        assert_eq!(false_accepts, 0, "soundness is unconditional");
    }
    println!("{}", t.render());
    println!(
        "(false rejects are expected: below dw the pebble test loses completeness;\n \
         false accepts would contradict the soundness half of Theorem 1)\n"
    );
}

/// E14 — enumeration with work counters: per-solution delay on the
/// bounded-width chain family vs the clique-child family (§5's
/// enumeration variant).
fn e14_enumeration_delay() {
    use wdsparql_core::enumerate_with_stats;
    let mut t = Table::new(
        "E14  Enumeration — solutions, work and max per-solution delay",
        &[
            "family",
            "solutions",
            "emitted",
            "hom calls",
            "steps",
            "max delay",
            "time",
        ],
    );
    // Bounded side: chains of depth d over a 2-way branching layered graph.
    for &depth in sweep(&[2usize, 3, 4], 2) {
        let tree = wl::chain_tree(depth);
        let mut g = wdsparql_rdf::RdfGraph::new();
        for i in 0..depth {
            for j in 0..2usize {
                for j2 in 0..2usize {
                    g.insert(wdsparql_rdf::Triple::from_strs(
                        &format!("l{i}_{j}"),
                        &format!("p{i}"),
                        &format!("l{}_{j2}", i + 1),
                    ));
                }
            }
        }
        let f = Wdpf::new(vec![tree]);
        let ((sols, stats), d) = time_once(|| enumerate_with_stats(&f, &g));
        t.row(&[
            &format!("Chain_{depth} / layered(2)"),
            &sols.len(),
            &stats.emitted,
            &stats.hom_calls,
            &stats.steps,
            &stats.max_delay_steps,
            &fmt_duration(d),
        ]);
    }
    // Unbounded side: Q_k against the Turán adversary — few solutions,
    // most of the work is one long refutation (delay ≈ all steps).
    for &k in sweep(&[3usize, 4], 1) {
        let inst = wl::clique_instance(k, 4 * (k - 1));
        let ((sols, stats), d) = time_once(|| enumerate_with_stats(&inst.forest, &inst.graph));
        t.row(&[
            &inst.label,
            &sols.len(),
            &stats.emitted,
            &stats.hom_calls,
            &stats.steps,
            &stats.max_delay_steps,
            &fmt_duration(d),
        ]);
    }
    println!("{}", t.render());
}

/// E15 — the recognition problem (paper §5 conclusions): decide
/// `dw(P) ≤ k` / `bw(P) ≤ k` with certificates, and verify them.
fn e15_recognition() {
    use wdsparql_width::{recognize_bw, recognize_dw, verify_dw_certificate, DwCertificate};
    let mut t = Table::new(
        "E15  Recognition — dw(P) ≤ k / bw(P) ≤ k with certificates",
        &["family", "measure", "k", "holds", "certificate", "time"],
    );
    for k in 2..=scale(4, 3) {
        let f = wl::fk_forest(k);
        let (cert, d) = time_once(|| recognize_dw(&f, 1));
        let (holds, detail) = match &cert {
            DwCertificate::Holds(entries) => (
                true,
                format!(
                    "verified={} ({} subtrees)",
                    verify_dw_certificate(&f, 1, entries),
                    entries.len()
                ),
            ),
            DwCertificate::Violated(v) => (false, format!("ctw {} element", v.element_ctw)),
        };
        t.row(&[
            &format!("F_{k}"),
            &"dw",
            &1usize,
            &holds,
            &detail,
            &fmt_duration(d),
        ]);
    }
    for &m in sweep(&[3usize, 4, 5], 2) {
        let q = wl::clique_child_tree(m);
        // At m − 2: violated with a ctw = m − 1 witness.
        let (cert, d) = time_once(|| recognize_bw(&q, m - 2));
        let detail = match &cert {
            wdsparql_width::BwCertificate::Violated(v) => {
                format!("node {} has ctw {}", v.node.0, v.ctw)
            }
            wdsparql_width::BwCertificate::Holds(_) => "unexpected".into(),
        };
        t.row(&[
            &format!("Q_{m}"),
            &"bw",
            &(m - 2),
            &cert.holds(),
            &detail,
            &fmt_duration(d),
        ]);
    }
    for &(r, c) in sweep(&[(2usize, 2usize), (2, 3), (3, 3)], 2) {
        let g = wl::grid_child_tree(r, c);
        let want = r.min(c);
        let (cert, d) = time_once(|| recognize_bw(&g, want));
        t.row(&[
            &format!("Grid_{r}x{c}"),
            &"bw",
            &want,
            &cert.holds(),
            &"exact threshold",
            &fmt_duration(d),
        ]);
    }
    println!("{}", t.render());
}

/// E16 — projection breaks the dichotomy (§5): the family R_k has dw = 1
/// (PTIME without projection, trivially) but its projected membership
/// problem embeds k-CLIQUE.
fn e16_projection_hardness() {
    use wdsparql_project::{anchored_graph, check_projected, clique_projection_query};
    let mut t = Table::new(
        "E16  Projection — R_k: dw = 1, yet SELECT-membership embeds k-CLIQUE",
        &[
            "k",
            "dw(R_k)",
            "unprojected check",
            "projected (K_k present)",
            "projected (Turán, no K_k)",
            "answers (pos/neg)",
        ],
    );
    for &k in sweep(&[3usize, 4, 5], 2) {
        let q = clique_projection_query(k);
        let dw = domination_width(q.forest());
        // Tractable side: the full mapping binds the whole clique.
        let (gpos, hub) = anchored_graph(&wl::turan_graph(3 * k, k, "r"), "hub");
        let mut full = Mapping::new();
        full.bind(wdsparql_rdf::Variable::new("u"), hub);
        for i in 1..=k {
            // One vertex per Turán class forms a K_k: t0, t1, ..., t(k-1).
            full.bind(
                wdsparql_rdf::Variable::new(&format!("c{i}")),
                wdsparql_rdf::Iri::new(&format!("t{}", i - 1)),
            );
        }
        let d_full = time_median(budget_ms(30), || check_forest(q.forest(), &gpos, &full));
        assert!(check_forest(q.forest(), &gpos, &full));
        // Hard side: the projected mapping hides the clique.
        let mu = {
            let mut m = Mapping::new();
            m.bind(wdsparql_rdf::Variable::new("u"), hub);
            m
        };
        let (pos, d_pos) = time_once(|| check_projected(&q, &gpos, &mu));
        let (gneg, hub_n) = anchored_graph(&wl::turan_graph(4 * (k - 1), k - 1, "r"), "hub");
        let mu_n = {
            let mut m = Mapping::new();
            m.bind(wdsparql_rdf::Variable::new("u"), hub_n);
            m
        };
        let (neg, d_neg) = time_once(|| check_projected(&q, &gneg, &mu_n));
        t.row(&[
            &k,
            &dw,
            &fmt_duration(d_full),
            &fmt_duration(d_pos),
            &fmt_duration(d_neg),
            &format!("{pos}/{neg}"),
        ]);
        assert!(pos && !neg, "k-CLIQUE encoding must answer correctly");
    }
    println!("{}", t.render());
    println!(
        "(the 'projected (Turán)' column is the k-clique refutation: it grows\n \
         superpolynomially in k while dw stays 1 — with SELECT, bounded domination\n \
         width no longer implies tractability, as §5 states)\n"
    );
}

/// E17 — containment static analysis: three-valued verdicts on a battery
/// of pattern pairs (§3.2's optimisation-side contrast).
fn e17_containment() {
    use wdsparql_algebra::parse_pattern;
    use wdsparql_contain::{decide_containment, SearchBudget, Verdict};
    let mut t = Table::new(
        "E17  Containment — verdicts on pattern pairs (sound both ways)",
        &["P1", "P2", "P1 ⊆ P2", "P2 ⊆ P1", "time"],
    );
    let pairs = [
        ("(?x, p, ?y) AND (?y, q, ?z)", "(?y, q, ?z) AND (?x, p, ?y)"),
        ("(?x, p, ?y)", "(?x, p, ?y) OPT (?y, q, ?z)"),
        ("(?x, p, ?y) AND (?y, q, ?z)", "(?x, p, ?y) OPT (?y, q, ?z)"),
        (
            "(?x, p, ?y) OPT (?y, q, ?z)",
            "(?x, p, ?y) OPT ((?y, q, ?z) OPT (?z, r, ?w))",
        ),
        ("(?x, p, ?y)", "(?x, p, ?y) UNION (?x, q, ?y)"),
    ];
    let budget = SearchBudget::default();
    let show = |v: &Verdict| match v {
        Verdict::Contained => "yes".to_string(),
        Verdict::NotContained(_) => "no (witness)".to_string(),
        Verdict::Unknown => "unknown".to_string(),
    };
    for (a, b) in pairs {
        let f1 = Wdpf::from_pattern(&parse_pattern(a).unwrap()).unwrap();
        let f2 = Wdpf::from_pattern(&parse_pattern(b).unwrap()).unwrap();
        let (fwd, d1) = time_once(|| decide_containment(&f1, &f2, &budget));
        let (bwd, d2) = time_once(|| decide_containment(&f2, &f1, &budget));
        if let Verdict::NotContained(ce) = &fwd {
            assert!(ce.verify(&f1, &f2), "counterexample must verify");
        }
        if let Verdict::NotContained(ce) = &bwd {
            assert!(ce.verify(&f2, &f1), "counterexample must verify");
        }
        t.row(&[&a, &b, &show(&fwd), &show(&bwd), &fmt_duration(d1 + d2)]);
    }
    println!("{}", t.render());
}

/// E18 — worst-case-optimal joins: cyclic query cores (triangle,
/// 4-clique) on the triple store's sorted permutations, the leapfrog
/// join against the pairwise pipeline, and `JoinStrategy::Auto` routing
/// each core to the right operator. Every row asserts the two
/// strategies produce identical solution sets, and that Auto resolves
/// cyclic cores to `wco` while the acyclic chain stays `pairwise`.
fn e18_wcoj() {
    use wdsparql_rdf::term::var;
    use wdsparql_rdf::{tp, Iri, TriplePattern};
    use wdsparql_store::{
        bgp_is_cyclic, eval_bgp_with_strategy, resolve_strategy, JoinStrategy, TripleStore,
    };
    let (nodes, draws) = (scale(3_000, 200), scale(40_000, 1_500));
    let store = TripleStore::from_triples(wl::triple_stream(nodes, draws, 2, 18));
    let snap = store.read_snapshot();
    let p0 = |s: &str, o: &str| tp(var(s), Iri::new("p0"), var(o));
    let cores: [(&str, Vec<TriplePattern>); 3] = [
        ("triangle", vec![p0("x", "y"), p0("y", "z"), p0("x", "z")]),
        (
            "4-clique",
            vec![
                p0("w", "x"),
                p0("w", "y"),
                p0("w", "z"),
                p0("x", "y"),
                p0("x", "z"),
                p0("y", "z"),
            ],
        ),
        ("chain", vec![p0("x", "y"), p0("y", "z")]),
    ];
    let mut t = Table::new(
        "E18  Worst-case-optimal join — cyclic cores route through the leapfrog operator",
        &[
            "core",
            "cyclic",
            "Auto picks",
            "solutions",
            "pairwise",
            "wco",
        ],
    );
    for (name, pats) in cores {
        let cyclic = bgp_is_cyclic(&pats);
        let picked = resolve_strategy(snap.graph(), &pats, JoinStrategy::Auto);
        assert_eq!(
            picked,
            if cyclic {
                JoinStrategy::Wco
            } else {
                JoinStrategy::Pairwise
            },
            "{name}: Auto must follow the core's shape"
        );
        let run = |strategy| eval_bgp_with_strategy(snap.graph(), &pats, strategy);
        let mut want = run(JoinStrategy::Pairwise);
        want.sort();
        let mut got = run(JoinStrategy::Wco);
        got.sort();
        assert_eq!(got, want, "{name}: strategies must agree");
        let d_pair = time_median(budget_ms(400), || run(JoinStrategy::Pairwise).len());
        let d_wco = time_median(budget_ms(400), || run(JoinStrategy::Wco).len());
        t.row(&[
            &name,
            &cyclic,
            &picked,
            &want.len(),
            &fmt_duration(d_pair),
            &fmt_duration(d_wco),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(cyclic cores blow up the pairwise pipeline's intermediates exactly as the\n \
         AGM bound predicts; the leapfrog join intersects the sorted permutations\n \
         variable-at-a-time instead — `JoinStrategy::Auto` routes per core)\n"
    );
}
