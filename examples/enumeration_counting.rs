//! Enumeration and counting (§5's other evaluation variants): full
//! solution sets, per-domain histograms, work counters and per-solution
//! delay, plus recognition certificates for the width measures.
//!
//! Run with: `cargo run --release --example enumeration_counting`

use wdsparql::core::{count_by_domain, count_forest, enumerate_with_stats};
use wdsparql::width::{recognize_bw, recognize_dw, BwCertificate, DwCertificate};
use wdsparql::workloads::{clique_child_tree, fk_forest, social_network};
use wdsparql::Query;

fn main() {
    // A social network where profile data is optional — the natural home
    // of OPT queries.
    let g = social_network(40, 7);
    println!("Social network: {} triples.", g.len());

    let q = Query::parse("{ ?x knows ?y OPTIONAL { ?y email ?e } OPTIONAL { ?y city ?c } }")
        .expect("well-designed");
    println!("\nQuery: {q}");

    // 1. Counting, overall and by solution domain: which OPT extensions
    //    actually fire on this data?
    let total = count_forest(q.forest(), &g);
    println!("\nTotal solutions: {total}");
    println!("By domain (which OPTIONALs matched):");
    for (domain, count) in count_by_domain(q.forest(), &g) {
        let names: Vec<String> = domain.iter().map(|v| v.to_string()).collect();
        println!("  {{{}}}: {count}", names.join(", "));
    }

    // 2. Instrumented enumeration: how much work, and what is the longest
    //    gap between consecutive solutions?
    let (sols, stats) = enumerate_with_stats(q.forest(), &g);
    assert_eq!(sols.len(), total);
    println!(
        "\nEnumeration: {} emitted / {} distinct, {} node-core joins, \
         {} steps, max delay {} steps",
        stats.emitted, stats.solutions, stats.hom_calls, stats.steps, stats.max_delay_steps
    );

    // 3. Recognition with certificates: this query is width-1 (tractable
    //    class), and the certificate can be re-verified independently.
    match recognize_dw(q.forest(), 1) {
        DwCertificate::Holds(entries) => {
            println!(
                "\ndw ≤ 1 recognised: {} subtree domination assignments, verified = {}",
                entries.len(),
                wdsparql::width::verify_dw_certificate(q.forest(), 1, &entries)
            );
        }
        DwCertificate::Violated(v) => {
            println!("\nunexpected: dw > 1 with witness ctw {}", v.element_ctw)
        }
    }

    // 4. The same machinery on the paper's families: F_k is recognised at
    //    width 1 for every k; the clique-child family Q_5 is rejected at 3
    //    with the violating node named.
    for k in 2..=4 {
        assert!(recognize_dw(&fk_forest(k), 1).holds());
    }
    println!("F_2, F_3, F_4 all carry dw ≤ 1 certificates (Example 5).");
    match recognize_bw(&clique_child_tree(5), 3) {
        BwCertificate::Violated(v) => println!(
            "Q_5 rejected at bw ≤ 3: node {} has branch ctw {} (= k − 1).",
            v.node.0, v.ctw
        ),
        BwCertificate::Holds(_) => println!("unexpected: Q_5 accepted at 3"),
    }
}
