//! Self-test of the benchmark at tiny scale: every workload reports
//! every metric it declares, its checks pass on correct answers, and a
//! deliberately wrong expected answer shows up as failed ops.

use std::path::PathBuf;
use wdsparql_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use wdsparql_perfbench::{run, Config, Report, Scale};

fn tiny(workload: &str, trace: bool, poison: bool) -> Report {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{trace}-{poison}"));
    let cfg = Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        poison,
        work_dir,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names(r: &Report) -> Vec<&str> {
    r.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let r = tiny(w.name, false, false);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.notes);
        assert!(r.attempted > 0);
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&r), want, "{}", w.name);
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        let line = r.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for w in WORKLOADS {
        let r = tiny(w.name, true, false);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.notes);
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&r), want, "{}", w.name);
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{}: {}",
                w.name,
                m.name
            );
        }
        assert!(r.metric("obs.trace_overhead_ratio").unwrap() > 0.0);
        assert!(r
            .trace_json
            .as_ref()
            .is_some_and(|t| t.contains("\"op\": ")));
    }
    // The layers each workload is built to exercise do show work.
    let load = tiny("load_eval", true, false);
    for m in [
        "rdf.parse_ntriples_ms",
        "core.evaluate_ms",
        "core.count_by_domain_ms",
        "store.bulk_load_ms",
    ] {
        assert!(load.metric(m).unwrap() > 0.0, "load_eval: {m}");
    }
    let frontier = tiny("frontier_check", true, false);
    for m in [
        "width.dw_ms",
        "core.check_pebble_ms",
        "core.check_naive_ms",
        "pebble.initial_assignments",
    ] {
        assert!(frontier.metric(m).unwrap() > 0.0, "frontier_check: {m}");
    }
    assert_eq!(frontier.metric("store.bulk_load_ms"), Some(0.0));
    let serve = tiny("serve_mixed", true, false);
    for m in [
        "store.query_ms",
        "store.open_ms",
        "store.fsync_per_write",
        "store.bulk_load_ms",
    ] {
        assert!(serve.metric(m).unwrap() > 0.0, "serve_mixed: {m}");
    }
    assert_eq!(serve.metric("rdf.parse_ntriples_ms"), Some(0.0));
}

#[test]
fn a_wrong_expected_answer_is_counted_as_failed() {
    for w in WORKLOADS {
        let r = tiny(w.name, true, true);
        assert!(
            r.failed > 0,
            "{}: the poisoned answer went unnoticed",
            w.name
        );
        assert!(r.metric("failed_op_ratio").unwrap() > 0.0, "{}", w.name);
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}

/// `BENCHMARK.json` declares exactly the catalog's workloads and
/// metrics, with the same units, directions and bounds.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(w.why.len() <= 200, "{}: why too long", w.name);
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(text.contains(&entry), "missing {entry}");
    }
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        );
        assert!(text.contains(&entry), "missing {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "missing {entry}");
    }
    let declared = text.matches("\"name\": ").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
