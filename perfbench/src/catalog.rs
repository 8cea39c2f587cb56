//! The benchmark's metric catalog: what `BENCHMARK.json` declares, plus
//! what the fixed schema of that file has no room for — for each
//! per-layer metric, the end-to-end figures it should move (declared
//! tails, printed medians) and on which workload. A test keeps the two
//! in step.
//!
//! Every workload has two op kinds, a main and a side one, and the
//! end-to-end latency metrics are named by that role, so that every
//! workload reports every end-to-end metric:
//!
//! | workload         | main op        | side op        |
//! |------------------|----------------|----------------|
//! | `load_eval`      | `eval`         | `count`        |
//! | `frontier_check` | `check_auto`   | `check_naive`  |
//! | `serve_mixed`    | `bgp`          | `write`        |
//!
//! So `main_tail_ms` on `load_eval` is the eval tail, `side_tail_ms` on
//! `serve_mixed` the write tail.
//!
//! Each run also prints, before its result line and under the op names,
//! the medians (`eval_p50_ms`, …) and `ops_per_s`. They are not declared
//! end-to-end metrics, because they do not repeat on a host whose speed
//! drifts: on the 2-vCPU VM this benchmark was built on, the same op ran
//! 1.7× slower for stretches of tens of seconds. A run's median and mean
//! move with the share of the run spent in those stretches. Ten runs
//! whose host turned slow after the third spread the eval median by 27%
//! (IQR over median) and `ops_per_s` by 23%. The tail, set by the slow
//! moments every run contains, spread by 8% over the same runs.

pub struct Workload {
    pub name: &'static str,
    pub main: &'static str,
    pub side: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "load_eval",
        main: "eval",
        side: "count",
        why: "seeded ~50k-triple social graph as N-Triples: parse, bulk-load in 4096 batches, compact (setup_s); eval and count ops on 5 queries. Ingest, enumeration, decoding work; width/pebble idle",
    },
    Workload {
        name: "frontier_check",
        main: "check_auto",
        side: "check_naive",
        why: "paper's EVAL on RdfGraph, fresh Query per op: check_auto on F_4..6 +neg (Turan n=4(k-1)-2..+2), Q_4..5 (n=3(k-1)); check_naive on F_5; seed orders ops. Width/pebble/hom work",
    },
    Workload {
        name: "serve_mixed",
        main: "bgp",
        side: "write",
        why: "durable 2-shard store, ~30k seeded triples (setup: ingest, drop, open); 90% Zipf-anchored bgp ops, 10% fsynced 256-triple writes. query() leaves store.queries_total at 0",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// `peak_rss_mb` is `VmHWM` after a fixed amount of work (see
/// `Workload::rss_epochs`), not at the end of the run. On
/// `frontier_check` RSS grows with every op: each domination-width
/// computation interns fresh variables (61 on F_5, about 3–6 KB of RSS)
/// that the process-global vocabulary never frees. Read at the end of a
/// run, the figure followed how many ops the host's speed fitted into
/// `--seconds`, and a change that made ops faster raised it.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "main_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "side_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this layer should move, and on which
    /// workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Span-timed metrics (`*_ms`) are self times: the call's time summed
/// within each op that makes it, averaged over those ops (set-up runs
/// stand in for ops when no op makes the call). Counts are per op of the
/// kind that does the work. A layer that does no work on a workload
/// reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    layer("rdf.parse_ntriples_ms", "ms", "lower", "setup_s on load_eval"),
    layer("rdf.format_ms", "ms", "lower", "eval_p50_ms and main_tail_ms on load_eval"),
    layer("algebra.parse_ms", "ms", "lower", "eval_p50_ms, check_auto_p50_ms on load_eval, frontier_check (sentinel, ~0)"),
    layer("tree.translate_ms", "ms", "lower", "eval_p50_ms, check_auto_p50_ms on load_eval, frontier_check (sentinel, ~0)"),
    layer("width.dw_ms", "ms", "lower", "check_auto_p50_ms and main_tail_ms on frontier_check"),
    layer("core.evaluate_ms", "ms", "lower", "eval_p50_ms and main_tail_ms on load_eval"),
    layer("core.solutions", "count", "higher", "eval_p50_ms and main_tail_ms on load_eval"),
    layer("core.enumerate_with_stats_ms", "ms", "lower", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.count_by_domain_ms", "ms", "lower", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.hom_calls", "count", "lower", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.steps", "count", "lower", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.max_delay_steps", "count", "lower", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.solutions_per_hom_call", "ratio", "higher", "count_p50_ms and side_tail_ms on load_eval"),
    layer("core.check_pebble_ms", "ms", "lower", "check_auto_p50_ms and main_tail_ms on frontier_check"),
    layer("core.check_naive_ms", "ms", "lower", "check_naive_p50_ms and side_tail_ms on frontier_check"),
    layer("pebble.initial_assignments", "count", "lower", "check_auto_p50_ms and main_tail_ms on frontier_check"),
    layer("pebble.deleted", "count", "lower", "check_auto_p50_ms and main_tail_ms on frontier_check"),
    layer("pebble.subsets", "count", "lower", "check_auto_p50_ms and main_tail_ms on frontier_check"),
    layer("store.bulk_load_ms", "ms", "lower", "setup_s on load_eval; write_p50_ms and side_tail_ms on serve_mixed"),
    layer("store.compact_ms", "ms", "lower", "setup_s on load_eval; write_p50_ms and side_tail_ms on serve_mixed"),
    layer("store.open_ms", "ms", "lower", "setup_s on serve_mixed"),
    layer("store.query_ms", "ms", "lower", "bgp_p50_ms and main_tail_ms on serve_mixed"),
    layer("store.cache_hit_ratio", "ratio", "higher", "bgp_p50_ms and main_tail_ms on serve_mixed"),
    layer("store.rows_examined_per_result", "ratio", "lower", "bgp_p50_ms and main_tail_ms on serve_mixed"),
    layer("store.segments_pending", "count", "lower", "bgp_p50_ms and main_tail_ms on serve_mixed"),
    layer("store.queries_total_per_bgp", "ratio", "higher", "none: 0 until query()/query_limited() are counted by the registry"),
    layer("store.fsync_per_write", "count", "lower", "write_p50_ms and side_tail_ms on serve_mixed"),
    layer("store.fsync_total", "count", "lower", "write_p50_ms and side_tail_ms on serve_mixed"),
    layer("store.commit_retries_total", "count", "lower", "write_p50_ms, side_tail_ms and failed ops on serve_mixed"),
    layer("store.bulk_load_ns", "ns", "lower", "as store.bulk_load_ms, from the registry's own histogram"),
    layer("store.compact_ns", "ns", "lower", "as store.compact_ms, from the registry's own histogram"),
    layer("obs.trace_overhead_ratio", "ratio", "lower", "none: sanity check of the traced run, all workloads"),
    layer("failed_op_ratio", "ratio", "lower", "none: errors plus wrong answers over attempts, all workloads"),
];
