//! The wdsparql end-to-end benchmark.
//!
//! Three workloads (see [`catalog::WORKLOADS`]), each one process running
//! a closed loop with one client: the next op starts only after the
//! previous one returned, as for a caller of the library that waits for
//! its answers. Inputs are generated from the seed and never timed. Every
//! op's output is checked against an oracle outside the timed region; a
//! mismatch counts as a failed op.
//!
//! A run is a sequence of epochs. Each starts with a timed set-up on
//! fresh state (the median over epochs is `setup_s`) and then runs a
//! fixed number of op cycles; the run stops at the first cycle boundary
//! after its time is up, but not before the epoch at which the workload
//! reads `peak_rss_mb`. The first epoch begins with one unmeasured
//! warm-up cycle. An untraced run reports the end-to-end metrics. A
//! traced run alternates untraced and traced epochs: the traced ones give
//! the per-layer metrics (spans around the benchmark's calls into each
//! layer, plus counter deltas of the store's metrics registry), and the
//! ratio of traced to untraced op time is `obs.trace_overhead_ratio`.

pub mod catalog;
mod frontier;
mod load_eval;
mod rng;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Recorder;

/// Input sizes: `Full` is what the benchmark measures, `Tiny` what its
/// self-test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupts one expected answer, so the run must report failed ops
    /// (the self-test of the correctness checks).
    pub poison: bool,
    /// Where durable stores and the trace are written.
    pub work_dir: PathBuf,
}

/// One executed op: which kind, how long the library call took, and
/// whether its output matched the oracle.
pub(crate) struct Op {
    pub side: bool,
    pub elapsed: Duration,
    pub ok: bool,
}

pub(crate) trait Workload {
    /// How many op cycles an epoch runs. Every epoch starts on fresh
    /// state, so set-up time is sampled across the whole run, and state
    /// that ops grow (the durable store) follows the same path in every
    /// epoch whatever the host's speed.
    fn epoch_cycles(&self) -> usize;
    /// The epoch at whose end `peak_rss_mb` is read. A fixed amount of
    /// work, not the end of the run: a figure that grows with the ops
    /// done would follow how many of them the host's speed fits into
    /// `--seconds`.
    fn rss_epochs(&self) -> usize;
    /// Drops the previous epoch's state (untimed).
    fn teardown(&mut self);
    fn setup(&mut self, tr: &mut Recorder) -> Result<(), String>;
    /// The ops of the next cycle, in order, as indices [`Workload::op`]
    /// understands.
    fn cycle(&mut self) -> Vec<usize>;
    fn op(&mut self, op: usize, tr: &mut Recorder) -> Op;
    /// Per-layer counts gathered during traced ops.
    fn layer_counts(&self, reg: &RegistryDelta) -> Vec<(&'static str, f64)>;
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// The recorded spans (traced runs only).
    pub trace_json: Option<String>,
}

impl Report {
    /// The result line: one JSON object with every metric and its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Latency samples of one op kind, in ms.
struct Samples(Vec<f64>);

impl Samples {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The highest percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it: its value and which percentile it is.
    fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        (
            v[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        )
    }
}

const TAIL_BEYOND: usize = 10;

/// Counter deltas of the store's process-wide metrics registry
/// (`wdsparql_store::metrics_json()`), taken around traced cycles (`ops`)
/// and traced set-up runs (`setup`).
#[derive(Default)]
pub(crate) struct RegistryDelta {
    ops: BTreeMap<String, u64>,
    setup: BTreeMap<String, u64>,
}

/// The registry values the benchmark reads: counters by name, each
/// histogram as `<name>.count` and `<name>.sum`, and the per-shard read
/// rows summed as `shard_read_rows`.
fn registry_values() -> BTreeMap<String, u64> {
    let text = wdsparql_store::metrics_json();
    let doc = wdsparql_obs::json::parse(&text).expect("the registry emits valid JSON");
    let mut out = BTreeMap::new();
    if let Some(wdsparql_obs::json::Value::Obj(members)) = doc.get("counters") {
        for (k, v) in members {
            out.insert(k.clone(), v.as_u64().unwrap_or(0));
        }
    }
    if let Some(wdsparql_obs::json::Value::Obj(members)) = doc.get("histograms") {
        for (k, h) in members {
            for field in ["count", "sum"] {
                let v = h.get(field).and_then(|v| v.as_u64()).unwrap_or(0);
                out.insert(format!("{k}.{field}"), v);
            }
        }
    }
    if let Some(wdsparql_obs::json::Value::Arr(rows)) = doc.get("shard_read_rows") {
        let total = rows.iter().filter_map(|v| v.as_u64()).sum();
        out.insert("shard_read_rows".into(), total);
    }
    out
}

fn add_delta(acc: &mut BTreeMap<String, u64>, before: &BTreeMap<String, u64>) {
    for (k, v) in registry_values() {
        let d = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
        *acc.entry(k).or_insert(0) += d;
    }
}

impl RegistryDelta {
    /// A counter's delta over the traced cycles.
    pub(crate) fn op(&self, name: &str) -> u64 {
        self.ops.get(name).copied().unwrap_or(0)
    }

    /// Mean of a registry histogram per recorded event: over the traced
    /// cycles when they recorded any, else over the traced set-up runs.
    fn mean(&self, hist: &str) -> f64 {
        let (count, sum) = (format!("{hist}.count"), format!("{hist}.sum"));
        let pick = |m: &BTreeMap<String, u64>| {
            (
                m.get(&count).copied().unwrap_or(0),
                m.get(&sum).copied().unwrap_or(0),
            )
        };
        let (n, s) = match pick(&self.ops) {
            (0, _) => pick(&self.setup),
            hit => hit,
        };
        ratio(s as f64, n as f64)
    }
}

/// Query text to a fresh `Query`, as `Query::parse` does it for the
/// paper's syntax, in two spans: the algebra parser, then the
/// well-designedness check and wdPF translation.
fn parse_query(text: &str, tr: &mut Recorder) -> Result<wdsparql_core::Query, String> {
    let pattern = tr
        .span("algebra.parse", || wdsparql_algebra::parse_pattern(text))
        .map_err(|e| e.to_string())?;
    tr.span("tree.translate", || {
        wdsparql_core::Query::from_pattern(pattern)
    })
    .map_err(|e| e.to_string())
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `VmHWM` of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn make(cfg: &Config) -> Result<(Box<dyn Workload>, &'static catalog::Workload), String> {
    let spec = catalog::WORKLOADS
        .iter()
        .find(|w| w.name == cfg.workload)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let w: Box<dyn Workload> = match spec.name {
        "load_eval" => Box::new(load_eval::LoadEval::new(cfg)?),
        "frontier_check" => Box::new(frontier::Frontier::new(cfg)?),
        "serve_mixed" => Box::new(serve::Serve::new(cfg)?),
        _ => unreachable!("every catalog workload is constructed above"),
    };
    Ok((w, spec))
}

/// Runs one workload as `cfg` describes.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let (mut w, spec) = make(cfg)?;
    let mut tr = Recorder::default();
    let mut reg = RegistryDelta::default();

    let mut setup_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut samples = [Samples(Vec::new()), Samples(Vec::new())];
    let mut cycle_ns = [0f64; 2]; // op time of [untraced, traced] cycles
    let mut cycles = [0u64; 2];
    let start = Instant::now();
    let mut epochs = 0;
    let mut rss_mb = None;
    'run: loop {
        w.teardown();
        tr.set_on(cfg.trace);
        let before = cfg.trace.then(registry_values);
        let setup_start = Instant::now();
        let root = tr.begin(trace::SETUP);
        let res = w.setup(&mut tr);
        tr.end(root);
        setup_s.push(setup_start.elapsed().as_secs_f64());
        res?;
        if let Some(b) = before {
            add_delta(&mut reg.setup, &b);
        }
        tr.set_on(false);
        if epochs == 0 {
            // Warm-up: checked, not measured.
            for op in w.cycle() {
                let o = w.op(op, &mut tr);
                attempted += 1;
                failed += u64::from(!o.ok);
            }
        }
        epochs += 1;
        // Whole epochs alternate, not cycles: an epoch's cycles differ
        // (serve_mixed's triangles and compactions fall on fixed cycles),
        // and both halves must hold the same op mix.
        let traced = cfg.trace && epochs % 2 == 0;
        tr.set_on(traced);
        for _ in 0..w.epoch_cycles() {
            let before = traced.then(registry_values);
            for op in w.cycle() {
                let o = w.op(op, &mut tr);
                attempted += 1;
                failed += u64::from(!o.ok);
                cycle_ns[usize::from(traced)] += o.elapsed.as_nanos() as f64;
                if !traced {
                    samples[usize::from(o.side)]
                        .0
                        .push(o.elapsed.as_secs_f64() * 1e3);
                }
            }
            if let Some(b) = before {
                add_delta(&mut reg.ops, &b);
            }
            cycles[usize::from(traced)] += 1;
            let enough = samples.iter().all(|s| s.0.len() > TAIL_BEYOND)
                && (!cfg.trace || cycles[1] > 0)
                && rss_mb.is_some();
            if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
                break 'run;
            }
        }
        if epochs == w.rss_epochs() {
            rss_mb = Some(peak_rss_mb());
        }
    }
    tr.set_on(false);

    let mut notes = vec![format!(
        "workload={} seed={} measured_s={:.2} epochs={epochs} cycles={} ops={} failed={} traced={}",
        spec.name,
        cfg.seed,
        start.elapsed().as_secs_f64(),
        cycles[0] + cycles[1],
        attempted,
        failed,
        cfg.trace
    )];
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let declared: Vec<(&'static str, &'static str)> = if cfg.trace {
        for (span, ms) in tr.layer_ms() {
            values.insert(format!("{span}_ms"), ms);
        }
        let traced_ratio = ratio(
            cycle_ns[1] / cycles[1] as f64,
            cycle_ns[0] / cycles[0] as f64,
        );
        let hits = reg.op("cache.hits") as f64;
        let lookups = hits + reg.op("cache.misses") as f64;
        for (name, v) in [
            ("obs.trace_overhead_ratio", traced_ratio),
            ("failed_op_ratio", ratio(failed as f64, attempted as f64)),
            ("store.fsync_total", reg.op("store.fsync_total") as f64),
            (
                "store.commit_retries_total",
                reg.op("store.commit_retries_total") as f64,
            ),
            ("store.bulk_load_ns", reg.mean("store.bulk_load_ns")),
            ("store.compact_ns", reg.mean("store.compact_ns")),
            ("store.cache_hit_ratio", ratio(hits, lookups)),
        ]
        .into_iter()
        .chain(w.layer_counts(&reg))
        {
            values.insert(name.to_string(), v);
        }
        for l in catalog::PER_LAYER {
            let v = values.get(l.name).copied().unwrap_or(0.0);
            notes.push(format!(
                "{:<32} {v:>14.4} {:<5} moves {}",
                l.name, l.unit, l.moves
            ));
        }
        notes.push(tr.summary());
        catalog::PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit))
            .collect()
    } else {
        values.insert("setup_s".into(), Samples(setup_s).p50());
        let roles = [("main", spec.main), ("side", spec.side)];
        for ((role, kind), s) in roles.into_iter().zip(&samples) {
            let (p50, (tail, pct)) = (s.p50(), s.tail());
            notes.push(format!(
                "{kind}_p50_ms={p50:.4} {kind}_tail_ms={tail:.4} (tail = p{pct:.2} of {} samples)",
                s.0.len()
            ));
            values.insert(format!("{role}_tail_ms"), tail);
        }
        let total_ms: f64 = samples.iter().flat_map(|s| s.0.iter()).sum();
        let ops = samples.iter().map(|s| s.0.len()).sum::<usize>();
        values.insert("peak_rss_mb".into(), rss_mb.unwrap_or(0.0));
        notes.push(format!(
            "ops_per_s={:.3} failed_op_ratio={}",
            ratio(ops as f64 * 1e3, total_ms),
            ratio(failed as f64, attempted as f64)
        ));
        catalog::END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .collect()
    };
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
        trace_json: cfg.trace.then(|| tr.to_json()),
    })
}
