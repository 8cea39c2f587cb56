//! The benchmark-side span recorder used by the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and the id of
//! the op (or set-up run) they belong to. They are kept in memory and
//! written out once, when the run ends. A recorder that is switched off
//! records nothing and only runs the closures it is handed, so traced
//! and untraced ops execute exactly the same library calls.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Root spans are named `setup` (one set-up run) or `op.<kind>`.
pub const SETUP: &str = "setup";

/// One recorded span. Times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

/// A handle to an open span; `None` when the recorder is off.
pub type SpanId = Option<usize>;

impl Default for Recorder {
    /// A recorder that starts switched off.
    fn default() -> Recorder {
        Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }
}

impl Recorder {
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span. A span opened with no span open is a root: it
    /// starts a new op id, which its descendants share.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children never overlap: the benchmark is one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per-layer self time, in ms, keyed by span name (roots excluded).
    ///
    /// A layer's value is its self time summed within each op that
    /// calls it, averaged over those ops. Calls made during set-up count
    /// only for layers that no op calls: those are averaged over the
    /// set-up runs instead.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        // name -> (in_op?) -> (total ns, units that called it)
        let mut acc: BTreeMap<&'static str, [(u64, BTreeSet<u64>); 2]> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                continue;
            }
            let in_op = usize::from(self.spans[root_of(i)].name != SETUP);
            let slot = &mut acc.entry(s.name).or_default()[in_op];
            slot.0 += own[i];
            slot.1.insert(s.op);
        }
        acc.into_iter()
            .map(|(name, [setup, ops])| {
                let (total, units) = if ops.1.is_empty() { setup } else { ops };
                (name, total as f64 / 1e6 / units.len().max(1) as f64)
            })
            .collect()
    }

    /// A table of self time by span name: calls, total and mean per
    /// call, roots included (a root's self time is the benchmark's own
    /// work around the library calls).
    pub fn summary(&self) -> String {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own[i];
        }
        let mut out = String::from("self time by span: name calls total_ms mean_ms\n");
        for (name, (calls, ns)) in by_name {
            let total = ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {name:<30} {calls:>8} {total:>12.3} {:>10.4}",
                total / calls as f64
            );
        }
        out
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_average_per_op() {
        let mut tr = Recorder::default();
        tr.set_on(true);
        for _ in 0..2 {
            let root = tr.begin("op.x");
            tr.span("layer.a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("layer.a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.end(root);
        }
        let setup = tr.begin(SETUP);
        tr.span("layer.b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.end(setup);
        let own = tr.self_ns();
        assert!(
            own[0] < 1_000_000,
            "the root's self time excludes its children"
        );
        let layers = tr.layer_ms();
        assert!(layers["layer.a"] >= 4.0, "two calls per op are summed");
        assert!(
            layers["layer.b"] >= 1.0,
            "set-up-only layers average over set-ups"
        );
        assert_eq!(tr.spans[1].op, tr.spans[0].op);
        assert_ne!(tr.spans[3].op, tr.spans[0].op);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut tr = Recorder::default();
        let id = tr.begin("op.x");
        assert_eq!(tr.span("layer.a", || 7), 7);
        tr.end(id);
        assert!(tr.spans.is_empty());
    }
}
