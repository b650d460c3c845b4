//! Benchmark-side tracing: spans recorded around each call into a
//! layer (held in memory, written out when the run ends), and the
//! *ladder* — the same ops timed once per rung from the outermost
//! public entry point inwards, where layers nest instead of following
//! one another. A rung's self time is its own time minus its child
//! rungs'.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `id`s are unique across lanes; `parent == 0`
/// marks a root span; spans of one op share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
}

/// A per-thread span recorder. When off, `begin`/`end` are one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this lane hands out.
    lane: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            lane: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer; lanes sharing one `epoch` share a time axis.
    pub fn on(epoch: Instant, lane: u64) -> Self {
        Self {
            on: true,
            epoch,
            lane: (lane + 1) << 40,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a span; returns its id (0 when off).
    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.lane | (self.spans.len() as u64 + 1);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            op,
        });
        id
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[idx].end_ns = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count and total self time per span name: a span's duration minus the
/// part its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own as f64 * 1e-9;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op
        )?;
    }
    w.flush()
}

/// One rung of a ladder: a public entry point timed over a fixed op
/// set, once per pass. `parent` is the rung whose calls contain it.
pub struct Rung {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Seconds per pass, per op group (`passes[group][pass]`).
    pub passes: Vec<Vec<f64>>,
}

/// A tree of rungs measured pass by pass. Ops come in *groups* (one per
/// codec where a workload round-robins codecs): within a pass of one
/// group every rung runs back to back on the same ops, so drift on a
/// shared machine hits the rungs of a pass alike, and self times are
/// taken as differences *within* a pass before the median over passes.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    groups: usize,
    /// Ops one pass of one group covers (to report per-op seconds).
    ops_per_pass: usize,
}

impl Ladder {
    pub fn new(groups: usize, ops_per_pass: usize) -> Self {
        Self {
            rungs: Vec::new(),
            groups,
            ops_per_pass,
        }
    }

    pub fn rung(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.rungs.push(Rung {
            name,
            parent,
            passes: vec![Vec::new(); self.groups],
        });
        self.rungs.len() - 1
    }

    /// Times `f` as one pass of rung `r` on op group `group`.
    pub fn time<R>(&mut self, r: usize, group: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.record(r, group, t.elapsed().as_secs_f64());
        out
    }

    /// Records one pass of rung `r` timed by the caller.
    pub fn record(&mut self, r: usize, group: usize, seconds: f64) {
        self.rungs[r].passes[group].push(seconds);
    }

    /// Mean over groups of the median over passes of `per_pass`, per op.
    fn per_op_of(&self, per_pass: impl Fn(usize, usize) -> f64, r: usize) -> f64 {
        let mut sum = 0.0;
        for g in 0..self.groups {
            let n = self.rungs[r].passes[g].len();
            if n == 0 {
                return 0.0;
            }
            sum += median(&(0..n).map(|p| per_pass(g, p)).collect::<Vec<_>>());
        }
        sum / (self.groups * self.ops_per_pass.max(1)) as f64
    }

    /// Median seconds per op of rung `r` (0 when never measured).
    pub fn per_op(&self, r: usize) -> f64 {
        self.per_op_of(|g, p| self.rungs[r].passes[g][p], r)
    }

    /// Self seconds per op of every rung: its time minus its child
    /// rungs', pass by pass, then the median. Self times sum to the
    /// outer rung up to the difference between a median of differences
    /// and a difference of medians, so the honesty check is consistency
    /// — see [`Ladder::min_self_fraction`].
    pub fn self_per_op(&self) -> Vec<f64> {
        let parents: Vec<Option<usize>> = self.rungs.iter().map(|r| r.parent).collect();
        (0..self.rungs.len())
            .map(|r| {
                self.per_op_of(
                    |g, p| {
                        let totals: Vec<f64> = self
                            .rungs
                            .iter()
                            .map(|x| x.passes[g].get(p).copied().unwrap_or(0.0))
                            .collect();
                        ladder_self(&totals, &parents)[r]
                    },
                    r,
                )
            })
            .collect()
    }

    /// The most negative self time as a share of its root rung. Rungs
    /// are measured separately, so a little negative is noise; a lot
    /// means a rung does not contain what the tree says it contains.
    pub fn min_self_fraction(&self) -> f64 {
        let own = self.self_per_op();
        (0..self.rungs.len())
            .map(|r| {
                let mut root = r;
                while let Some(p) = self.rungs[root].parent {
                    root = p;
                }
                let outer = self.per_op(root);
                if outer > 0.0 {
                    own[r] / outer
                } else {
                    0.0
                }
            })
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }
}

/// Self time of each node of a tree given its total and parent links.
pub fn ladder_self(totals: &[f64], parents: &[Option<usize>]) -> Vec<f64> {
    let mut own = totals.to_vec();
    for (r, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            own[p] -= totals[r];
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_self_subtracts_children_and_sums_to_root() {
        // client 10 ⊃ any 6 ⊃ into 5 ⊃ {array 3, byte 1}
        let totals = [10.0, 6.0, 5.0, 3.0, 1.0];
        let parents = [None, Some(0), Some(1), Some(2), Some(2)];
        let own = ladder_self(&totals, &parents);
        assert_eq!(own, vec![4.0, 1.0, 1.0, 3.0, 1.0]);
        assert_eq!(own.iter().sum::<f64>(), totals[0]);
    }

    #[test]
    fn ladder_reports_negative_self_as_a_fraction_of_the_root() {
        let mut l = Ladder::new(1, 2);
        let outer = l.rung("outer", None);
        let inner = l.rung("inner", Some(outer));
        for (o, i) in [(2.0, 2.2), (2.0, 2.2), (2.0, 2.2)] {
            l.record(outer, 0, o);
            l.record(inner, 0, i);
        }
        assert_eq!(l.per_op(outer), 1.0);
        assert!((l.min_self_fraction() + 0.1).abs() < 1e-12);
    }

    #[test]
    fn ladder_pairs_rungs_within_a_pass_and_averages_groups() {
        // Group 0 drifts from pass to pass, but outer − inner is 1 in
        // every pass; group 1 is a faster class with a difference of 0.5.
        let mut l = Ladder::new(2, 1);
        let outer = l.rung("outer", None);
        let inner = l.rung("inner", Some(outer));
        for (o, i) in [(4.0, 3.0), (9.0, 8.0), (5.0, 4.0)] {
            l.record(outer, 0, o);
            l.record(inner, 0, i);
        }
        for (o, i) in [(1.0, 0.5), (1.0, 0.5), (1.0, 0.5)] {
            l.record(outer, 1, o);
            l.record(inner, 1, i);
        }
        assert_eq!(l.per_op(outer), (5.0 + 1.0) / 2.0);
        assert_eq!(l.self_per_op(), vec![(1.0 + 0.5) / 2.0, (4.0 + 0.5) / 2.0]);
    }

    #[test]
    fn span_self_time_excludes_direct_children_only() {
        let mut t = Tracer::on(Instant::now(), 0);
        let a = t.begin("a", 0, 1);
        let b = t.begin("b", a, 1);
        let c = t.begin("c", b, 1);
        t.end(c);
        t.end(b);
        t.end(a);
        let mut spans = t.into_spans();
        // Pin the clock: a = 0..100, b = 10..60, c = 20..30.
        for (s, (st, en)) in spans.iter_mut().zip([(0, 100), (10, 60), (20, 30)]) {
            s.start_ns = st;
            s.end_ns = en;
        }
        let own = self_times(&spans);
        for (name, ns) in [("a", 50.0), ("b", 40.0), ("c", 10.0)] {
            assert_eq!(own[name].0, 1);
            assert!((own[name].1 - ns * 1e-9).abs() < 1e-15, "{name}");
        }
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 0, 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.into_spans().is_empty());
    }
}
