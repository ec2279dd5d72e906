//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public functions
//! (never inside the crates). Each span has a name, a start, an end, a
//! parent, and an op id; spans stay in memory until the run ends, when
//! they are folded into per-layer self times (and optionally dumped as
//! TSV with `--spans <path>`).
//!
//! A span's self time is its duration minus the durations of its child
//! spans. Children normally nest inside their parent's interval; the scan
//! replay is the one exception: its spans run after the real scan ends and
//! are attached to the real scan's span with [`Tracer::reopen`], so the
//! scan's self time is the real scan wall time minus the replay's layer
//! time — the `scan.unattributed_ms` row.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Records spans and counters of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Makes an already closed span the parent of the spans opened until
    /// the matching [`Tracer::close_reopened`], without touching its times.
    pub fn reopen(&mut self, id: usize) {
        self.stack.push(id);
    }

    /// Ends a [`Tracer::reopen`].
    pub fn close_reopened(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "reopened span must close innermost first");
    }

    /// Adds `v` to the named counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    pub fn duration_ns(&self, id: usize) -> i64 {
        let s = &self.spans[id];
        s.end_ns as i64 - s.start_ns as i64
    }

    /// Self time per span, in nanoseconds (may be negative for a span
    /// whose attached replay children ran longer than it, e.g. a scan on
    /// several threads).
    fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.duration_ns(i);
            }
        }
        own
    }

    /// Summed self time per span name under the root spans `roots`
    /// (inclusive), in nanoseconds, plus the roots' summed duration.
    pub fn fold(&self, roots: &[usize]) -> Fold {
        let own = self.self_ns();
        let mut in_tree = vec![false; self.spans.len()];
        for &root in roots {
            in_tree[root] = true;
        }
        let mut self_by_name: BTreeMap<&'static str, i64> = BTreeMap::new();
        // Parents are always recorded before their children.
        for (i, s) in self.spans.iter().enumerate() {
            if !in_tree[i] {
                match s.parent {
                    Some(p) if in_tree[p] => in_tree[i] = true,
                    _ => continue,
                }
            }
            *self_by_name.entry(s.name).or_insert(0) += own[i];
        }
        Fold {
            total_ns: roots.iter().map(|&r| self.duration_ns(r)).sum(),
            self_ns: self_by_name,
        }
    }

    /// Writes every span as one TSV line: id, parent, op, name, start, end.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self times of one span tree, by span name.
#[derive(Debug)]
pub struct Fold {
    pub total_ns: i64,
    pub self_ns: BTreeMap<&'static str, i64>,
}
