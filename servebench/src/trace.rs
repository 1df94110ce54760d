//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends, and the self-time arithmetic
//! the ledger is derived from.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: name, interval (ns since the recorder's epoch), the
/// span that caused it, and the job it belongs to (0 for none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// Collects spans in memory; nothing is written until [`Spans::write`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Nanoseconds from the epoch to `t` (zero before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name`, returning its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, start, Instant::now(), parent, 0);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span to `path` (see [`Spans::write_to`]).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.write_to(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent job`.
    pub fn write_to(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tjob")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: its duration minus the part of its interval its
/// children cover (overlapping children are counted once; a child's
/// part outside the parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Calls, total and self time per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates [`self_times`] by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            // Overlaps `submit` by 10 ns: counted once.
            span("stream", 20, 60, Some(0)),
            // Runs past the parent's end: only 90..100 is covered.
            span("verify", 90, 120, Some(0)),
            span("decode", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 40 - 10, 30, 10]);
        let totals = by_name(&spans);
        assert_eq!(totals["job"].self_ns, 40);
        assert_eq!(totals["stream"].total_ns, 40);
        assert_eq!(totals["stream"].self_ns, 30);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 100, 200, Some(0)),
            span("a", 300, 400, Some(0)),
            span("b", 150, 180, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 800);
        let totals = by_name(&spans);
        assert_eq!(totals["a"].calls, 2);
        assert_eq!(totals["a"].self_ns, 200);
    }

    #[test]
    fn recorder_keeps_spans_until_written() {
        let epoch = Instant::now();
        let mut rec = Spans::new(epoch);
        let root = rec.push(
            "root",
            epoch,
            epoch + std::time::Duration::from_micros(5),
            None,
            7,
        );
        let v = rec.time("child", Some(root), || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(root));
        let mut out = Vec::new();
        rec.write_to(&mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("0\troot\t0\t5000\t-\t7"));
    }
}
