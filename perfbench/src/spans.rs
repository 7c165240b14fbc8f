//! In-memory spans recorded around calls into the library's public
//! functions. A span has a name, start, end, parent and a job/batch id;
//! spans stay in memory until the run ends, then go to one JSONL file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans that only group others: they are not a layer, so they do not
/// count towards coverage.
const GROUPS: [&str; 3] = ["replay", "batch", "plan"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// A span recorder. When off, `enter`/`exit` record nothing, so the same
/// call sequence runs with and without tracing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Span one call that records no spans of its own.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a span measured elsewhere (a call timed in a live run).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.at_ns(start), self.at_ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: self.stack.last().copied(),
                id,
            });
        }
    }

    /// `t` on this tracer's clock, in ns.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
    }
    out
}

/// Share of the `root` spans' time that layer spans cover: the outermost
/// layer spans below a root, whose durations add up to their union
/// because they run one after another.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    // Parents precede children, so one pass settles who sits under a
    // root with only group spans in between.
    let mut open_under_root = vec![false; spans.len()];
    let mut wall = 0u64;
    let mut covered = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let parent_open = s.parent.is_some_and(|p| open_under_root[p]);
        if s.name == root {
            wall += s.dur_ns();
            open_under_root[i] = true;
        } else if GROUPS.contains(&s.name) {
            open_under_root[i] = parent_open;
        } else if parent_open {
            covered += s.dur_ns();
        }
    }
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

/// Time covered by the union of the spans named `name` that lie inside
/// `[from_ns, to_ns)`, clipped to it.
pub fn union_ns(spans: &[Span], name: &str, from_ns: u64, to_ns: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, from_ns);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// What [`paired`] measured.
pub struct Paired<C> {
    /// The spans of the last traced pass.
    pub tracer: Tracer,
    /// Each pass's own result, in run order, the warm-up first.
    pub passes: Vec<C>,
    /// Traced ÷ untraced wall time.
    pub overhead: f64,
}

impl<C> Paired<C> {
    /// The result of the traced pass whose spans `tracer` holds.
    pub fn traced(&self) -> &C {
        &self.passes[3]
    }
}

/// Run one replay pass five times: a warm-up, then untraced, traced,
/// traced and untraced. The warm-up pays first-use costs (thread pools,
/// caches) outside the comparison, and the symmetric order cancels a
/// steady drift in machine speed out of the overhead ratio.
pub fn paired<C>(
    mut pass: impl FnMut(&mut Tracer) -> Result<(C, std::time::Duration), String>,
) -> Result<Paired<C>, String> {
    let (warm, _) = pass(&mut Tracer::new(false))?;
    let mut passes = vec![warm];
    // Wall time of the untraced and the traced passes.
    let mut walls = [0.0f64; 2];
    let mut kept = None;
    for on in [false, true, true, false] {
        let mut tracer = Tracer::new(on);
        let (c, wall) = pass(&mut tracer)?;
        passes.push(c);
        walls[usize::from(on)] += wall.as_secs_f64();
        if on {
            kept = Some(tracer);
        }
    }
    Ok(Paired {
        tracer: kept.expect("two traced passes"),
        passes,
        overhead: walls[1] / walls[0].max(1e-12),
    })
}
