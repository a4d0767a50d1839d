//! In-memory spans recorded by the benchmark around its own calls into
//! each layer (the program itself carries no tracing). Kept in memory
//! during the run and written out when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in ns since the trace epoch. `id` is the
/// packet sequence number or the recovery/deploy cycle; a child names its
/// parent span, which shares its `id`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
    pub id: u64,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::with_capacity(1 << 20),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        self.push(name, start, end, None, id);
    }

    pub fn child(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: &'static str,
        id: u64,
    ) {
        self.push(name, start, end, Some(parent), id);
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<&'static str>,
        id: u64,
    ) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
    }

    pub fn extend(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Self time (ns) of every span named `name`: its duration minus the
    /// durations of its children.
    pub fn self_ns(&self, name: &str) -> Vec<u64> {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(name)) {
            *children.entry(s.id).or_default() += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                dur.saturating_sub(children.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Writes one line per span: `name,start_ns,end_ns,parent,id`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,id")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.unwrap_or("-"),
                s.id
            )?;
        }
        out.flush()
    }
}
