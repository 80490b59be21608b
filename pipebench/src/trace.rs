//! The benchmark's own spans: one per call it makes into a layer, kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept per run; beyond this only the per-name totals grow.
const MAX_SPANS: usize = 200_000;

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Where traces are written, relative to the working directory.
pub const TRACE_DIR: &str = "pipebench-out";

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<(&'static str, u64, u64, String)>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        origin();
        Tracer { enabled, spans: Vec::new(), totals: BTreeMap::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span named for the layer the call went into.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let s = start.saturating_duration_since(origin()).as_nanos() as u64;
        let e = end.saturating_duration_since(origin()).as_nanos() as u64;
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += e.saturating_sub(s);
        if self.spans.len() < MAX_SPANS {
            let thread = std::thread::current().name().unwrap_or("unnamed").to_string();
            self.spans.push((name, s, e, thread));
        }
    }

    /// Takes over another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, (n, ns)) in other.totals {
            let t = self.totals.entry(name).or_default();
            t.0 += n;
            t.1 += ns;
        }
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Writes `pipebench-out/trace-<workload>.tsv`: per-name totals as
    /// `#` lines, then one `name start_ns end_ns thread` line per span.
    pub fn write(&mut self, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(TRACE_DIR)?;
        let path = format!("{TRACE_DIR}/trace-{workload}.tsv");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, (n, ns)) in &self.totals {
            writeln!(out, "# {name}\tcalls={n}\ttotal_ms={:.3}", *ns as f64 / 1e6)?;
        }
        self.spans.sort_by_key(|s| s.1);
        for (name, s, e, thread) in &self.spans {
            writeln!(out, "{name}\t{s}\t{e}\t{thread}")?;
        }
        out.flush()
    }
}
