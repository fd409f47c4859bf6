//! The benchmark's own spans: one record per call it makes into a layer,
//! kept in memory and written out once when the run ends.

use std::io::Write;
use std::time::Instant;

/// Retained spans per recorder; later spans are counted, not kept.
const CAP: usize = 1 << 20;

/// One timed call: `parent` is the id of the span that caused it (0 for a
/// root), and spans of one engine run or window share that parent.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder. Disabled recorders keep nothing, so the
/// untraced run pays one branch per call site.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder for another thread, sharing this one's clock and on/off
    /// state; its ids start at `id_base`, chosen so they never collide
    /// with this recorder's.
    pub fn child(&self, id_base: u64) -> Self {
        let mut s = Spans::new(self.on, self.epoch);
        s.next_id = id_base;
        s
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserve an id for a span whose children are recorded before it ends.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record `name` over `[start, end)` under `parent` with a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        if self.spans.len() >= CAP {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record `name` over `[start, now)` under `parent`.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant) {
        let id = self.id();
        self.record_as(id, name, parent, start, Instant::now());
    }

    /// Take over another recorder's spans (e.g. a joined thread's).
    pub fn absorb(&mut self, other: Spans) {
        self.dropped += other.dropped;
        let room = CAP.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.dropped += (other.spans.len() - keep) as u64;
        self.spans.extend_from_slice(&other.spans[..keep]);
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every retained span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}
