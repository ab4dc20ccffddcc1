//! Tracing from outside the program: spans recorded by wrappers around
//! the public seams each layer already has, kept in memory and written
//! out when the run ends.
//!
//! * [`TracedIo`] wraps a [`PacketIo`] (the daemon's socket layer): one
//!   `recv` span per non-empty `recv_batch`, one `send` span per
//!   `send_batch`, and between them the `serve` span — the worker loop's
//!   work on that batch, from `recv_batch` returning to `send_batch`
//!   being called. These three also record the worker thread's CPU time
//!   inside the span: a `recv` span's wall time includes the blocking
//!   wait for the first datagram, its CPU time does not.
//! * [`TracedUpstream`] wraps an [`Upstream`]: one `upstream` span per
//!   query, a child of whatever span is open on that thread (`serve` in
//!   the daemon, `resolve` or `renewal` in a direct replay).
//! * [`TracedStream`] wraps a [`QueryStream`]: one `next` span per event.
//!
//! Spans of one worker share a [`Log`]; a span's request id is the batch
//! (daemon) or trace event (replay) it belongs to. Every wrapper checks a
//! shared switch first, so a traced daemon can also run untraced and the
//! difference is the tracing overhead.

use crate::proc::thread_cpu_ns;
use dns_core::{Message, SimTime};
use dns_netd::{PacketBatch, PacketIo};
use dns_resolver::Upstream;
use dns_trace::{QueryEvent, QueryStream, TraceCursor};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Recv,
    Serve,
    Send,
    Upstream,
    Resolve,
    Renewal,
    Next,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Recv => "packetio.recv",
            Layer::Serve => "resolved.serve",
            Layer::Send => "packetio.send",
            Layer::Upstream => "upstream.query",
            Layer::Resolve => "resolver.resolve",
            Layer::Renewal => "resolver.renewal",
            Layer::Next => "trace.next",
        }
    }
}

/// One recorded interval. `parent` and `id` are unique within a run;
/// `parent == 0` marks a root span. `items` counts what the call moved:
/// packets for `recv`/`serve`/`send`, 1 for an answered upstream query
/// or a delivered trace event, 0 for a timeout or the end of the stream.
/// `cpu` is the thread's CPU time inside the span, in ns; only the packet
/// I/O boundary measures it (see [`TracedIo`]), other spans read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub cpu: u64,
    pub items: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span opened and not yet closed.
#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    req: u64,
    layer: Layer,
    start: u64,
    cpu_start: u64,
    items: u32,
}

/// The spans of one thread of work, plus the span currently open there.
#[derive(Debug)]
pub struct Log {
    spans: Vec<Span>,
    /// Ids are `tag << 40 | sequence`, so logs never collide.
    tag: u64,
    seq: u64,
    req: u64,
    open: Option<Open>,
}

/// A [`Log`] shared by the wrappers of one worker.
pub type SharedLog = Arc<Mutex<Log>>;

impl Log {
    pub fn shared(tag: u64) -> SharedLog {
        Arc::new(Mutex::new(Log {
            spans: Vec::with_capacity(1 << 16),
            tag,
            seq: 0,
            req: 0,
            open: None,
        }))
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        self.tag << 40 | self.seq
    }

    fn parent(&self) -> (u64, u64) {
        self.open.map_or((0, self.req), |o| (o.id, o.req))
    }

    /// Records a finished span under the open one (if any).
    pub fn push(&mut self, layer: Layer, start: u64, end: u64, items: u32) {
        let (parent, req) = self.parent();
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent,
            req,
            layer,
            start,
            end,
            cpu: 0,
            items,
        });
    }

    /// Records a finished root span of the current request that used
    /// `cpu` ns of its thread's CPU time.
    pub fn push_root(&mut self, layer: Layer, start: u64, end: u64, cpu: u64, items: u32) {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent: 0,
            req: self.req,
            layer,
            start,
            end,
            cpu,
            items,
        });
    }

    /// Opens a root span for a new request at wall time `start` and
    /// thread CPU time `cpu_start` (0 when not measured), closing any
    /// span still open.
    pub fn open(&mut self, layer: Layer, start: u64, cpu_start: u64, items: u32) {
        self.close(start, cpu_start);
        self.req += 1;
        let id = self.next_id();
        self.open = Some(Open {
            id,
            req: self.req,
            layer,
            start,
            cpu_start,
            items,
        });
    }

    /// Closes the open span at wall time `end`, thread CPU time `cpu_end`.
    pub fn close(&mut self, end: u64, cpu_end: u64) {
        if let Some(o) = self.open.take() {
            self.spans.push(Span {
                id: o.id,
                parent: 0,
                req: o.req,
                layer: o.layer,
                start: o.start,
                end,
                cpu: cpu_end.saturating_sub(o.cpu_start),
                items: o.items,
            });
        }
    }

    /// Drops the open span without recording it.
    pub fn discard(&mut self) {
        self.open = None;
    }

    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, Log> {
    log.lock()
        .expect("a traced thread panicked while recording")
}

/// Every span of `logs`, drained.
pub fn drain(logs: &[SharedLog]) -> Vec<Span> {
    logs.iter().flat_map(|l| lock(l).take()).collect()
}

/// [`PacketIo`] with `recv`/`serve`/`send` spans. See the module docs.
pub struct TracedIo<P> {
    pub inner: P,
    pub log: SharedLog,
    pub on: Arc<AtomicBool>,
}

impl<P: PacketIo> PacketIo for TracedIo<P> {
    fn recv_batch(&mut self, batch: &mut PacketBatch) -> io::Result<usize> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.recv_batch(batch);
        }
        let cpu_start = thread_cpu_ns();
        let start = now_ns();
        // A batch that produced no reply never reaches send_batch: its
        // serve span ends here.
        lock(&self.log).close(start, cpu_start);
        let r = self.inner.recv_batch(batch);
        let end = now_ns();
        let cpu_end = thread_cpu_ns();
        if let Ok(n @ 1..) = r {
            let mut log = lock(&self.log);
            log.open(Layer::Serve, end, cpu_end, n as u32);
            log.push_root(Layer::Recv, start, end, cpu_end - cpu_start, n as u32);
        }
        r
    }

    fn send_batch(&mut self, batch: &PacketBatch) -> io::Result<usize> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.send_batch(batch);
        }
        let cpu_start = thread_cpu_ns();
        let start = now_ns();
        lock(&self.log).close(start, cpu_start);
        let r = self.inner.send_batch(batch);
        let end = now_ns();
        let cpu_end = thread_cpu_ns();
        let sent = *r.as_ref().unwrap_or(&0) as u32;
        lock(&self.log).push_root(Layer::Send, start, end, cpu_end - cpu_start, sent);
        r
    }
}

/// [`Upstream`] with one `upstream` span per query. See the module docs.
pub struct TracedUpstream<U> {
    pub inner: U,
    pub log: SharedLog,
    pub on: Arc<AtomicBool>,
}

impl<U: Upstream> Upstream for TracedUpstream<U> {
    fn query(&mut self, server: Ipv4Addr, query: &Message, now: SimTime) -> Option<Message> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.query(server, query, now);
        }
        let start = now_ns();
        let r = self.inner.query(server, query, now);
        let end = now_ns();
        lock(&self.log).push(Layer::Upstream, start, end, u32::from(r.is_some()));
        r
    }

    fn wait(&mut self, millis: u64) {
        self.inner.wait(millis)
    }
}

/// [`QueryStream`] with one `next` span per event. See the module docs.
pub struct TracedStream<S> {
    pub inner: S,
    pub log: SharedLog,
}

impl<S: QueryStream> QueryStream for TracedStream<S> {
    fn next_event(&mut self) -> Option<QueryEvent> {
        let start = now_ns();
        let e = self.inner.next_event();
        let end = now_ns();
        lock(&self.log).push(Layer::Next, start, end, u32::from(e.is_some()));
        e
    }
    fn cursor(&self) -> TraceCursor {
        self.inner.cursor()
    }
    fn days(&self) -> u64 {
        self.inner.days()
    }
    fn total_queries(&self) -> u64 {
        self.inner.total_queries()
    }
    fn trace_name(&self) -> &str {
        self.inner.trace_name()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once, children clipped to the parent). Aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Totals over the spans of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub spans: u64,
    pub items: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub cpu_ns: u64,
}

impl LayerTotals {
    /// Mean span duration in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.busy_ns as f64, self.spans as f64)
    }

    /// Mean thread CPU time per span in ns.
    pub fn mean_cpu_ns(&self) -> f64 {
        ratio(self.cpu_ns as f64, self.spans as f64)
    }
}

/// Per-layer totals of `spans`, self times included.
pub fn totals(spans: &[Span]) -> HashMap<Layer, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: HashMap<Layer, LayerTotals> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.items += u64::from(s.items);
        t.busy_ns += s.dur();
        t.self_ns += own;
        t.cpu_ns += s.cpu;
    }
    out
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Writes `spans` as CSV (`id,parent,req,layer,start_ns,end_ns,cpu_ns,items`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,layer,start_ns,end_ns,cpu_ns,items")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.req,
            s.layer.name(),
            s.start,
            s.end,
            s.cpu,
            s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            layer: if parent == 0 {
                Layer::Serve
            } else {
                Layer::Upstream
            },
            start,
            end,
            cpu: end - start,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
            span(4, 0, 200, 250),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 90, 130),  // starts before the parent
            span(3, 1, 120, 150), // overlaps span 2
            span(4, 1, 180, 260), // ends after the parent
            span(5, 4, 190, 195), // grandchild: charged to span 4 only
        ];
        // Covered: 100..150 and 180..200 = 70 of 100.
        assert_eq!(self_times(&spans), vec![30, 40, 30, 75, 5]);
    }

    #[test]
    fn totals_group_by_layer() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 0, 100, 150)];
        let t = totals(&spans);
        let serve = t[&Layer::Serve];
        assert_eq!((serve.spans, serve.busy_ns, serve.self_ns), (2, 150, 130));
        assert_eq!(serve.mean_ns(), 75.0);
        assert_eq!((serve.cpu_ns, serve.mean_cpu_ns()), (150, 75.0));
        assert_eq!(t[&Layer::Upstream].self_ns, 20);
    }

    #[test]
    fn log_parents_children_under_the_open_span() {
        let log = Log::shared(3);
        let mut l = lock(&log);
        l.push(Layer::Upstream, 0, 1, 1); // no open span: a root
        l.open(Layer::Resolve, 5, 100, 1);
        l.push(Layer::Upstream, 6, 8, 0);
        l.close(10, 103);
        l.open(Layer::Renewal, 11, 0, 1);
        l.discard();
        let spans = l.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        let resolve = spans.iter().find(|s| s.layer == Layer::Resolve).unwrap();
        assert_eq!(spans[1].parent, resolve.id);
        assert_eq!(spans[1].req, resolve.req);
        assert_eq!((resolve.start, resolve.end, resolve.cpu), (5, 10, 3));
        assert!(spans.iter().all(|s| s.id >> 40 == 3));
    }
}
