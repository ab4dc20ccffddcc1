//! The live workloads: a miniature DNS tree of loopback `Authd`s, the
//! `Resolved` daemon in front of it with one worker per core, and the
//! load generator of [`crate::client`] — all in this process, all
//! traffic over the host's loopback interface (no real link, so wire
//! latency and link rates are out of scope).
//!
//! The tree: a root server, a `bench.` TLD server and four leaf servers
//! holding the 16 zones `z0.bench.` … `z15.bench.`. The hot set is
//! [`HOT`] names `h<i>.z<i mod 16>.bench.`, each with one A record.
//! Water-torture names `x<hex>.z<k>.bench.` never repeat and do not
//! exist, so each one costs the resolver a real upstream query that the
//! leaf server answers NXDOMAIN.

use crate::client::{self, Expect};
use crate::inputs::{schedule, Choice, Mix, Rng};
use crate::proc;
use crate::spans::{self, Layer, Log, SharedLog, TracedIo, TracedUpstream};
use crate::stats::percentile;
use crate::Report;
use dns_auth::AuthServer;
use dns_core::{
    wire, Delegation, Message, Name, Question, RData, Rcode, Record, RecordType, SimTime, Ttl,
    ZoneBuilder,
};
use dns_netd::{
    fast_query, lowercase_key, Authd, DaemonStats, Resolved, UdpPacketIo, UdpUpstream, WireCache,
    DEFAULT_WIRE_CACHE_BYTES,
};
use dns_resolver::{CachingServer, Outcome, ResolverConfig, ResolverMetrics, RootHints, Upstream};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot-set size: a few thousand names, compiled responses of about
/// 50 bytes each, so the set fits the default wire-cache byte budget
/// ([`DEFAULT_WIRE_CACHE_BYTES`], 2 MiB) many times over.
pub const HOT: u32 = 4096;
/// Zipf exponent of hot-name popularity.
const ZIPF_S: f64 = 0.9;
pub const LEAF_ZONES: u32 = 16;
const LEAF_SERVERS: u32 = 4;
/// Closed-loop queries outstanding per client thread.
const OUTSTANDING: usize = 32;
/// Fixed open-loop offered rate, queries per second: far below
/// saturation, yet with gaps short enough (100 µs) that the cores do not
/// idle deeply between queries; at lower rates the wake-up from idle
/// dominates and varies the latency.
const OPEN_RATE: f64 = 10_000.0;
/// How far the open-loop sender may fall behind its schedule before the
/// attempt is invalid: queries due during a stall are charged its length
/// as latency. Stalls of 10–25 ms happen on a 2-vCPU VM even with nothing
/// else running. A stall at this limit holds back 500 queries at
/// [`OPEN_RATE`]; only the latency windows it overlaps see it (see
/// [`client::P50_WINDOW`]). The burst that follows a stall of
/// 20 ms or more can overflow the daemon's receive buffer (17 of 180 000
/// datagrams after a 19 ms stall); the client retransmits those (see
/// [`client::RETRY_AFTER`]), and a query counts as failed only when no
/// try gets a reply.
pub const LATE_LIMIT: Duration = Duration::from_millis(50);
/// Share of an untraced run spent in the open loop (the rest is the
/// closed loop, whose figure spreads more from run to run).
const OPEN_SHARE: f64 = 0.4;
/// Open-loop attempts before a run with a stalling generator fails.
const OPEN_ATTEMPTS: u32 = 3;
/// An untraced run is split into this many rounds, each one set-up timed
/// in a child process of its own, an open-loop segment and a closed-loop
/// segment, so that every figure is drawn from the whole run: the host's
/// slow spells last from a fraction of a second to many seconds and
/// would otherwise fall on all of one figure's samples at once. The
/// run's own set-up makes one more; the median is reported. (A child is
/// a cold start, and set-ups repeated inside the measured process would
/// fragment its heap and vary the peak RSS reading.)
const ROUNDS: u64 = 10;
/// Phase number of the direct-call probes' inputs (the closed loops use
/// 100–199, the open loop 300 and up, [`OPEN_ATTEMPTS`] per segment).
const PROBE_PHASE: u64 = 200;
/// Phase number and size of the traced run's miss probe: never-seen
/// torture names sent through the daemon, so that the real-socket miss
/// path (`UdpUpstream` into the loopback `Authd`s) is traced on every
/// live workload, `live_hit` included.
const MISS_PHASE: u64 = 250;
const MISS_QUERIES: u64 = 1024;
/// Worker threads of the daemon are named `resolved-<addr>-w<i>`.
const WORKER_THREAD_PREFIX: &str = "resolved-";
/// Direct-call probes run over this many of the workload's queries.
const PROBE_QUERIES: usize = 20_000;
const PROBE_PASSES: usize = 5;
/// Longest traced closed-loop time, seconds: a second of saturated
/// traffic records about a quarter of a million spans.
const TRACED_PHASE_MAX: f64 = 3.0;
/// Untraced/traced round pairs the traced run alternates.
const TRACED_ROUNDS: usize = 3;
/// The `recv`/`serve`/`send` spans' CPU time per reply (traced) must
/// match the worker threads' CPU time per reply (untraced) within this
/// share; a larger gap means the spans miss part of the worker loop or
/// tracing distorts it.
pub const STAGE_TOLERANCE_PCT: f64 = 25.0;
/// The same spans must hold at least this share of the worker threads'
/// CPU time in the same traced rounds: the spans cover the worker loop.
pub const SPAN_COVER_MIN_PCT: f64 = 90.0;

/// One live workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Share of queries that are water-torture misses.
    pub torture_share: f64,
}

/// `live_hit`: every query names the warmed hot set, so all the work
/// falls on `packetio`, `wirecache` and the `resolved` loop.
pub const LIVE_HIT: Spec = Spec { torture_share: 0.0 };

/// `live_mix`: 90% hot names, 10% water torture (NXNSAttack-style
/// never-repeating labels), so misses run `wire`, `resolver` and
/// `upstream` while sharing workers with the hits.
pub const LIVE_MIX: Spec = Spec { torture_share: 0.1 };

// ---------------------------------------------------------------------
// Names and the expected answers
// ---------------------------------------------------------------------

/// The A record hot name `i` holds (198.18.0.0/15 is the benchmarking
/// range).
pub fn hot_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(198, 18 + (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

fn zone_of(i: u32) -> u32 {
    i % LEAF_ZONES
}

fn parse(s: &str) -> Name {
    s.parse().expect("benchmark names are valid")
}

fn hot_name(i: u32) -> Name {
    parse(&format!("h{i}.z{}.bench", zone_of(i)))
}

fn leaf_apex(k: u32) -> Name {
    parse(&format!("z{k}.bench"))
}

fn question(choice: Choice) -> Question {
    let name = match choice {
        Choice::Hot(i) => hot_name(i),
        Choice::Torture { seq, zone } => parse(&format!("x{seq:x}.z{zone}.bench")),
    };
    Question::new(name, RecordType::A)
}

/// What a correct reply to `choice` carries.
pub fn expect(choice: Choice) -> Expect {
    match choice {
        Choice::Hot(i) => Expect::A(hot_addr(i)),
        Choice::Torture { .. } => Expect::NxDomain,
    }
}

/// Appends the label `<prefix><n>` (decimal or hex) without allocating.
fn push_label(out: &mut Vec<u8>, prefix: u8, n: u64, hex: bool) {
    let len_at = out.len();
    out.push(0);
    out.push(prefix);
    let base = if hex { 16 } else { 10 };
    let digits_at = out.len();
    let mut n = n;
    loop {
        out.push(b"0123456789abcdef"[(n % base) as usize]);
        n /= base;
        if n == 0 {
            break;
        }
    }
    out[digits_at..].reverse();
    out[len_at] = (out.len() - len_at - 1) as u8;
}

/// Writes the query datagram for `choice` with `id` into `out`: one
/// question, recursion desired, names in lowercase. Allocation-free once
/// `out` has grown.
pub fn write_query(id: u16, choice: Choice, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
    let zone = match choice {
        Choice::Hot(i) => {
            push_label(out, b'h', u64::from(i), false);
            zone_of(i)
        }
        Choice::Torture { seq, zone } => {
            push_label(out, b'x', seq, true);
            zone
        }
    };
    push_label(out, b'z', u64::from(zone), false);
    out.extend_from_slice(b"\x05bench\x00\x00\x01\x00\x01");
}

// ---------------------------------------------------------------------
// The tree of authoritative servers
// ---------------------------------------------------------------------

const ROOT_IP: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
const TLD_IP: Ipv4Addr = Ipv4Addr::new(10, 77, 1, 1);

fn leaf_ip(server: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 77, 2, server as u8 + 1)
}

fn root_hints() -> RootHints {
    RootHints::new(vec![(parse("a.root-servers.net"), ROOT_IP)])
}

/// Every authoritative server of the tree with its synthetic address.
fn auth_servers() -> Vec<(Ipv4Addr, AuthServer)> {
    let infra = Ttl::from_days(2);
    let root = ZoneBuilder::new(Name::root())
        .ns(parse("a.root-servers.net"), ROOT_IP, infra)
        .delegate(Delegation::unsigned(
            parse("bench"),
            vec![parse("ns.bench")],
            infra,
            vec![Record::new(parse("ns.bench"), infra, RData::A(TLD_IP))],
        ))
        .build()
        .expect("root zone");
    let mut tld = ZoneBuilder::new(parse("bench")).ns(parse("ns.bench"), TLD_IP, infra);
    for k in 0..LEAF_ZONES {
        let ns = parse(&format!("ns.z{k}.bench"));
        tld = tld.delegate(Delegation::unsigned(
            leaf_apex(k),
            vec![ns.clone()],
            infra,
            vec![Record::new(ns, infra, RData::A(leaf_ip(k % LEAF_SERVERS)))],
        ));
    }
    let mut servers = vec![
        (ROOT_IP, server("a.root-servers.net", ROOT_IP, [root])),
        (
            TLD_IP,
            server("ns.bench", TLD_IP, [tld.build().expect("tld zone")]),
        ),
    ];
    for s in 0..LEAF_SERVERS {
        let zones = (s..LEAF_ZONES).step_by(LEAF_SERVERS as usize).map(|k| {
            let mut z = ZoneBuilder::new(leaf_apex(k)).ns(
                parse(&format!("ns.z{k}.bench")),
                leaf_ip(s),
                infra,
            );
            for i in (k..HOT).step_by(LEAF_ZONES as usize) {
                z = z.a(hot_name(i), hot_addr(i), Ttl::from_days(1));
            }
            z.build().expect("leaf zone")
        });
        servers.push((
            leaf_ip(s),
            server(&format!("leaf{s}.bench"), leaf_ip(s), zones),
        ));
    }
    servers
}

fn server(name: &str, ip: Ipv4Addr, zones: impl IntoIterator<Item = dns_core::Zone>) -> AuthServer {
    let mut s = AuthServer::new(parse(name), ip);
    for z in zones {
        s.add_zone(z);
    }
    s
}

/// The running system under test.
struct System {
    authds: Vec<Authd>,
    daemon: Resolved,
    addr: SocketAddr,
    workers: usize,
    /// Span logs, one per worker (empty when untraced).
    logs: Vec<SharedLog>,
    tracing: Arc<AtomicBool>,
}

impl System {
    fn served_by_authds(&self) -> u64 {
        self.authds.iter().map(Authd::served).sum()
    }

    /// Switches the span wrappers on or off, then waits out the workers'
    /// receive poll (50 ms) twice, so that every worker's next
    /// `recv_batch` starts under the new setting and no span is still
    /// being recorded.
    fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(100));
    }

    fn stop(self) {
        self.daemon.stop();
        for a in self.authds {
            a.stop();
        }
    }
}

/// Boots the tree and the daemon — `nproc` workers over one UDP socket,
/// each with its own `UdpUpstream` — through `Resolved::spawn_io`, with
/// the `PacketIo`/`Upstream` seams wrapped for tracing when `traced`.
fn boot(traced: bool) -> io::Result<System> {
    let mut authds = Vec::new();
    let mut routes = HashMap::new();
    for (ip, s) in auth_servers() {
        let a = Authd::spawn(s, "127.0.0.1:0")?;
        routes.insert(ip, a.addr());
        authds.push(a);
    }
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    // The read timeout the daemon's own bind path sets: the workers'
    // stop-flag poll interval.
    socket.set_read_timeout(Some(Duration::from_millis(50)))?;
    let addr = socket.local_addr()?;
    let mut ios = Vec::new();
    let mut ups = Vec::new();
    for _ in 0..workers {
        ios.push(UdpPacketIo::new(socket.try_clone()?));
        let routes = routes.clone();
        ups.push(UdpUpstream::with_route(
            Duration::from_millis(500),
            move |ip| {
                routes
                    .get(&ip)
                    .copied()
                    .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 9)))
            },
        )?);
    }
    let cs = CachingServer::new(ResolverConfig::vanilla(), root_hints());
    let tracing = Arc::new(AtomicBool::new(false));
    let (daemon, logs) = if traced {
        let logs: Vec<SharedLog> = (0..workers).map(|w| Log::shared(w as u64 + 1)).collect();
        let wrap_io = ios.into_iter().zip(&logs).map(|(inner, log)| TracedIo {
            inner,
            log: Arc::clone(log),
            on: Arc::clone(&tracing),
        });
        let wrap_up = ups
            .into_iter()
            .zip(&logs)
            .map(|(inner, log)| TracedUpstream {
                inner,
                log: Arc::clone(log),
                on: Arc::clone(&tracing),
            });
        let d = Resolved::spawn_io(vec![cs], wrap_up.collect(), wrap_io.collect())?;
        (d, logs)
    } else {
        (Resolved::spawn_io(vec![cs], ups, ios)?, Vec::new())
    };
    Ok(System {
        authds,
        daemon,
        addr,
        workers,
        logs,
        tracing,
    })
}

/// Sends every hot name once, so both the record cache and the wire
/// cache hold the whole hot set.
fn warm(sys: &System) -> io::Result<client::Tally> {
    let source = |t: usize, seq: u64, _: &mut Rng| {
        let i = seq * sys.workers as u64 + t as u64;
        (i < u64::from(HOT)).then_some(Choice::Hot(i as u32))
    };
    Ok(client::closed_loop(sys.addr, sys.workers, OUTSTANDING, None, 0, 0, &source)?.tally)
}

/// Boots and warms the system; returns it and the seconds that took.
/// A warm-up query with no reply adds a retransmission wait to the
/// time; the median over the run's set-ups leaves such a one out.
fn boot_and_warm(traced: bool, report: &mut Report) -> io::Result<(System, f64)> {
    let start = Instant::now();
    let sys = boot(traced)?;
    let tally = warm(&sys)?;
    let secs = start.elapsed().as_secs_f64();
    report.check_tally("warm-up", &tally);
    if tally.timeouts() > 0 {
        report.note(format!(
            "warm-up: {} queries retransmitted, {} lost",
            tally.retransmits, tally.lost
        ));
    }
    Ok((sys, secs))
}

/// One timed set-up, for a child process: `--setup-only`.
pub fn setup_only(report: &mut Report) -> io::Result<f64> {
    let (sys, secs) = boot_and_warm(false, report)?;
    sys.stop();
    Ok(secs)
}

/// Counters a phase is measured between.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    stats: DaemonStats,
    metrics: ResolverMetrics,
    authd_served: u64,
}

/// The counters once the daemon has settled: a worker counts `served`
/// only after `send_batch` returns, which can be just after the client
/// has its reply.
fn snapshot(sys: &System) -> Snapshot {
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        let stats = sys.daemon.stats();
        let received = stats.wire_hits + stats.wire_misses + stats.wire_bypass;
        if stats.served + stats.send_errors >= received || Instant::now() > deadline {
            return Snapshot {
                stats,
                metrics: sys.daemon.metrics(),
                authd_served: sys.served_by_authds(),
            };
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Counter deltas of one phase.
#[derive(Debug, Clone, Copy)]
struct Delta {
    wire_hits: u64,
    wire_misses: u64,
    wire_bypass: u64,
    served: u64,
    send_errors: u64,
    metrics: ResolverMetrics,
    authd_served: u64,
}

impl Delta {
    fn between(a: &Snapshot, b: &Snapshot) -> Delta {
        Delta {
            wire_hits: b.stats.wire_hits - a.stats.wire_hits,
            wire_misses: b.stats.wire_misses - a.stats.wire_misses,
            wire_bypass: b.stats.wire_bypass - a.stats.wire_bypass,
            served: b.stats.served - a.stats.served,
            send_errors: b.stats.send_errors - a.stats.send_errors,
            metrics: b.metrics - a.metrics,
            authd_served: b.authd_served - a.authd_served,
        }
    }

    fn received(&self) -> u64 {
        self.wire_hits + self.wire_misses + self.wire_bypass
    }

    /// Reconciles the daemon's and the authds' counters with what the
    /// generator sent and got answered in the same interval: the daemon
    /// received every answered query at least once, and no more datagrams
    /// than were sent.
    fn reconcile(&self, what: &str, tally: &client::Tally, report: &mut Report) {
        let received = self.received();
        let (sent, answered) = (tally.datagrams(), tally.answered());
        report.require(
            (answered..=sent).contains(&received),
            format!(
                "{what}: wirecache hits+misses+bypass = {received}, but clients sent {sent} datagrams \
                 ({} retransmitted) and had {answered} queries answered",
                tally.retransmits
            ),
        );
        report.require(
            self.served + self.send_errors == received,
            format!(
                "{what}: daemon served {} + {} send errors for {received} packets received",
                self.served, self.send_errors
            ),
        );
        report.require(
            self.metrics.queries_out == self.authd_served,
            format!(
                "{what}: resolver sent {} upstream queries, authds served {}",
                self.metrics.queries_out, self.authd_served
            ),
        );
    }
}

/// Closed-loop rounds of one kind, summed.
#[derive(Debug, Default)]
struct Rounds {
    tally: client::Tally,
    replies: u64,
    secs: f64,
    delta: Option<Delta>,
}

impl Rounds {
    fn add(&mut self, closed: client::Closed, delta: Delta) {
        self.replies += closed.replies_in_window;
        self.secs += closed.window.as_secs_f64();
        self.tally.merge(closed.tally);
        self.delta = Some(match self.delta {
            Some(d) => d + delta,
            None => delta,
        });
    }

    fn qps(&self) -> f64 {
        self.replies as f64 / self.secs
    }
}

impl std::ops::Add for Delta {
    type Output = Delta;

    fn add(self, o: Delta) -> Delta {
        Delta {
            wire_hits: self.wire_hits + o.wire_hits,
            wire_misses: self.wire_misses + o.wire_misses,
            wire_bypass: self.wire_bypass + o.wire_bypass,
            served: self.served + o.served,
            send_errors: self.send_errors + o.send_errors,
            metrics: self.metrics + o.metrics,
            authd_served: self.authd_served + o.authd_served,
        }
    }
}

/// A torture label's sequence number, unique per `(phase, thread,
/// query)`: phases and threads below 256, queries below 2^32 each.
fn unique(phase: u64, thread: u64, seq: u64) -> u64 {
    (phase << 8 | thread) << 32 | seq
}

/// The closed-loop source for the measured phases: the workload's mix,
/// torture labels made unique by `(phase, thread, sequence)`.
fn mix_source(
    mix: &Mix,
    phase: u64,
) -> impl Fn(usize, u64, &mut Rng) -> Option<Choice> + Sync + '_ {
    move |t, seq, rng| Some(mix.draw(rng, unique(phase, t as u64, seq)))
}

/// A closed-loop phase with counter deltas and reconciliation.
fn closed_phase(
    sys: &System,
    mix: &Mix,
    seed: u64,
    phase: u64,
    secs: f64,
    report: &mut Report,
) -> io::Result<(client::Closed, Delta)> {
    let before = snapshot(sys);
    let closed = client::closed_loop(
        sys.addr,
        sys.workers,
        OUTSTANDING,
        Some(Duration::from_secs_f64(secs)),
        seed,
        phase,
        &mix_source(mix, phase),
    )?;
    let delta = Delta::between(&before, &snapshot(sys));
    report.note(format!(
        "closed loop: {:.1} s, {} queries, {} retransmitted, {} lost, {:.0} replies/s",
        closed.window.as_secs_f64(),
        closed.tally.attempted(),
        closed.tally.retransmits,
        closed.tally.lost,
        closed.qps()
    ));
    report.check_tally("closed loop", &closed.tally);
    delta.reconcile("closed loop", &closed.tally, report);
    Ok((closed, delta))
}

/// Open-loop segment `segment` at the workload's fixed rate, repeated
/// when the generator falls behind its schedule by more than
/// [`LATE_LIMIT`].
fn open_phase(
    sys: &System,
    mix: &Mix,
    seed: u64,
    segment: u64,
    secs: f64,
    report: &mut Report,
) -> io::Result<client::Open> {
    let mut attempt = 0;
    loop {
        let phase = 300 + segment * u64::from(OPEN_ATTEMPTS) + u64::from(attempt);
        let due = schedule(seed ^ phase, OPEN_RATE, secs);
        let mut rng = Rng::new(seed, phase);
        let choices: Vec<Choice> = (0..due.len() as u64)
            .map(|i| mix.draw(&mut rng, unique(phase, 0, i)))
            .collect();
        let before = snapshot(sys);
        let open = client::open_loop(sys.addr, &due, &choices)?;
        let delta = Delta::between(&before, &snapshot(sys));
        report.check_tally("open loop", &open.tally);
        delta.reconcile("open loop", &open.tally, report);
        attempt += 1;
        let late = open.late_max;
        report.note(format!(
            "open loop attempt {attempt}: {} queries at {} /s, {} retransmitted, {} lost, generator late by at most {:.3} ms",
            due.len(),
            OPEN_RATE,
            open.tally.retransmits,
            open.tally.lost,
            late.as_secs_f64() * 1e3
        ));
        if late <= LATE_LIMIT {
            return Ok(open);
        }
        if attempt == OPEN_ATTEMPTS {
            report.require(
                false,
                format!(
                    "generator fell behind its schedule by {:.3} ms (limit {} ms) in all {OPEN_ATTEMPTS} attempts",
                    late.as_secs_f64() * 1e3,
                    LATE_LIMIT.as_millis()
                ),
            );
            return Ok(open);
        }
    }
}

/// Runs a live workload and fills `report`.
pub fn run(spec: Spec, seed: u64, secs: f64, traced: bool, report: &mut Report) -> io::Result<()> {
    let mix = Mix::new(seed, HOT as usize, ZIPF_S, spec.torture_share, LEAF_ZONES);
    let (sys, setup_secs) = boot_and_warm(traced, report)?;
    report.note(format!(
        "loopback only: {} daemon workers, {} client threads, {} authds",
        sys.workers,
        sys.workers,
        sys.authds.len()
    ));
    let result = if traced {
        run_traced(&sys, &mix, seed, secs, report)
    } else {
        run_untraced(&sys, &mix, seed, secs, setup_secs, report)
    };
    sys.stop();
    result
}

fn run_untraced(
    sys: &System,
    mix: &Mix,
    seed: u64,
    secs: f64,
    setup_secs: f64,
    report: &mut Report,
) -> io::Result<()> {
    let open_secs = secs * OPEN_SHARE / ROUNDS as f64;
    let closed_secs = secs * (1.0 - OPEN_SHARE) / ROUNDS as f64;
    let mut setups = vec![setup_secs];
    let mut closed = Rounds::default();
    let mut best_qps: f64 = 0.0;
    let mut open_tally = client::Tally::default();
    let mut p50s = Vec::new();
    let mut latency_us = Vec::new();
    for round in 0..ROUNDS {
        setups.push(crate::setup_in_child(report)?);
        let open = open_phase(sys, mix, seed, round, open_secs, report)?;
        if round == 0 {
            // Read after fixed work (set-up and one open-loop segment,
            // rate × time), so the memory high-water mark compares across
            // commits. The closed loop's work grows with throughput — on
            // live_mix every reply adds a negative-cache entry — so it
            // comes after the reading.
            report.e2e("peak_rss_mb", proc::peak_rss_mb());
        }
        p50s.extend(open.window_p50s_us());
        latency_us.extend(open.latency_us);
        open_tally.merge(open.tally);
        let (c, delta) = closed_phase(sys, mix, seed, 100 + round, closed_secs, report)?;
        best_qps = best_qps.max(c.best_window_qps());
        closed.add(c, delta);
    }
    let best_p50 = p50s.iter().copied().fold(f64::INFINITY, f64::min);
    report.e2e(
        "setup_s",
        crate::stats::median(&setups).expect("set-ups > 0"),
    );
    report.e2e("qps", best_qps);
    report.e2e("p50_us", best_p50);
    let lat = crate::stats::sorted(&latency_us);
    report.note(format!(
        "set-up {:.3} to {:.3} s over {} set-ups",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        setups.len()
    ));
    report.note(format!(
        "closed loop: best 1 s {:.0} replies/s, whole loop {:.0}; open loop: best 100 ms p50 {:.1} us, whole loop p50 {:.1} us, p99 {:.1} us over {} queries",
        best_qps,
        closed.qps(),
        best_p50,
        percentile(&lat, 50.0).unwrap_or(f64::NAN),
        percentile(&lat, 99.0).unwrap_or(f64::NAN),
        lat.len()
    ));
    report.count(&closed.tally);
    report.count(&open_tally);
    report.note(format!("daemon: {}", sys.daemon.stats()));
    Ok(())
}

fn run_traced(
    sys: &System,
    mix: &Mix,
    seed: u64,
    secs: f64,
    report: &mut Report,
) -> io::Result<()> {
    // Untraced and traced closed-loop rounds, alternated so that drift in
    // the host's speed falls on both alike; capped so the span log stays
    // small. The open loop takes the rest of the run.
    let round_secs = (secs / 3.0).min(TRACED_PHASE_MAX) / TRACED_ROUNDS as f64;
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let (mut cpu, mut allocs) = (0.0, 0);
    // The daemon's worker threads' CPU seconds, untraced and traced.
    let (mut plain_workers, mut traced_workers) = (0.0, 0.0);
    let workers_cpu = || proc::threads_cpu_secs(WORKER_THREAD_PREFIX);
    for round in 0..TRACED_ROUNDS as u64 {
        let cpu0 = proc::cpu_secs();
        let workers0 = workers_cpu();
        let allocs0 = proc::count_allocs(true);
        let (closed, delta) = closed_phase(sys, mix, seed, 110 + 2 * round, round_secs, report)?;
        allocs += proc::count_allocs(false) - allocs0;
        plain_workers += workers_cpu() - workers0;
        cpu += proc::cpu_secs() - cpu0;
        plain.add(closed, delta);
        let workers0 = workers_cpu();
        sys.set_tracing(true);
        let (closed, delta) = closed_phase(sys, mix, seed, 111 + 2 * round, round_secs, report)?;
        sys.set_tracing(false);
        traced_workers += workers_cpu() - workers0;
        traced.add(closed, delta);
    }
    let mut spans = spans::drain(&sys.logs);
    let delta = traced.delta.expect("rounds > 0");
    let (miss_tally, miss, miss_spans) = miss_probe(sys, report)?;
    let open = open_phase(
        sys,
        mix,
        seed,
        0,
        secs - 2.0 * TRACED_ROUNDS as f64 * round_secs,
        report,
    )?;
    for t in [&plain.tally, &traced.tally, &miss_tally, &open.tally] {
        report.count(t);
    }

    let replies = plain.tally.correct as f64;
    report.layer("proc.cpu_us_per_query", cpu * 1e6 / replies);
    report.layer("proc.allocs_per_query", allocs as f64 / replies);
    report.layer(
        "proc.trace_overhead_pct",
        (1.0 - traced.qps() / plain.qps()) * 100.0,
    );

    let lat = crate::stats::sorted(&open.latency_us);
    report.layer("client.p99_us", percentile(&lat, 99.0).unwrap_or(0.0));
    report.layer("client.late_max_ms", open.late_max.as_secs_f64() * 1e3);
    report.layer(
        "client.timeouts",
        (plain.tally.timeouts()
            + traced.tally.timeouts()
            + miss_tally.timeouts()
            + open.tally.timeouts()) as f64,
    );

    // The closed-loop rounds' spans: the workload's own traffic.
    let t = spans::totals(&spans);
    let get = |l: Layer| t.get(&l).copied().unwrap_or_default();
    let (recv, serve, send) = (get(Layer::Recv), get(Layer::Serve), get(Layer::Send));
    report.layer("packetio.recv_us", recv.mean_cpu_ns() / 1e3);
    report.layer(
        "packetio.recv_wait_us",
        spans::ratio((recv.busy_ns - recv.cpu_ns) as f64, recv.spans as f64) / 1e3,
    );
    report.layer("packetio.send_us", send.mean_cpu_ns() / 1e3);
    report.layer(
        "packetio.pkts_per_batch",
        spans::ratio(recv.items as f64, recv.spans as f64),
    );
    report.layer("packetio.send_errors", delta.send_errors as f64);
    report.layer(
        "resolved.serve_us_per_pkt",
        spans::ratio(serve.busy_ns as f64, serve.items as f64) / 1e3,
    );
    report.layer(
        "resolved.self_us_per_pkt",
        spans::ratio(serve.self_ns as f64, serve.items as f64) / 1e3,
    );

    // The stage spans' CPU time, which leaves out the blocking wait in
    // recv_batch and upstream round trips, against the worker threads'
    // CPU time: per reply untraced (the stage gap, which also holds the
    // tracing overhead), and in total over the same traced rounds (the
    // cover, which falls when the spans miss part of the worker loop).
    let stage_ns = (recv.cpu_ns + serve.cpu_ns + send.cpu_ns) as f64;
    let traced_per_reply = stage_ns / traced.tally.correct as f64;
    let plain_per_reply = plain_workers * 1e9 / plain.tally.correct as f64;
    let gap_pct = (traced_per_reply / plain_per_reply - 1.0) * 100.0;
    let cover_pct = stage_ns / (traced_workers * 1e9) * 100.0;
    report.layer("resolved.stage_gap_pct", gap_pct);
    report.layer("resolved.span_cover_pct", cover_pct);
    report.note(format!(
        "stage reconciliation: recv+serve+send span CPU {:.2} us per reply traced vs worker CPU {:.2} us per reply untraced ({gap_pct:+.1}%, tolerance {STAGE_TOLERANCE_PCT}%); spans hold {cover_pct:.1}% of the workers' traced CPU (at least {SPAN_COVER_MIN_PCT}%)",
        traced_per_reply / 1e3,
        plain_per_reply / 1e3
    ));
    report.require(
        gap_pct.abs() <= STAGE_TOLERANCE_PCT,
        format!("packetio+resolved span CPU differs from untraced worker CPU per reply by {gap_pct:.1}%"),
    );
    report.require(
        cover_pct >= SPAN_COVER_MIN_PCT,
        format!("packetio+resolved spans hold only {cover_pct:.1}% of the workers' CPU time"),
    );

    let lookups = delta.wire_hits + delta.wire_misses;
    report.layer(
        "wirecache.hit_ratio",
        spans::ratio(delta.wire_hits as f64, lookups as f64),
    );
    report.layer("wirecache.lookups", lookups as f64);
    report.layer("wirecache.bypass", delta.wire_bypass as f64);
    report.layer("wirecache.bytes", sys.daemon.stats().wire_bytes as f64);
    report.require(
        delta.received() == recv.items,
        format!(
            "wirecache hits+misses+bypass {} != packets received by recv_batch {}",
            delta.received(),
            recv.items
        ),
    );
    resolver_layer(report, &delta.metrics);

    // Upstream figures cover the rounds and the miss probe: on live_hit
    // only the probe reaches the authds.
    spans.extend(miss_spans);
    let up = spans::totals(&spans)
        .get(&Layer::Upstream)
        .copied()
        .unwrap_or_default();
    let mut rtts: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Upstream)
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    rtts.sort_by(f64::total_cmp);
    let served = delta.authd_served + miss.authd_served;
    let queries_out = delta.metrics.queries_out + miss.metrics.queries_out;
    report.layer("upstream.queries", up.spans as f64);
    report.layer("upstream.rtt_us", percentile(&rtts, 50.0).unwrap_or(0.0));
    report.layer("upstream.timeouts", (up.spans - up.items) as f64);
    report.layer("authd.served", served as f64);
    report.require(
        up.spans == served && up.spans == queries_out && up.spans >= MISS_QUERIES,
        format!(
            "upstream spans {} vs authd served {served} vs resolver queries_out {queries_out} ({MISS_QUERIES} misses probed)",
            up.spans
        ),
    );

    let probe = Probe::new(mix, seed);
    report.layer("wirecache.serve_ns", probe.wirecache_ns());
    let (decode_ns, encode_ns) = probe.wire_ns();
    report.layer("wire.decode_ns", decode_ns);
    report.layer("wire.encode_ns", encode_ns);
    let resolve_self_ns = probe.resolve_self_ns(report);
    report.layer("resolver.resolve_self_ns", resolve_self_ns);

    report.write_spans(&spans)?;
    Ok(())
}

/// The traced run's miss probe: [`MISS_QUERIES`] torture names the
/// daemon has never seen, sent through it with tracing on; each costs one
/// `UdpUpstream` query that a leaf `Authd` answers NXDOMAIN. Returns the
/// probe's reply tally, its counter deltas and its spans.
fn miss_probe(
    sys: &System,
    report: &mut Report,
) -> io::Result<(client::Tally, Delta, Vec<spans::Span>)> {
    let per_thread = MISS_QUERIES / sys.workers as u64;
    let source = |t: usize, seq: u64, _: &mut Rng| {
        (seq < per_thread).then(|| Choice::Torture {
            seq: unique(MISS_PHASE, t as u64, seq),
            zone: (seq % u64::from(LEAF_ZONES)) as u32,
        })
    };
    let before = snapshot(sys);
    sys.set_tracing(true);
    let closed = client::closed_loop(
        sys.addr,
        sys.workers,
        OUTSTANDING,
        None,
        0,
        MISS_PHASE,
        &source,
    )?;
    sys.set_tracing(false);
    let delta = Delta::between(&before, &snapshot(sys));
    report.note(format!(
        "miss probe: {} torture queries, {} retransmitted, {} lost, {} upstream queries",
        closed.tally.attempted(),
        closed.tally.retransmits,
        closed.tally.lost,
        delta.metrics.queries_out
    ));
    report.check_tally("miss probe", &closed.tally);
    delta.reconcile("miss probe", &closed.tally, report);
    Ok((closed.tally, delta, spans::drain(&sys.logs)))
}

/// The resolver counters every workload reports.
pub fn resolver_layer(report: &mut Report, m: &ResolverMetrics) {
    let q = m.queries_in as f64;
    report.layer("resolver.queries_in", q);
    report.layer(
        "resolver.cache_hit_ratio",
        spans::ratio(m.cache_hits as f64, q),
    );
    report.layer(
        "resolver.queries_out_per_query",
        spans::ratio(m.queries_out as f64, q),
    );
    report.layer("resolver.retries", m.retries as f64);
    report.layer("resolver.renewals_sent", m.renewals_sent as f64);
    report.layer("resolver.refreshes", m.refreshes as f64);
}

/// Direct calls into layers that have no seam, over the workload's own
/// queries: the first [`PROBE_QUERIES`] of its mix.
struct Probe {
    choices: Vec<Choice>,
    datagrams: Vec<Vec<u8>>,
}

/// The tree's servers answering in process, for the resolver probe.
struct InProcess(HashMap<Ipv4Addr, AuthServer>);

impl Upstream for InProcess {
    fn query(&mut self, server: Ipv4Addr, query: &Message, _now: SimTime) -> Option<Message> {
        self.0.get(&server).map(|s| s.handle_query(query))
    }
}

impl Probe {
    fn new(mix: &Mix, seed: u64) -> Probe {
        let mut rng = Rng::new(seed, PROBE_PHASE);
        let choices: Vec<Choice> = (0..PROBE_QUERIES as u64)
            .map(|i| mix.draw(&mut rng, unique(PROBE_PHASE, 0, i)))
            .collect();
        let datagrams = choices
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut d = Vec::new();
                write_query(i as u16, c, &mut d);
                d
            })
            .collect();
        Probe { choices, datagrams }
    }

    /// The reply the daemon's slow path would build for `choice`.
    fn response(choice: Choice) -> Message {
        let q = Message::query(0, question(choice));
        let mut r = Message::response_to(&q);
        r.header.recursion_available = true;
        match choice {
            Choice::Hot(i) => r.answers.push(Record::new(
                hot_name(i),
                Ttl::from_days(1),
                RData::A(hot_addr(i)),
            )),
            Choice::Torture { .. } => r.header.rcode = Rcode::NxDomain,
        }
        r
    }

    fn time_ns(&self, mut each: impl FnMut(usize)) -> f64 {
        let start = Instant::now();
        for _ in 0..PROBE_PASSES {
            for i in 0..self.datagrams.len() {
                each(i);
            }
        }
        start.elapsed().as_nanos() as f64 / (PROBE_PASSES * self.datagrams.len()) as f64
    }

    /// ns per `fast_query` + `lowercase_key` + `WireCache::serve` over a
    /// cache holding the compiled hot set.
    fn wirecache_ns(&self) -> f64 {
        let mut cache = WireCache::new(DEFAULT_WIRE_CACHE_BYTES);
        let built = SimTime::from_secs(1_000);
        for i in 0..HOT {
            let (bytes, offsets) =
                wire::encode_with_ttl_offsets(&Probe::response(Choice::Hot(i))).expect("encodes");
            let expires = built + dns_core::SimDuration::from_days(1);
            cache.insert(
                &hot_name(i),
                RecordType::A,
                &bytes,
                &offsets,
                built,
                expires,
            );
        }
        let mut key = Vec::with_capacity(dns_core::MAX_NAME_LEN);
        let mut out = [0u8; wire::MAX_MESSAGE_LEN];
        let now = built + dns_core::SimDuration::from_secs(60);
        self.time_ns(|i| {
            let d = black_box(&self.datagrams[i]);
            if let Some(fq) = fast_query(d) {
                lowercase_key(fq.raw_name, &mut key);
                black_box(cache.serve(&key, fq.rtype, d, now, &mut out));
            }
        })
    }

    /// ns per `wire::decode` of a query and per
    /// `wire::encode_with_ttl_offsets` of its reply.
    fn wire_ns(&self) -> (f64, f64) {
        let decode = self.time_ns(|i| {
            black_box(wire::decode(black_box(&self.datagrams[i])).ok());
        });
        let responses: Vec<Message> = self.choices.iter().map(|&c| Probe::response(c)).collect();
        let encode = self.time_ns(|i| {
            black_box(wire::encode_with_ttl_offsets(black_box(&responses[i])).ok());
        });
        (decode, encode)
    }

    /// Mean self time (ns) of `CachingServer::resolve` over the probe
    /// queries, upstream spans subtracted, after warming the hot set;
    /// the upstream is the tree's servers answering in process.
    fn resolve_self_ns(&self, report: &mut Report) -> f64 {
        let mut cs = CachingServer::new(ResolverConfig::vanilla(), root_hints());
        let log = Log::shared(99);
        let on = Arc::new(AtomicBool::new(false));
        let mut up = TracedUpstream {
            inner: InProcess(auth_servers().into_iter().collect()),
            log: Arc::clone(&log),
            on: Arc::clone(&on),
        };
        let now = SimTime::from_secs(1_000);
        for i in 0..HOT {
            cs.resolve(&question(Choice::Hot(i)), now, &mut up);
        }
        let questions: Vec<Question> = self.choices.iter().map(|&c| question(c)).collect();
        on.store(true, Ordering::Relaxed);
        let mut wrong = 0;
        for (q, &c) in questions.iter().zip(&self.choices) {
            log.lock()
                .expect("probe log")
                .open(Layer::Resolve, spans::now_ns(), 0, 1);
            let outcome = cs.resolve(q, now, &mut up);
            log.lock().expect("probe log").close(spans::now_ns(), 0);
            let ok = matches!(
                (c, &outcome),
                (Choice::Hot(_), Outcome::Answer { .. })
                    | (Choice::Torture { .. }, Outcome::NxDomain { .. })
            );
            wrong += u64::from(!ok);
        }
        report.require(
            wrong == 0,
            format!("resolver probe: {wrong} wrong outcomes"),
        );
        let t = spans::totals(&spans::drain(&[log]));
        let r = t.get(&Layer::Resolve).copied().unwrap_or_default();
        spans::ratio(r.self_ns as f64, r.spans as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_match_the_library_encoding() {
        let mut out = Vec::new();
        for (id, c) in [
            (7, Choice::Hot(0)),
            (65_535, Choice::Hot(4095)),
            (
                1,
                Choice::Torture {
                    seq: 0xabc << 40 | 9,
                    zone: 15,
                },
            ),
        ] {
            write_query(id, c, &mut out);
            let mut q = Message::query(id, question(c));
            q.header.recursion_desired = true;
            assert_eq!(out, wire::encode(&q).unwrap(), "{c:?}");
            assert!(fast_query(&out).is_some());
        }
    }

    #[test]
    fn tree_answers_hot_names_and_refuses_torture() {
        let mut net = InProcess(auth_servers().into_iter().collect());
        let mut cs = CachingServer::new(ResolverConfig::vanilla(), root_hints());
        let now = SimTime::from_secs(10);
        for c in [
            Choice::Hot(0),
            Choice::Hot(HOT - 1),
            Choice::Torture { seq: 1, zone: 3 },
        ] {
            let outcome = cs.resolve(&question(c), now, &mut net);
            match (c, outcome) {
                (Choice::Hot(i), Outcome::Answer { records, .. }) => {
                    assert!(records.iter().any(|r| *r.rdata() == RData::A(hot_addr(i))));
                }
                (Choice::Torture { .. }, Outcome::NxDomain { .. }) => {}
                (c, o) => panic!("{c:?} resolved to {o:?}"),
            }
        }
    }
}
