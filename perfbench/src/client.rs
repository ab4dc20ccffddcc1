//! The load generator: UDP clients in the benchmark's own process that
//! send real datagrams to the daemon over loopback, and the classifier
//! that checks every reply.
//!
//! Two loops:
//! * [`closed_loop`] — each client thread keeps a fixed window of
//!   queries outstanding and sends the next only when a reply arrives
//!   (callers that wait for their answer). It measures saturated
//!   throughput.
//! * [`open_loop`] — queries leave on a seeded Poisson schedule whatever
//!   the daemon does (independent users). Latency is timed from each
//!   query's *due* time, so a stall in the generator is charged to the
//!   queries it delayed instead of vanishing, and the run reports how
//!   late the generator ran.
//!
//! Both loops retransmit, as a stub resolver does over UDP (RFC 1035
//! §4.2.1): a query with no reply after [`RETRY_AFTER`] is sent again with
//! the same ID, up to [`TRIES`] sends in all, and only a query with no
//! reply to any of them is lost. Loopback drops a datagram only when a
//! receive buffer overflows, which a stall of the host's scheduler can
//! cause; a retransmission recovers it and the open loop charges the wait
//! to that query's latency.

use crate::inputs::{Choice, Rng};
use crate::live::{expect, write_query};
use crate::stats::{percentile, sorted};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A query with no reply after this long is sent again.
pub const RETRY_AFTER: Duration = Duration::from_millis(250);
/// Sends per query, the first included; with no reply to any of them
/// within [`RETRY_AFTER`], the query is lost.
pub const TRIES: u8 = 4;
/// A query with no reply this long after its first send is lost.
pub const LOST_AFTER: Duration = Duration::from_millis(250 * TRIES as u64);

/// What a correct reply must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// NOERROR with this A record in the answer section.
    A(Ipv4Addr),
    /// NXDOMAIN with an empty answer section.
    NxDomain,
}

/// The verdict on one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    Wrong(&'static str),
}

/// Checks `reply` against the `query` datagram it answers: same ID, a
/// response to a plain query, the question echoed byte for byte (name
/// casing included), and the expected content. Allocation-free, so the
/// generator adds nothing to the process's allocation count.
pub fn classify(query: &[u8], reply: &[u8], expect: Expect) -> Verdict {
    let qend = query.len();
    if reply.len() < qend || qend < 12 {
        return Verdict::Wrong("short reply");
    }
    if reply[0..2] != query[0..2] {
        return Verdict::Wrong("id mismatch");
    }
    if reply[2] & 0x80 == 0 || (reply[2] >> 3) & 0x0f != 0 {
        return Verdict::Wrong("not a query response");
    }
    if reply[4..6] != [0, 1] || reply[12..qend] != query[12..qend] {
        return Verdict::Wrong("question not echoed");
    }
    let rcode = reply[3] & 0x0f;
    let ancount = u16::from_be_bytes([reply[6], reply[7]]);
    match expect {
        Expect::NxDomain if rcode == 3 && ancount == 0 => Verdict::Correct,
        Expect::NxDomain => Verdict::Wrong("expected NXDOMAIN"),
        Expect::A(_) if rcode != 0 => Verdict::Wrong("expected NOERROR"),
        Expect::A(addr) => {
            if has_a_record(reply, qend, ancount, addr) {
                Verdict::Correct
            } else {
                Verdict::Wrong("answer lacks the zone's A record")
            }
        }
    }
}

/// Walks `ancount` answer records from `pos`, looking for `IN A addr`.
fn has_a_record(msg: &[u8], mut pos: usize, ancount: u16, addr: Ipv4Addr) -> bool {
    for _ in 0..ancount {
        // Owner name: labels ending in a zero byte or a pointer.
        loop {
            let Some(&len) = msg.get(pos) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                pos += 2;
                break;
            }
            pos += 1 + len as usize;
            if len == 0 {
                break;
            }
        }
        let Some(fixed) = msg.get(pos..pos + 10) else {
            return false;
        };
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        let Some(rdata) = msg.get(pos + 10..pos + 10 + rdlen) else {
            return false;
        };
        if fixed[0..4] == [0, 1, 0, 1] && rdata == addr.octets() {
            return true;
        }
        pos += 10 + rdlen;
    }
    false
}

/// Reply outcomes of one loop.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub correct: u64,
    pub wrong: u64,
    /// No reply within [`LOST_AFTER`].
    pub lost: u64,
    /// Datagrams sent again after [`RETRY_AFTER`] without a reply.
    pub retransmits: u64,
    /// The first wrong reply, for the report.
    pub first_wrong: Option<String>,
}

impl Tally {
    fn record(&mut self, verdict: Verdict, choice: Choice) {
        match verdict {
            Verdict::Correct => self.correct += 1,
            Verdict::Wrong(why) => {
                self.wrong += 1;
                if self.first_wrong.is_none() {
                    self.first_wrong = Some(format!("{why} for {choice:?}"));
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.lost += other.lost;
        self.retransmits += other.retransmits;
        self.first_wrong = self.first_wrong.take().or(other.first_wrong);
    }

    pub fn attempted(&self) -> u64 {
        self.correct + self.wrong + self.lost
    }

    /// Queries that got a reply, right or wrong.
    pub fn answered(&self) -> u64 {
        self.correct + self.wrong
    }

    /// Datagrams sent: every query once, plus retransmissions.
    pub fn datagrams(&self) -> u64 {
        self.attempted() + self.retransmits
    }

    /// Waits of [`RETRY_AFTER`] that ended without a reply: each led to a
    /// retransmission or, after the last try, to a loss.
    pub fn timeouts(&self) -> u64 {
        self.retransmits + self.lost
    }
}

/// Which query a client thread sends next: `(thread, per-thread sequence,
/// thread's RNG)` → a choice, or `None` when the thread has no more.
pub type Source<'a> = dyn Fn(usize, u64, &mut Rng) -> Option<Choice> + Sync + 'a;

/// Throughput is counted in slices of this length.
pub const SLICE: Duration = Duration::from_millis(100);

/// Result of a [`closed_loop`].
#[derive(Debug, Default)]
pub struct Closed {
    /// Replies that arrived before the measuring window closed.
    pub replies_in_window: u64,
    /// Replies per [`SLICE`] of the measuring window.
    pub per_slice: Vec<u64>,
    /// Length of the measuring window.
    pub window: Duration,
    pub tally: Tally,
}

impl Closed {
    /// Replies per second over the whole window.
    pub fn qps(&self) -> f64 {
        self.replies_in_window as f64 / self.window.as_secs_f64()
    }

    /// The highest reply rate sustained over any [`BEST_WINDOW`] of the
    /// measuring window (sliding by one [`SLICE`]), or over the whole
    /// window when it is shorter.
    pub fn best_window_qps(&self) -> f64 {
        let full = (self.window.as_nanos() / SLICE.as_nanos()) as usize;
        let slices = &self.per_slice[..full.min(self.per_slice.len())];
        let k = (BEST_WINDOW.as_nanos() / SLICE.as_nanos()) as usize;
        if slices.len() < k {
            return self.qps();
        }
        let best = slices
            .windows(k)
            .map(|w| w.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        best as f64 / BEST_WINDOW.as_secs_f64()
    }
}

/// Closed-loop throughput is taken over windows this long, and the least
/// disturbed window is reported: interference from the rest of the host
/// only ever slows a window down, so the best one is the steadiest
/// estimate of what the system itself costs. Whole-loop figures are
/// printed beside them.
pub const BEST_WINDOW: Duration = Duration::from_secs(1);

/// Open-loop latency is taken over windows this long (1 000 queries at
/// the live workloads' rate), and the lowest window median is reported.
/// Short disturbances of the host (stalls of a few to tens of ms) fall in
/// some 100 ms windows and not in others, so short windows find the
/// undisturbed stretches that one-second windows miss.
pub const P50_WINDOW: Duration = Duration::from_millis(100);

/// Closed loop: `threads` clients, one socket each, every client keeping
/// `window` queries outstanding. Runs until `duration` is up (when given)
/// or `source` runs dry, then waits for what is still outstanding.
pub fn closed_loop(
    target: SocketAddr,
    threads: usize,
    window: usize,
    duration: Option<Duration>,
    seed: u64,
    stream: u64,
    source: &Source<'_>,
) -> io::Result<Closed> {
    let start = Instant::now();
    let stop_at = duration.map(|d| start + d);
    let results: Vec<io::Result<(Vec<u64>, Tally)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut rng = Rng::new(seed, stream << 8 | t as u64);
                s.spawn(move || closed_client(target, window, start, stop_at, t, &mut rng, source))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut closed = Closed {
        window: stop_at.map_or_else(|| start.elapsed(), |t| t - start),
        ..Closed::default()
    };
    for r in results {
        let (slices, tally) = r?;
        if closed.per_slice.len() < slices.len() {
            closed.per_slice.resize(slices.len(), 0);
        }
        for (total, n) in closed.per_slice.iter_mut().zip(slices) {
            *total += n;
        }
        closed.tally.merge(tally);
    }
    closed.replies_in_window = closed.per_slice.iter().sum();
    Ok(closed)
}

/// Low bits of a closed-loop query ID: the window slot it occupies. The
/// high bits count how often that slot was reused, so a reply that comes
/// after its query was given up on does not match the slot's new query.
const SLOT_BITS: u32 = 6;
pub const MAX_WINDOW: usize = 1 << SLOT_BITS;

/// One outstanding closed-loop query.
#[derive(Clone, Copy)]
struct Slot {
    id: u16,
    choice: Choice,
    /// When it was last sent.
    sent: Instant,
    /// How often it was sent.
    tries: u8,
}

/// One closed-loop client's state.
struct Client<'a, 's> {
    sock: UdpSocket,
    thread: usize,
    rng: &'a mut Rng,
    source: &'a Source<'s>,
    /// Outstanding queries by window slot.
    slots: Vec<Option<Slot>>,
    /// Times each slot was used, the high bits of its next ID.
    uses: Vec<u16>,
    free: Vec<usize>,
    query: Vec<u8>,
    seq: u64,
    tally: Tally,
}

impl Client<'_, '_> {
    fn outstanding(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Sends the source's next query into a free slot; `false` once the
    /// source is dry.
    fn send_next(&mut self) -> io::Result<bool> {
        let Some(choice) = (self.source)(self.thread, self.seq, self.rng) else {
            return Ok(false);
        };
        let slot = self.free.pop().expect("a free slot while below the window");
        self.uses[slot] = self.uses[slot].wrapping_add(1);
        let id = self.uses[slot] << SLOT_BITS | slot as u16;
        write_query(id, choice, &mut self.query);
        self.slots[slot] = Some(Slot {
            id,
            choice,
            sent: Instant::now(),
            tries: 1,
        });
        self.sock.send(&self.query)?;
        self.seq += 1;
        Ok(true)
    }

    /// The outstanding query a reply with `id` answers, if any.
    fn take(&mut self, id: u16) -> Option<Slot> {
        let slot = id as usize & (MAX_WINDOW - 1);
        let entry = self.slots.get_mut(slot)?;
        if entry.is_some_and(|s| s.id == id) {
            self.free.push(slot);
            entry.take()
        } else {
            None
        }
    }

    /// Sends again every query [`RETRY_AFTER`] without a reply, and gives
    /// up on those already sent [`TRIES`] times; returns how many it gave
    /// up on.
    fn expire(&mut self, now: Instant) -> io::Result<usize> {
        let mut expired = 0;
        for i in 0..self.slots.len() {
            let Some(s) = self.slots[i].as_mut() else {
                continue;
            };
            if now.duration_since(s.sent) < RETRY_AFTER {
                continue;
            }
            if s.tries < TRIES {
                s.tries += 1;
                s.sent = now;
                let (id, choice) = (s.id, s.choice);
                write_query(id, choice, &mut self.query);
                self.sock.send(&self.query)?;
                self.tally.retransmits += 1;
            } else {
                self.slots[i] = None;
                self.free.push(i);
                expired += 1;
            }
        }
        self.tally.lost += expired as u64;
        Ok(expired)
    }
}

fn closed_client(
    target: SocketAddr,
    window: usize,
    start: Instant,
    stop_at: Option<Instant>,
    thread: usize,
    rng: &mut Rng,
    source: &Source<'_>,
) -> io::Result<(Vec<u64>, Tally)> {
    assert!(
        window <= MAX_WINDOW,
        "window of {window} exceeds {MAX_WINDOW}"
    );
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(target)?;
    sock.set_read_timeout(Some(Duration::from_millis(10)))?;
    let mut c = Client {
        sock,
        thread,
        rng,
        source,
        slots: vec![None; window],
        uses: vec![0; window],
        free: (0..window).rev().collect(),
        query: Vec::with_capacity(512),
        seq: 0,
        tally: Tally::default(),
    };
    let mut buf = [0u8; 4096];
    let mut per_slice: Vec<u64> = Vec::with_capacity(1024);
    let mut exhausted = false;
    while c.outstanding() < window && !exhausted {
        exhausted = !c.send_next()?;
    }
    let mut next_expiry = Instant::now() + EXPIRY_CHECK;
    loop {
        let now = Instant::now();
        let sending = !exhausted && stop_at.is_none_or(|t| now < t);
        if c.outstanding() == 0 && !sending {
            break;
        }
        // Replies to the other outstanding queries keep `recv` from
        // timing out, so overdue queries are looked for on a clock.
        let mut refill = 0;
        if now >= next_expiry {
            refill += c.expire(now)?;
            next_expiry = now + EXPIRY_CHECK;
        }
        refill += match c.sock.recv(&mut buf) {
            Ok(n) => {
                let at = Instant::now();
                let id = u16::from_be_bytes([buf[0], buf[1]]);
                let Some(slot) = c.take(id) else {
                    // A second reply to a retransmitted query, or a reply
                    // to one given up on, is late, not wrong; with nothing
                    // retransmitted it cannot be ours.
                    if c.tally.timeouts() == 0 {
                        c.tally.record(
                            Verdict::Wrong("reply to no outstanding query"),
                            Choice::Hot(0),
                        );
                    }
                    continue;
                };
                write_query(id, slot.choice, &mut c.query);
                let verdict = classify(&c.query, &buf[..n], expect(slot.choice));
                c.tally.record(verdict, slot.choice);
                if stop_at.is_none_or(|t| at < t) {
                    let slice = (at.duration_since(start).as_nanos() / SLICE.as_nanos()) as usize;
                    if per_slice.len() <= slice {
                        per_slice.resize(slice + 1, 0);
                    }
                    per_slice[slice] += 1;
                }
                1
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                0
            }
            Err(e) => return Err(e),
        };
        if sending {
            for _ in 0..refill {
                if !c.send_next()? {
                    exhausted = true;
                    break;
                }
            }
        }
    }
    Ok((per_slice, c.tally))
}

/// How often the loops look for queries overdue for a retransmission.
const EXPIRY_CHECK: Duration = Duration::from_millis(10);

/// Result of an [`open_loop`].
#[derive(Debug, Default)]
pub struct Open {
    /// Each query's due time, ns from the start of the schedule.
    pub due: Vec<u64>,
    /// Reply latency per query in µs, timed from the due time; lost and
    /// wrong replies are `f64::INFINITY` (they miss any latency limit).
    pub latency_us: Vec<f64>,
    /// How far behind its schedule the sender ever ran.
    pub late_max: Duration,
    pub tally: Tally,
}

/// The open-loop sender's timer slack, ns: it wakes within about this of
/// each due time instead of the default 50 µs late, which was more than
/// half of the measured median latency.
const SENDER_TIMER_SLACK_NS: u64 = 1_000;

/// Open loop: one client socket shared by a sender thread that follows
/// the `due` schedule (ns offsets from the start) and a receiver that
/// classifies and times every reply and retransmits overdue queries.
/// `choices[i]` is query `i`.
pub fn open_loop(target: SocketAddr, due: &[u64], choices: &[Choice]) -> io::Result<Open> {
    assert_eq!(due.len(), choices.len());
    if due.is_empty() {
        return Ok(Open::default());
    }
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    tx.connect(target)?;
    let rx = tx.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_millis(20)))?;
    let n = due.len();
    let sent = AtomicUsize::new(0);
    let late_max_ns = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let at = |i: usize| t0 + Duration::from_nanos(due[i]);

    let mut latency_us = vec![f64::NAN; n];
    let mut tries = vec![1u8; n];
    let mut tally = Tally::default();
    let send_result = std::thread::scope(|s| -> io::Result<()> {
        let sender = s.spawn(|| -> io::Result<()> {
            // Sleeps must end on time, or the oversleep is charged to the
            // daemon as latency.
            crate::proc::set_timer_slack(SENDER_TIMER_SLACK_NS);
            let mut query = Vec::with_capacity(512);
            let mut late_max = 0u64;
            for (i, &choice) in choices.iter().enumerate() {
                let due_at = at(i);
                let mut now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                    now = Instant::now();
                }
                late_max = late_max.max(now.saturating_duration_since(due_at).as_nanos() as u64);
                write_query(i as u16, choice, &mut query);
                // Publish before sending: a reply can only follow its query.
                sent.store(i + 1, Ordering::Release);
                tx.send(&query)?;
            }
            late_max_ns.store(late_max, Ordering::Relaxed);
            Ok(())
        });
        let mut query = Vec::with_capacity(512);
        let mut buf = [0u8; 4096];
        let mut answered = 0usize;
        let last_due = at(n.saturating_sub(1));
        let mut retry = Retry::default();
        let mut next_expiry = Instant::now() + EXPIRY_CHECK;
        while answered < n && Instant::now() < last_due + LOST_AFTER {
            let now = Instant::now();
            if now >= next_expiry {
                next_expiry = now + EXPIRY_CHECK;
                let sent = sent.load(Ordering::Acquire);
                for i in retry.overdue(now, sent, &at, &latency_us, &mut tries) {
                    write_query(i as u16, choices[i], &mut query);
                    rx.send(&query)?;
                    tally.retransmits += 1;
                }
            }
            let len = match rx.recv(&mut buf) {
                Ok(len) => len,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if sender.is_finished() && sent.load(Ordering::Acquire) < n {
                        break; // the sender failed; its error is reported below
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            let now = Instant::now();
            let id = u16::from_be_bytes([buf[0], buf[1]]);
            let Some(i) = seq_for_id(id, sent.load(Ordering::Acquire)) else {
                tally.record(Verdict::Wrong("reply to no sent query"), Choice::Hot(0));
                continue;
            };
            write_query(id, choices[i], &mut query);
            let verdict = classify(&query, &buf[..len], expect(choices[i]));
            if !latency_us[i].is_nan() {
                // A retransmitted query can be answered more than once.
                if tries[i] == 1 {
                    tally.record(Verdict::Wrong("duplicate reply"), choices[i]);
                } else if verdict != Verdict::Correct {
                    tally.record(verdict, choices[i]);
                }
                continue;
            }
            tally.record(verdict, choices[i]);
            answered += 1;
            latency_us[i] = match verdict {
                Verdict::Correct => now.saturating_duration_since(at(i)).as_secs_f64() * 1e6,
                Verdict::Wrong(_) => f64::INFINITY,
            };
        }
        sender.join().expect("sender thread panicked")
    });
    send_result?;
    for l in latency_us.iter_mut().filter(|l| l.is_nan()) {
        *l = f64::INFINITY;
        tally.lost += 1;
    }
    Ok(Open {
        due: due.to_vec(),
        latency_us,
        late_max: Duration::from_nanos(late_max_ns.load(Ordering::Relaxed)),
        tally,
    })
}

impl Open {
    /// The median latency (µs) of each full [`P50_WINDOW`] of the
    /// schedule, or the whole loop's median when the schedule is shorter
    /// than a window.
    pub fn window_p50s_us(&self) -> Vec<f64> {
        let span = P50_WINDOW.as_nanos() as u64;
        let full = self.due.last().map_or(0, |&t| t / span);
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); full as usize];
        for (&t, &l) in self.due.iter().zip(&self.latency_us) {
            if let Some(w) = windows.get_mut((t / span) as usize) {
                w.push(l);
            }
        }
        let medians: Vec<f64> = windows
            .iter()
            .filter_map(|w| percentile(&sorted(w), 50.0))
            .collect();
        if medians.is_empty() {
            percentile(&sorted(&self.latency_us), 50.0)
                .into_iter()
                .collect()
        } else {
            medians
        }
    }
}

/// The open loop's retransmission schedule. Queries are first due in
/// sequence order, so one cursor finds those [`RETRY_AFTER`] past their
/// due time; the ones sent again wait in a queue ordered by deadline.
#[derive(Default)]
struct Retry {
    /// The first query not yet checked for a missing reply.
    cursor: usize,
    /// Retransmitted queries: when to check each again.
    again: std::collections::VecDeque<(Instant, usize)>,
}

impl Retry {
    /// The queries to send again at `now`, among the first `sent`; bumps
    /// their `tries`. A query is unanswered while its latency is NaN, and
    /// one sent [`TRIES`] times is left to be counted lost.
    fn overdue(
        &mut self,
        now: Instant,
        sent: usize,
        due_at: &dyn Fn(usize) -> Instant,
        latency_us: &[f64],
        tries: &mut [u8],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(&(deadline, i)) = self.again.front() {
            if deadline > now {
                break;
            }
            self.again.pop_front();
            if latency_us[i].is_nan() && tries[i] < TRIES {
                out.push(i);
            }
        }
        while self.cursor < sent && due_at(self.cursor) + RETRY_AFTER <= now {
            if latency_us[self.cursor].is_nan() {
                out.push(self.cursor);
            }
            self.cursor += 1;
        }
        for &i in &out {
            tries[i] += 1;
            self.again.push_back((now + RETRY_AFTER, i));
        }
        out
    }
}

/// The open-loop query a reply with `id` answers: the latest query sent
/// (of the first `sent`) whose sequence number has those low 16 bits.
/// Older namesakes are 65 536 queries back, far beyond [`LOST_AFTER`] at
/// the rates this benchmark offers.
pub fn seq_for_id(id: u16, sent: usize) -> Option<usize> {
    let last = sent.checked_sub(1)?;
    let back = (last as u16).wrapping_sub(id) as usize;
    last.checked_sub(back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{wire, Message, Question, RData, Rcode, Record, RecordType, Ttl};

    fn hot_query(name: &str) -> (Vec<u8>, Message) {
        let q = Message::query(0x1234, Question::new(name.parse().unwrap(), RecordType::A));
        (wire::encode(&q).unwrap(), q)
    }

    fn answer(q: &Message, addr: Ipv4Addr) -> Vec<u8> {
        let mut r = Message::response_to(q);
        let owner = q.question().unwrap().name.clone();
        r.answers
            .push(Record::new(owner, Ttl::from_hours(1), RData::A(addr)));
        wire::encode(&r).unwrap()
    }

    #[test]
    fn correct_answers_pass() {
        let addr = Ipv4Addr::new(198, 18, 0, 7);
        let (qb, q) = hot_query("h7.z7.bench");
        assert_eq!(
            classify(&qb, &answer(&q, addr), Expect::A(addr)),
            Verdict::Correct
        );
        let mut nx = Message::response_to(&q);
        nx.header.rcode = Rcode::NxDomain;
        let nxb = wire::encode(&nx).unwrap();
        assert_eq!(classify(&qb, &nxb, Expect::NxDomain), Verdict::Correct);
    }

    #[test]
    fn wrong_answers_are_caught() {
        let addr = Ipv4Addr::new(198, 18, 0, 7);
        let (qb, q) = hot_query("h7.z7.bench");
        let good = answer(&q, addr);
        // Wrong address.
        let other = answer(&q, Ipv4Addr::new(198, 18, 0, 8));
        assert!(matches!(
            classify(&qb, &other, Expect::A(addr)),
            Verdict::Wrong(_)
        ));
        // Wrong ID.
        let mut bad = good.clone();
        bad[1] ^= 1;
        assert_eq!(
            classify(&qb, &bad, Expect::A(addr)),
            Verdict::Wrong("id mismatch")
        );
        // Question not echoed (casing counts).
        let mut bad = good.clone();
        bad[13] = b'H';
        assert_eq!(
            classify(&qb, &bad, Expect::A(addr)),
            Verdict::Wrong("question not echoed")
        );
        // NOERROR where NXDOMAIN was due, and the reverse.
        assert!(matches!(
            classify(&qb, &good, Expect::NxDomain),
            Verdict::Wrong(_)
        ));
        let mut nx = Message::response_to(&q);
        nx.header.rcode = Rcode::NxDomain;
        let nxb = wire::encode(&nx).unwrap();
        assert!(matches!(
            classify(&qb, &nxb, Expect::A(addr)),
            Verdict::Wrong(_)
        ));
        // The query itself is not a reply; truncated bytes are not either.
        assert!(matches!(
            classify(&qb, &qb, Expect::A(addr)),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            classify(&qb, &good[..20], Expect::A(addr)),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            classify(&qb, &good[..good.len() - 2], Expect::A(addr)),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn tally_counts_lost_separately() {
        let mut t = Tally::default();
        t.record(Verdict::Correct, Choice::Hot(1));
        t.record(Verdict::Wrong("x"), Choice::Hot(2));
        t.lost += 1;
        let mut u = Tally::default();
        u.record(Verdict::Wrong("y"), Choice::Hot(3));
        u.retransmits = 5;
        t.merge(u);
        assert_eq!((t.correct, t.wrong, t.lost, t.attempted()), (1, 2, 1, 4));
        assert_eq!((t.answered(), t.datagrams(), t.timeouts()), (3, 9, 6));
        assert_eq!(t.first_wrong.as_deref(), Some("x for Hot(2)"));
    }

    #[test]
    fn best_windows() {
        let closed = Closed {
            per_slice: vec![10; 25].into_iter().chain([50, 0]).collect(),
            window: Duration::from_millis(2_650),
            ..Closed::default()
        };
        // Slices 16..26 hold 9 × 10 + 50 replies; slice 26 is partial.
        assert_eq!(closed.best_window_qps(), 140.0);
        let short = Closed {
            per_slice: vec![5; 4],
            replies_in_window: 20,
            window: Duration::from_millis(400),
            ..Closed::default()
        };
        assert_eq!(short.best_window_qps(), 50.0);

        let due: Vec<u64> = (0..25).map(|i| i * 10_000_000).collect();
        let mut latency_us: Vec<f64> = (0..25).map(|i| 100.0 + i as f64).collect();
        latency_us[12] = f64::INFINITY;
        let open = Open {
            due,
            latency_us,
            ..Open::default()
        };
        // Windows 0 and 1 are full (the last query is at 240 ms); their
        // nearest-rank medians are 104 and 115 (the lost query sorts last).
        assert_eq!(open.window_p50s_us(), vec![104.0, 115.0]);
        let one = Open {
            due: vec![0, 1, 2],
            latency_us: vec![7.0, 9.0, 8.0],
            ..Open::default()
        };
        assert_eq!(one.window_p50s_us(), vec![8.0]);
    }

    #[test]
    fn reply_ids_map_to_the_latest_namesake() {
        assert_eq!(seq_for_id(0, 0), None);
        assert_eq!(seq_for_id(3, 10), Some(3));
        assert_eq!(seq_for_id(11, 10), None);
        assert_eq!(seq_for_id(5, 70_000), Some(65_541));
        assert_eq!(seq_for_id(65_535, 70_000), Some(65_535));
    }

    #[test]
    fn loops_classify_against_a_fake_server() {
        // A server that answers hot names correctly, except hot index 1,
        // which gets a wrong address; it drops hot index 2 always, and
        // hot index 3 the first time each query ID comes in.
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let addr = server.local_addr().unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut buf = [0u8; 512];
                let mut seen = std::collections::HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let Ok((n, peer)) = server.recv_from(&mut buf) else {
                        continue;
                    };
                    let q = wire::decode(&buf[..n]).unwrap();
                    let label = q.question().unwrap().name.to_string();
                    let i: u32 = label[1..label.find('.').unwrap()].parse().unwrap();
                    let shown = if i == 1 { 99 } else { i };
                    if i == 2 || (i == 3 && seen.insert(q.header.id)) {
                        continue;
                    }
                    let a = crate::live::hot_addr(shown);
                    server.send_to(&answer(&q, a), peer).unwrap();
                }
            });
            let choices: Vec<Choice> = (0..40).map(|i| Choice::Hot(i % 4)).collect();
            let due: Vec<u64> = (0..40).map(|i| i * 100_000).collect();
            let open = open_loop(addr, &due, &choices).unwrap();
            assert_eq!(
                (open.tally.correct, open.tally.wrong, open.tally.lost),
                (20, 10, 10)
            );
            // Hot 2 is sent TRIES times, hot 3 twice.
            assert_eq!(open.tally.retransmits, 10 * u64::from(TRIES - 1) + 10);
            assert_eq!(open.latency_us.iter().filter(|l| l.is_finite()).count(), 20);
            // Hot 3's replies came after one retransmission wait.
            let waited = RETRY_AFTER.as_secs_f64() * 1e6;
            for (l, c) in open.latency_us.iter().zip(&choices) {
                if l.is_finite() {
                    assert_eq!(*c == Choice::Hot(3), *l >= waited, "{c:?}: {l} us");
                }
            }

            let list: Vec<Choice> = (0..8).map(|i| Choice::Hot(i % 4)).collect();
            let source = |_t: usize, seq: u64, _r: &mut Rng| list.get(seq as usize).copied();
            let closed = closed_loop(addr, 1, 4, None, 1, 0, &source).unwrap();
            assert_eq!(
                (closed.tally.correct, closed.tally.wrong, closed.tally.lost),
                (4, 2, 2)
            );
            assert_eq!(closed.tally.retransmits, 2 * u64::from(TRIES - 1) + 2);
            stop.store(true, Ordering::Relaxed);
        });
    }
}
