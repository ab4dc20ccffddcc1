//! The repository's benchmark: end-to-end and per-layer numbers for the
//! live resolver daemon and for the paper's attack replay.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload all --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is `live_hit`, `live_mix`, `sim_attack`, or `all` (each
//! workload in its own process, one after the other, with a summary).
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload again with spans recorded at every
//! layer boundary and prints the per-layer metrics (spans are written to
//! `perfbench/out/spans-<workload>.csv`). `--spread N` runs seeds 1..=N
//! and prints each end-to-end metric's median and quartile spread.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Any
//! wrong output — a reply that does not match its query or the zone, a
//! replay that does not consume its trace or disagrees with itself,
//! counters that do not reconcile — sets `correct` to false and the exit
//! code to 1.
//!
//! Workloads, metrics, and how each layer is measured are described in
//! `README.md` beside this package.

mod client;
mod inputs;
mod live;
mod proc;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: proc::CountingAlloc = proc::CountingAlloc;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; README.md defines each per workload.
///
/// * `qps` — replies (live, closed loop) or trace queries (sim) per second.
/// * `p50_us` — median reply latency in an open loop from each query's
///   due time (live); median wall µs per replayed query (sim).
/// * `setup_s` — set-up time, median of several cold set-ups.
/// * `peak_rss_mb` — peak resident set of the process after fixed work.
///
/// `fail_pct` (live: queries with no reply to any retransmission over
/// queries attempted; sim: the simulated resolution failures) is printed
/// with the summary but is not one of these: on the live workloads it is
/// 0 in every correct run, and every metric here must be non-zero on
/// every workload. Live losses are the JSON's `failed` count; on
/// `sim_attack` a failure rate inside the attack window above the
/// paper's bound fails the run.
const END_TO_END: &[(&str, &str)] = &[
    ("qps", "queries/s"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), `layer.metric`. Layers a workload
/// does not exercise read 0 (no sockets on `sim_attack`, no simulator on
/// `live_*`).
const PER_LAYER: &[(&str, &str)] = &[
    // The benchmark's own generator: qualifies p50_us and losses.
    ("client.p99_us", "us"),
    ("client.late_max_ms", "ms"),
    ("client.timeouts", "count"),
    // dns-netd PacketIo, timed around recv_batch/send_batch: CPU time per
    // call, and the blocking wait inside recv_batch apart.
    ("packetio.recv_us", "us"),
    ("packetio.recv_wait_us", "us"),
    ("packetio.send_us", "us"),
    ("packetio.pkts_per_batch", "pkts"),
    ("packetio.send_errors", "count"),
    // The Resolved worker loop: recv_batch returning → send_batch called.
    ("resolved.serve_us_per_pkt", "us"),
    ("resolved.self_us_per_pkt", "us"),
    ("resolved.stage_gap_pct", "%"),
    ("resolved.span_cover_pct", "%"),
    // dns-netd fast_query + WireCache::serve.
    ("wirecache.hit_ratio", "ratio"),
    ("wirecache.lookups", "count"),
    ("wirecache.bypass", "count"),
    ("wirecache.bytes", "bytes"),
    ("wirecache.serve_ns", "ns"),
    // dns-core wire::decode / wire::encode_with_ttl_offsets.
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    // dns-resolver CachingServer::resolve.
    ("resolver.queries_in", "count"),
    ("resolver.cache_hit_ratio", "ratio"),
    ("resolver.queries_out_per_query", "ratio"),
    ("resolver.retries", "count"),
    ("resolver.renewals_sent", "count"),
    ("resolver.refreshes", "count"),
    ("resolver.resolve_self_ns", "ns"),
    // Upstream: UdpUpstream + the dns-auth Authds, or SimNet.
    ("upstream.queries", "count"),
    ("upstream.rtt_us", "us"),
    ("upstream.timeouts", "count"),
    ("authd.served", "count"),
    // dns-sim Simulation, ServerFarm via SimNet.
    ("sim.farm_answers", "count"),
    ("sim.dropped_by_attack", "count"),
    ("sim.farm_ns", "ns"),
    ("sim.fail_pct", "%"),
    ("sim.attack_failed", "count"),
    // dns-trace QueryStream::next_event.
    ("trace.next_ns", "ns"),
    ("trace.events", "count"),
    // The whole process.
    ("proc.cpu_us_per_query", "us"),
    ("proc.allocs_per_query", "count"),
    ("proc.trace_overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["live_hit", "live_mix", "sim_attack"];

/// One run's findings.
#[derive(Debug, Default)]
pub struct Report {
    workload: String,
    problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `fail_pct` where it is not `failed / attempted`: on `sim_attack`,
    /// the simulated resolution failures.
    pub fail_pct: Option<f64>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under the declared metric `name`; a value that is
    /// not a finite number (say, a median latency when most queries got
    /// no reply) fails the run.
    fn set(
        table: &[(&'static str, &str)],
        map: &mut BTreeMap<&'static str, f64>,
        problems: &mut Vec<String>,
        name: &str,
        value: f64,
    ) {
        let (key, _) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        if !value.is_finite() {
            println!("  WRONG: {name} is {value}");
            problems.push(format!("{name} is {value}"));
        }
        map.insert(key, value);
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        Report::set(END_TO_END, &mut self.e2e, &mut self.problems, name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        Report::set(PER_LAYER, &mut self.layers, &mut self.problems, name, value);
    }

    pub fn note(&self, line: String) {
        println!("  {line}");
    }

    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, problem: String) {
        if !ok {
            println!("  WRONG: {problem}");
            self.problems.push(problem);
        }
    }

    /// Fails the run on any wrong reply.
    pub fn check_tally(&mut self, what: &str, t: &client::Tally) {
        self.require(
            t.wrong == 0,
            format!(
                "{what}: {} wrong replies, first: {}",
                t.wrong,
                t.first_wrong.as_deref().unwrap_or("?")
            ),
        );
    }

    /// Adds a measured loop's queries to `attempted`/`failed`.
    pub fn count(&mut self, t: &client::Tally) {
        self.attempted += t.attempted();
        self.failed += t.lost + t.wrong;
    }

    pub fn write_spans(&self, spans: &[spans::Span]) -> std::io::Result<()> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.csv", self.workload));
        spans::write_csv(&path, spans)?;
        self.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        Ok(())
    }

    /// The result line: every metric of `table`, in declaration order.
    fn json(&self, table: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    /// Internal: time one set-up and exit (see `setup_in_child`).
    setup_only: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        setup_only: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spread: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--spread" => {
                args.spread = Some(value()?.parse().map_err(|e| format!("--spread: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.spread {
        return spread(&args, n);
    }
    if args.setup_only {
        let mut report = Report::default();
        let secs = match args.workload.as_str() {
            "sim_attack" => Ok(sim::setup_only()),
            _ => live::setup_only(&mut report),
        };
        return match secs {
            Ok(secs) if report.problems.is_empty() => {
                println!("setup_s {secs:?}");
                ExitCode::SUCCESS
            }
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return all(&args);
    }
    run_one(&args)
}

fn run_one(args: &Args) -> ExitCode {
    let mut report = Report {
        workload: args.workload.clone(),
        ..Report::default()
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "live_hit" => live::run(
            live::LIVE_HIT,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "live_mix" => live::run(
            live::LIVE_MIX,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => sim::run(args.seed, args.seconds, args.trace, &mut report),
    };
    if let Err(e) = result {
        report.require(false, format!("I/O error: {e}"));
    }
    let (table, values) = if args.trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {v:>14.3} {unit}");
    }
    if !args.trace {
        let fail_pct = report
            .fail_pct
            .unwrap_or(100.0 * report.failed as f64 / report.attempted.max(1) as f64);
        println!("  {:<32} {fail_pct:>14.3} %", "fail_pct");
    }
    println!("{}", report.json(table, values));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` with `seed` in a child process; returns its output
/// and whether it succeeded.
fn child(args: &Args, workload: &str, seed: u64) -> (String, bool) {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run child benchmark");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

/// Times one set-up of the report's workload in a child process
/// (`--setup-only`) and returns its seconds.
pub fn setup_in_child(report: &Report) -> std::io::Result<f64> {
    let exe = std::env::current_exe()?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &report.workload, "--setup-only"])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| std::io::Error::other(format!("set-up child failed: {stdout}")))
}

/// A metric's value from a result line this program printed.
fn metric(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 13;
    line[at..].split([',', '}']).next()?.trim().parse().ok()
}

/// `--workload all`: every workload in its own process.
fn all(args: &Args) -> ExitCode {
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let (out, good) = child(args, w, args.seed);
        print!("{out}");
        summary.push((w, out, good));
    }
    println!("summary (seed {}):", args.seed);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (w, out, good) in &summary {
        let line = out.lines().last().unwrap_or("");
        let mut cols: Vec<String> = table
            .iter()
            .filter_map(|(n, u)| Some(format!("{n} {:.3} {u}", metric(line, n)?)))
            .collect();
        // The `fail_pct` line each run prints with tracing off.
        cols.extend(
            out.lines()
                .find_map(|l| l.trim().strip_prefix("fail_pct"))
                .map(|v| format!("fail_pct {} %", v.trim().trim_end_matches('%').trim())),
        );
        let verdict = if *good { "correct" } else { "WRONG" };
        println!("  {w:<10} {} | {verdict}", cols.join(" | "));
    }
    let correct = summary.iter().all(|(_, _, good)| *good);
    let attempted: f64 = summary
        .iter()
        .map(|(_, o, _)| line_count(o, "attempted"))
        .sum();
    let failed: f64 = summary
        .iter()
        .map(|(_, o, _)| line_count(o, "failed"))
        .sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        attempted.max(1.0),
        failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The number after `"key": ` in a run's output (its result line).
fn line_count(line: &str, key: &str) -> f64 {
    let Some(at) = line.find(&format!("\"{key}\": ")) else {
        return 0.0;
    };
    line[at + key.len() + 4..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `--spread N`: seeds 1..=N of one workload, each in its own process;
/// prints every end-to-end metric's median and relative quartile spread
/// (`(Q3 - Q1) / median`, Python's `statistics.quantiles` method).
fn spread(args: &Args, n: u64) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for w in workloads {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in 1..=n {
            let (out, good) = child(args, w, seed);
            ok &= good;
            let line = out.lines().last().unwrap_or("");
            if !good {
                print!("{out}");
            }
            for (name, _) in END_TO_END {
                if let Some(v) = metric(line, name) {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        for (name, vals) in &values {
            let m = stats::median(vals).unwrap_or(0.0);
            let s = stats::relative_iqr(vals).unwrap_or(0.0);
            println!(
                "{w:<10} {name:<12} median {m:>12.3}  spread {:>6.2}%  {vals:.3?}",
                s * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric() {
        let mut r = Report::default();
        r.e2e("qps", 1234.5);
        let line = r.json(END_TO_END, &r.e2e);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert_eq!(metric(&line, "qps"), Some(1234.5));
        r.e2e("p50_us", f64::INFINITY);
        let line = r.json(END_TO_END, &r.e2e);
        assert!(line.starts_with("{\"correct\": false,"));
        assert_eq!(metric(&line, "p50_us"), Some(0.0));
        assert_eq!(metric(&line, "setup_s"), Some(0.0));
        assert_eq!(line_count(&line, "attempted"), 1.0);
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // live_mix runs on request only; see README.md.
        for w in WORKLOADS {
            let listed = json.contains(&format!("\"name\": \"{w}\""));
            assert_eq!(listed, *w != "live_mix", "{w}");
        }
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
