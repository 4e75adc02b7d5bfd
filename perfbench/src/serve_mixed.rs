//! `serve-mixed`: an open-loop, seeded Poisson schedule of requests
//! against an in-process `rlpm_serve::Server` on a Unix socket.
//!
//! Most requests are `eval e1 quick`, answered from the warm result
//! cache. Beside them run `simulate` requests with a baseline policy and
//! a fresh seed each, which miss, compute and store, and a few `status`
//! requests. At most two connections carry the load, each sending its
//! next request when it is due or, if still busy, as soon as it is free;
//! every latency is taken from the request's due time.
//!
//! The run has two phases. At the nominal rate, the ladder's lowest, it
//! measures latency. On the goodput ladder it bisects for the highest rate
//! whose p95 stays within the limit while every request still goes out
//! before the limit has passed after the last one was due, and reports
//! the rate where the p95 reaches the limit, interpolated towards the
//! next rate up. A failed, refused or abandoned request is a miss and
//! counts against both.
//!
//! A traced run repeats the nominal phase and then replays the same
//! request lines in-process through `json::parse`, `proto::parse_request`,
//! `Service::handle` and `Response::render`, which prices each serve
//! layer without the socket.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use experiments::e1_energy_per_qos::{run_e1, E1Config};
use governors::GovernorKind;
use rlpm_serve::client::roundtrip;
use rlpm_serve::json::{self, Value};
use rlpm_serve::proto;
use rlpm_serve::{Server, Service};
use simkit::SimRng;
use soc::SocConfig;
use workload::ScenarioKind;

use crate::report::Report;
use crate::sim::SETUP_REPEATS;
use crate::stats::{median, share};
use crate::{Args, Totals};

/// Share of requests that are `eval e1 quick`.
const EVAL_SHARE: f64 = 0.70;
/// Share of requests that are `simulate`; the rest are `status`.
const SIMULATE_SHARE: f64 = 0.25;
/// Simulated seconds each `simulate` request asks for.
const SIMULATE_SECS: u64 = 20;
/// Requests per second of `--seconds` in the nominal phase: 240 at 30
/// seconds, 12 s at the nominal rate, enough for the tail rule from 25
/// seconds up.
const NOMINAL_PER_SECOND_ARG: f64 = 8.0;
/// Requests per second of `--seconds` in each ladder probe: 300 at 30
/// seconds. A fixed count gives every probe the same statistical power
/// whatever its rate. A probe lasts its count over its rate, so a run
/// whose knee sits low on the ladder takes longest: at 30 seconds, about
/// 70 s with the knee at 25 requests/s.
const PROBE_PER_SECOND_ARG: f64 = 10.0;
/// A request that has had no reply for this long is a miss.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a run keeps its socket and caches, relative to the checkout.
const RUN_DIR: &str = ".bench_run";

/// The request line of the cached E1 evaluation.
const EVAL_LINE: &str = "{\"type\":\"eval\",\"experiment\":\"e1\",\"quick\":true}";

/// One scheduled request.
#[derive(Debug, Clone)]
struct Scheduled {
    /// Seconds after the phase start at which it is due.
    due: f64,
    /// The request line sent.
    line: String,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Eval,
    Simulate,
    Status,
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Sample {
    due: f64,
    /// When the generator was free to send it: its due time, or later
    /// if every connection was still busy.
    free: f64,
    /// When it was written to the socket; `None` if abandoned.
    sent: Option<f64>,
    /// When the terminal reply arrived.
    done: f64,
    /// The reply payload, or why the request failed.
    outcome: Result<Value, String>,
}

impl Sample {
    /// Latency from the due time in milliseconds; a miss is infinite.
    fn latency_ms(&self) -> f64 {
        if self.outcome.is_ok() {
            (self.done - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Generates the Poisson schedule of one phase: `count` requests at
/// `rate` requests per second, drawn from the workload seed, the phase
/// name and the rate alone, so a phase sends the same requests whichever
/// phases ran before it. The shape (gaps, request kinds, scenarios and
/// policies) comes from the seed and the phase name: every ladder probe
/// replays one arrival pattern, compressed to its rate, so the latency a
/// probe sees grows with the rate rather than with the luck of its own
/// draw. The `simulate` seeds also depend on the rate: each is a fresh
/// 52-bit seed, so in practice no two requests of one run share a cache
/// entry.
fn schedule(seed: u64, phase: &str, rate: f64, count: usize) -> Vec<Scheduled> {
    let rng = &mut SimRng::seed_from(seed).split(phase);
    let seeds = &mut SimRng::seed_from(seed).split(&format!("{phase}-{rate}"));
    let mut out = Vec::with_capacity(count);
    let mut t = rng.exponential(rate);
    while out.len() < count {
        let u = rng.uniform();
        let (kind, line) = if u < EVAL_SHARE {
            (Kind::Eval, EVAL_LINE.to_string())
        } else if u < EVAL_SHARE + SIMULATE_SHARE {
            let scenario = ScenarioKind::ALL[rng.uniform_usize(ScenarioKind::ALL.len())];
            let policy = GovernorKind::SIX_BASELINES[rng.uniform_usize(6)];
            // 52 bits: the seed travels as a JSON number.
            let seed = seeds.next_u64() >> 12;
            let line = format!(
                "{{\"type\":\"simulate\",\"scenario\":\"{}\",\"policy\":\"{}\",\"soc\":\"xu3\",\
                 \"secs\":{SIMULATE_SECS},\"seed\":{seed}}}",
                scenario.name(),
                policy.name()
            );
            (Kind::Simulate, line)
        } else {
            (Kind::Status, "{\"type\":\"status\"}".to_string())
        };
        out.push(Scheduled { due: t, line, kind });
        t += rng.exponential(rate);
    }
    out
}

/// Connections the load uses: two, or one on a single-core host.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs one open-loop phase. Requests still unsent `abandon_after`
/// past the last due time are abandoned as misses.
fn run_phase(
    socket: &Path,
    requests: &[Scheduled],
    abandon_after: f64,
    expected_csv: &str,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let last_due = requests.last().map_or(0.0, |r| r.due);
    // A short lead so both connections are up before the first is due.
    let start = Instant::now() + Duration::from_millis(20);
    let secs = |at: Instant| at.saturating_duration_since(start).as_secs_f64();
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections())
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut conn = connect(socket);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_secs_f64(request.due);
                        let now = Instant::now();
                        let free = secs(now.max(due));
                        if secs(now) > last_due + abandon_after {
                            out.push((i, abandoned(request.due, free)));
                            continue;
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = match conn.as_mut() {
                            Ok((reader, writer)) => {
                                roundtrip(reader, writer, &request.line, |_| {})
                                    .map_err(|e| format!("transport: {e}"))
                                    .and_then(|reply| {
                                        check_reply(request.kind, reply, expected_csv)
                                    })
                            }
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        if outcome.is_err() {
                            // Start the next request on a clean connection.
                            conn = connect(socket);
                        }
                        out.push((
                            i,
                            Sample {
                                due: request.due,
                                free,
                                sent: Some(secs(sent)),
                                done: secs(Instant::now()),
                                outcome,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread does not panic"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

type Conn = (BufReader<UnixStream>, UnixStream);

fn connect(socket: &Path) -> std::io::Result<Conn> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn abandoned(due: f64, free: f64) -> Sample {
    Sample {
        due,
        free,
        sent: None,
        done: f64::INFINITY,
        outcome: Err("abandoned: the backlog outlasted the latency limit".into()),
    }
}

/// Checks one terminal reply and returns its payload: an eval must
/// carry the expected CSV, every request must succeed.
fn check_reply(kind: Kind, reply: Value, expected_csv: &str) -> Result<Value, String> {
    if reply.get("type").and_then(Value::as_str) != Some("result") {
        return Err(format!("not a result: {}", reply.render()));
    }
    let payload = reply.get("payload").cloned().unwrap_or(Value::Null);
    if kind == Kind::Eval {
        let csv = payload.get("csv").and_then(Value::as_str);
        if csv != Some(expected_csv) {
            return Err("eval CSV differs from the in-process run_e1(quick)".into());
        }
    }
    Ok(payload)
}

/// The CSV `run_e1(quick)` produces in-process, with the cache off.
fn expected_csv() -> String {
    experiments::cache::configure(None);
    let soc = SocConfig::odroid_xu3_like().expect("the xu3 preset validates");
    run_e1(&soc, &E1Config::quick())
        .energy_per_qos_table()
        .to_csv()
}

/// A running server with its own fresh cache directory.
struct Running {
    socket: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Points the cache at a fresh directory, starts a server and fills
    /// the cache with one cold eval.
    fn start(dir: &Path, expected_csv: &str) -> Result<Running, String> {
        fresh_cache(&dir.join("cache"));
        let socket = dir.join("s.sock");
        let server = Server::bind(&socket).map_err(|e| format!("bind: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let running = Running { socket, thread };
        let cold = connect(&running.socket)
            .and_then(|(mut r, mut w)| roundtrip(&mut r, &mut w, EVAL_LINE, |_| {}))
            .map_err(|e| format!("cold eval: {e}"))
            .and_then(|reply| check_reply(Kind::Eval, reply, expected_csv));
        match cold {
            Ok(_) => Ok(running),
            Err(e) => {
                running.stop();
                Err(e)
            }
        }
    }

    /// Shuts the server down and waits for it.
    fn stop(self) {
        let _ = connect(&self.socket).and_then(|(mut r, mut w)| {
            roundtrip(&mut r, &mut w, "{\"type\":\"shutdown\"}", |_| {})
        });
        let _ = self.thread.join();
    }
}

/// Empties `dir` and the in-memory memo, and points the cache at it.
fn fresh_cache(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    experiments::cache::configure(Some(dir.to_path_buf()));
    experiments::cache::clear_memo();
}

/// Measures the serve workload and returns its report.
pub fn measure(args: &Args) -> Report {
    let mut report = Report::default();
    // Relative to the checkout: the socket path stays short and every
    // file the run writes stays inside it.
    let dir = Path::new(RUN_DIR).join(format!("serve-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.check("run-dir", false, format!("{}: {e}", dir.display()));
        return report;
    }
    let outcome = measure_in(args, &dir, &mut report);
    experiments::cache::configure(None);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(RUN_DIR);
    if let Err(e) = outcome {
        report.check("serve-setup", false, e);
    }
    report
}

fn measure_in(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let limit_s = args.p95_limit_ms / 1e3;
    let nominal_rps = args.ladder_rps[0];
    // The reference is the benchmark's own work: computed once, untimed.
    let expected = expected_csv();
    let mut setup_secs = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = running.take() {
            Running::stop(previous);
        }
        let start = Instant::now();
        running = Some(Running::start(dir, &expected)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let server = running.expect("set-up runs at least once");
    report.check(
        "cold-eval-csv",
        true,
        "every set-up's cold eval matched run_e1(quick)",
    );

    let count = |per_second: f64| (args.seconds * per_second).round() as usize;
    let nominal = schedule(
        args.seed,
        "nominal",
        nominal_rps,
        count(NOMINAL_PER_SECOND_ARG),
    );
    let totals = Totals::read();
    let samples = run_phase(&server.socket, &nominal, limit_s, &expected);
    let cache_after = Totals::read();

    let mut ladder_samples = Vec::new();
    let mut goodput = 0.0;
    if !args.trace {
        let mut p95s = vec![None; args.ladder_rps.len()];
        let best = search_ladder(args.ladder_rps.len(), |rung| {
            let rate = args.ladder_rps[rung];
            let requests = schedule(args.seed, "ladder", rate, count(PROBE_PER_SECOND_ARG));
            let probe = run_phase(&server.socket, &requests, limit_s, &expected);
            let latencies: Vec<f64> = probe.iter().map(Sample::latency_ms).collect();
            // A decision, not a reported tail: a probe decides on
            // whatever sample it has.
            let p95 = crate::stats::percentile(&latencies, 95.0).unwrap_or(f64::INFINITY);
            let met = p95 <= args.p95_limit_ms;
            println!(
                "serve-mixed probe {rate} rps: {} requests, p95 {p95:.1} ms, {}",
                probe.len(),
                if met { "met" } else { "missed" }
            );
            ladder_samples.extend(probe.into_iter().zip(requests));
            p95s[rung] = Some(p95);
            met
        });
        goodput = best.map_or(0.0, |rung| {
            crossing(&args.ladder_rps, &p95s, rung, args.p95_limit_ms)
        });
    }
    server.stop();

    // Every request of every phase, checked.
    let all: Vec<(&Sample, &Scheduled)> = samples
        .iter()
        .zip(&nominal)
        .chain(ladder_samples.iter().map(|(s, r)| (s, r)))
        .collect();
    let verified = verify_simulates(&all);
    // An abandoned request was never sent: it is a miss for the ladder,
    // not a failed operation.
    let mut failures = 0usize;
    for ((sample, request), ok) in all.iter().zip(&verified) {
        if sample.sent.is_some() {
            let ok = *ok && sample.outcome.is_ok();
            if !ok && failures < 3 {
                eprintln!(
                    "serve-mixed: failed {}: {:?}",
                    request.line,
                    sample.outcome.as_ref().map(Value::render)
                );
            }
            failures += usize::from(!ok);
            report.op(ok);
        }
    }
    let abandoned = all.iter().filter(|(s, _)| s.sent.is_none()).count();
    report.check(
        "requests-ok",
        failures == 0,
        format!(
            "{} requests ({} nominal, {} on the ladder), {failures} failed or mismatched, \
             {abandoned} abandoned on the ladder",
            all.len(),
            samples.len(),
            ladder_samples.len()
        ),
    );
    report.check(
        "simulate-matches-in-process",
        verified.iter().all(|&ok| ok),
        format!(
            "{} simulate replies compared with Service::handle in-process",
            all.iter().filter(|(_, r)| r.kind == Kind::Simulate).count()
        ),
    );

    if args.trace {
        traced_metrics(report, &nominal, &samples, dir, &totals, &cache_after);
    } else {
        let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let rates: Vec<f64> = samples
            .iter()
            .zip(&nominal)
            .filter(|(_, r)| r.kind == Kind::Simulate)
            .map(|(s, _)| SIMULATE_SECS as f64 / (s.latency_ms() / 1e3))
            .collect();
        report.metric(
            "sim_rate",
            median(&rates).unwrap_or(0.0),
            format!(
                "median over {} simulate requests at the nominal rate",
                rates.len()
            ),
        );
        report.metric(
            "op_p50_ms",
            median(&latencies).unwrap_or(0.0),
            format!("n={} at {nominal_rps} rps", latencies.len()),
        );
        crate::report_tail(report, "op_p95_ms", &latencies);
        report.metric(
            "goodput_rps",
            goodput,
            format!("rate where p95 reaches {} ms", args.p95_limit_ms),
        );
        crate::common_end_to_end(report, &setup_secs);
    }
    Ok(())
}

/// Finds the highest rung that meets the limit by bisection over the
/// ladder, assuming a rung meets it whenever a faster one does: at most
/// `ceil(log2(rungs + 1))` calls of `meets`. `None` if no rung meets it.
fn search_ladder(rungs: usize, mut meets: impl FnMut(usize) -> bool) -> Option<usize> {
    // Every rung below `lo` meets the limit; every rung from `hi` up
    // misses it.
    let (mut lo, mut hi) = (0, rungs);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if meets(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.checked_sub(1)
}

/// The rate at which p95 reaches `limit`: linear between the highest
/// rung that met it, `best`, and the next rung, which missed it. It is
/// `best`'s own rate when the next rung was not probed, is the top of the
/// ladder, or missed by so much that its p95 is infinite. Interpolating
/// keeps the figure from jumping a whole rung when the edge sits near
/// one.
fn crossing(rates: &[f64], p95s: &[Option<f64>], best: usize, limit: f64) -> f64 {
    let lo = (rates[best], p95s[best]);
    match (
        lo,
        rates.get(best + 1),
        p95s.get(best + 1).copied().flatten(),
    ) {
        ((r0, Some(p0)), Some(&r1), Some(p1)) if p1.is_finite() && p1 > limit && p0 <= limit => {
            r0 + (r1 - r0) * (limit - p0) / (p1 - p0)
        }
        _ => lo.0,
    }
}

/// Recomputes every successful `simulate` reply in-process, with the
/// cache off, and compares payloads. Other requests pass through.
fn verify_simulates(all: &[(&Sample, &Scheduled)]) -> Vec<bool> {
    experiments::cache::configure(None);
    let service = Service::new();
    all.iter()
        .map(|(sample, request)| match (&sample.outcome, request.kind) {
            (Ok(payload), Kind::Simulate) => {
                in_process(&service, &request.line).is_some_and(|local| same_wire(&local, payload))
            }
            _ => true,
        })
        .collect()
}

/// Whether an in-process payload renders to the same wire bytes as the
/// payload the socket delivered. Compared as rendered text, because the
/// wire carries a non-finite number as `null`.
fn same_wire(local: &Value, received: &Value) -> bool {
    local.render() == received.render()
}

/// The payload `Service::handle` returns for one request line.
fn in_process(service: &Service, line: &str) -> Option<Value> {
    let parsed = json::parse(line).ok()?;
    let envelope = proto::parse_request(&parsed).ok()?;
    match service.handle(&envelope.request).response {
        proto::Response::Result { payload } => Some(payload),
        _ => None,
    }
}

/// Per-request in-process cost of one replayed line, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Replayed {
    parse: f64,
    handle: f64,
    render: f64,
}

/// Replays `requests` in-process against a fresh cache filled by one
/// cold eval, as the socket run saw them, timing each layer. Returns the
/// wall seconds of the replay, each request's layer times, and whether
/// every reply matched the socket's.
fn replay(dir: &Path, requests: &[Scheduled], samples: &[Sample]) -> (f64, Vec<Replayed>, bool) {
    fresh_cache(&dir.join("replay-cache"));
    let service = Service::new();
    let _ = in_process(&service, EVAL_LINE);
    let mut layers = Vec::with_capacity(requests.len());
    let mut matched = true;
    let start = Instant::now();
    for (request, sample) in requests.iter().zip(samples) {
        let t0 = Instant::now();
        let envelope = json::parse(&request.line)
            .ok()
            .and_then(|parsed| proto::parse_request(&parsed).ok());
        let t1 = Instant::now();
        let Some(envelope) = envelope else {
            matched = false;
            continue;
        };
        let handled = service.handle(&envelope.request);
        let t2 = Instant::now();
        std::hint::black_box(handled.response.render(&envelope.id));
        let t3 = Instant::now();
        layers.push(Replayed {
            parse: (t1 - t0).as_secs_f64(),
            handle: (t2 - t1).as_secs_f64(),
            render: (t3 - t2).as_secs_f64(),
        });
        // `status` reports live counters, so only its type can match;
        // every other reply must equal the socket's.
        matched &= match (&sample.outcome, &handled.response) {
            (Ok(payload), proto::Response::Result { payload: local }) => {
                request.kind == Kind::Status || same_wire(local, payload)
            }
            _ => false,
        };
    }
    (start.elapsed().as_secs_f64(), layers, matched)
}

fn traced_metrics(
    report: &mut Report,
    requests: &[Scheduled],
    samples: &[Sample],
    dir: &Path,
    before: &Totals,
    after: &Totals,
) {
    let (wall, layers, matched) = replay(dir, requests, samples);
    experiments::cache::configure(None);
    report.check(
        "replay-matches-socket",
        matched,
        format!("{} request lines replayed in-process", requests.len()),
    );
    let of = |kind: Kind, f: fn(&Replayed) -> f64, scale: f64| -> Vec<f64> {
        requests
            .iter()
            .zip(&layers)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, l)| f(l) * scale)
            .collect()
    };
    let all = |f: fn(&Replayed) -> f64, scale: f64| -> Vec<f64> {
        layers.iter().map(|l| f(l) * scale).collect()
    };
    let parse = all(|l| l.parse, 1e6);
    report.metric(
        "serve.parse.us",
        median(&parse).unwrap_or(0.0),
        format!("median, n={}", parse.len()),
    );
    let render = all(|l| l.render, 1e6);
    report.metric(
        "serve.render.us",
        median(&render).unwrap_or(0.0),
        format!("median, n={}", render.len()),
    );
    let eval = of(Kind::Eval, |l| l.handle, 1e3);
    report.metric(
        "serve.handle_eval.ms",
        median(&eval).unwrap_or(0.0),
        format!("median, n={}", eval.len()),
    );
    let simulate = of(Kind::Simulate, |l| l.handle, 1e3);
    report.metric(
        "serve.handle_simulate.ms",
        median(&simulate).unwrap_or(0.0),
        format!("median, n={}", simulate.len()),
    );
    // Service time on the socket minus the same line's in-process cost.
    let transport: Vec<f64> = samples
        .iter()
        .zip(&layers)
        .filter_map(|(s, l)| {
            let sent = s.sent.filter(|_| s.outcome.is_ok())?;
            Some((s.done - sent - l.parse - l.handle - l.render) * 1e3)
        })
        .collect();
    report.metric(
        "serve.transport.ms",
        median(&transport).unwrap_or(0.0),
        format!("median, n={}", transport.len()),
    );
    let late: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some((s.sent? - s.free) * 1e3))
        .collect();
    report.metric(
        "serve.gen_late.ms",
        share(late.iter().sum(), late.len() as f64),
        format!(
            "mean, max {:.3} ms",
            late.iter().copied().fold(0.0, f64::max)
        ),
    );
    before.delta_between(after, report);
    let in_layers: f64 = layers.iter().map(|l| l.parse + l.handle + l.render).sum();
    report.metric(
        "trace.unattributed.share",
        share(wall - in_layers, wall),
        "of the in-process replay",
    );
    // The socket phase runs exactly as in an untraced run; the replay's
    // clock reads are the only tracing, and they sit outside it.
    report.metric(
        "trace.overhead_frac",
        0.0,
        "socket phase undecorated; layers priced by a separate replay",
    );
    report.fill_absent(
        crate::report::PER_LAYER,
        "not decorated: the service builds its own policies",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_search_bisects_to_the_edge() {
        for edge in [None, Some(0), Some(7), Some(15), Some(29), Some(30)] {
            let mut probes = 0;
            let found = search_ladder(31, |r| {
                probes += 1;
                edge.is_some_and(|e| r <= e)
            });
            assert_eq!(found, edge);
            assert!(probes <= 5, "{probes} probes for edge {edge:?}");
        }
        assert_eq!(search_ladder(0, |_| true), None, "empty ladder");
    }

    #[test]
    fn schedule_is_seeded_and_mixed() {
        let a = schedule(7, "nominal", 50.0, 1000);
        let b = schedule(7, "nominal", 50.0, 1000);
        let c = schedule(8, "nominal", 50.0, 1000);
        assert_eq!(key(&a), key(&b), "the same seed gives the same inputs");
        assert_ne!(key(&a), key(&c));
        assert_ne!(key(&a), key(&schedule(7, "ladder", 50.0, 1000)));
        assert_eq!(a.len(), 1000);
        let span = a.last().map_or(0.0, |r| r.due);
        assert!(
            (18.0..22.0).contains(&span),
            "1000 requests at 50/s span about 20 s: {span}"
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        for kind in [Kind::Eval, Kind::Simulate, Kind::Status] {
            assert!(a.iter().any(|r| r.kind == kind), "{kind:?} present");
        }
        for r in &a {
            let parsed = json::parse(&r.line).expect("request lines are JSON");
            assert!(proto::parse_request(&parsed).is_ok(), "{}", r.line);
        }
    }

    #[test]
    fn a_rungs_schedule_does_not_depend_on_probe_order() {
        let rung = |rate: f64| schedule(3, "ladder", rate, 200);
        let alone = rung(58.0);
        let _ = (rung(117.0), rung(41.0), rung(73.0));
        assert_eq!(key(&rung(58.0)), key(&alone));
    }

    #[test]
    fn rungs_share_one_arrival_pattern_with_fresh_simulate_seeds() {
        let (slow, fast) = (
            schedule(3, "ladder", 40.0, 200),
            schedule(3, "ladder", 80.0, 200),
        );
        for (a, b) in slow.iter().zip(&fast) {
            assert!((a.due - 2.0 * b.due).abs() < 1e-9, "compressed by the rate");
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.line == b.line, a.kind != Kind::Simulate);
        }
    }

    #[test]
    fn goodput_interpolates_to_the_limit() {
        let rates = [40.0, 50.0, 60.0];
        let p95s = [Some(60.0), Some(80.0), Some(120.0)];
        assert_eq!(crossing(&rates, &p95s, 1, 100.0), 55.0);
        assert_eq!(crossing(&rates, &p95s, 2, 100.0), 60.0, "top of the ladder");
        let inf = [Some(60.0), Some(80.0), Some(f64::INFINITY)];
        assert_eq!(crossing(&rates, &inf, 1, 100.0), 50.0, "a backlog miss");
        let unprobed = [Some(60.0), Some(80.0), None];
        assert_eq!(crossing(&rates, &unprobed, 1, 100.0), 50.0);
    }

    fn key(s: &[Scheduled]) -> Vec<(u64, String)> {
        s.iter()
            .map(|r| (r.due.to_bits(), r.line.clone()))
            .collect()
    }

    #[test]
    fn a_miss_has_infinite_latency() {
        let ok = Sample {
            due: 1.0,
            free: 1.0,
            sent: Some(1.0),
            done: 1.25,
            outcome: Ok(Value::Null),
        };
        assert!(
            (ok.latency_ms() - 250.0).abs() < 1e-9,
            "timed from the due time"
        );
        let refused = Sample {
            outcome: Err("busy".into()),
            ..ok.clone()
        };
        assert_eq!(refused.latency_ms(), f64::INFINITY);
        assert_eq!(abandoned(1.0, 2.0).latency_ms(), f64::INFINITY);
    }
}
