//! `perfbench` — the repository's benchmark: three workloads, each
//! measured end to end and, in a separate traced run, by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <device-loop|fleet|serve-mixed|all> --seed N --seconds S --trace <0|1> \
//!     [--pin WORKLOAD/SEED=DIGEST]... [--ladder-rps A,B,...]... [--p95-limit-ms L]
//! ```
//!
//! The serve workload needs its goodput ladder, whose lowest rate is also
//! its nominal rate, and its latency limit; `command` in `BENCHMARK.json`
//! passes them, with the pinned digests.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! carry the config record, every correctness check and every metric
//! with its unit. The exit code is non-zero when any check fails. See
//! `perfbench/README.md` for what each workload and metric means.

mod calib;
mod device_loop;
mod digest;
mod env;
mod fleet;
mod layers;
mod report;
mod serve_mixed;
mod sim;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["device-loop", "fleet", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Pinned digests: `(workload, seed, hex)`.
    pub pins: Vec<(String, u64, String)>,
    /// Offered rates the serve goodput search probes, from every
    /// `--ladder-rps` in order; the lowest is also the rate of the
    /// latency phase.
    pub ladder_rps: Vec<f64>,
    /// Latency limit on p95 for a ladder rate to count as met.
    pub p95_limit_ms: f64,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            pins: Vec::new(),
            ladder_rps: Vec::new(),
            p95_limit_ms: 0.0,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = number(&flag, &value()?)?,
                "--seconds" => args.seconds = number(&flag, &value()?)?,
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--pin" => {
                    let pin = value()?;
                    let parsed = pin.split_once('=').and_then(|(key, hex)| {
                        let (workload, seed) = key.rsplit_once('/')?;
                        Some((workload.to_string(), seed.parse().ok()?, hex.to_string()))
                    });
                    args.pins.push(
                        parsed.ok_or(format!("--pin takes WORKLOAD/SEED=DIGEST, not {pin:?}"))?,
                    );
                }
                // Repeatable: the rates add up, so a long ladder can be
                // given in pieces.
                "--ladder-rps" => {
                    for rate in value()?.split(',') {
                        args.ladder_rps.push(number(&flag, rate)?);
                    }
                }
                "--p95-limit-ms" => args.p95_limit_ms = number(&flag, &value()?)?,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all",
                WORKLOADS.join(", ")
            ));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(args.seconds) {
            return Err("--seconds must be positive".into());
        }
        // The serve workload's rates and limit live in BENCHMARK.json.
        if matches!(args.workload.as_str(), "serve-mixed" | "all") {
            let ascending = args.ladder_rps.windows(2).all(|w| w[0] < w[1]);
            if args.ladder_rps.first().is_none_or(|&r| r <= 0.0) || !ascending {
                return Err("--ladder-rps needs positive, ascending rates".into());
            }
            if !positive(args.p95_limit_ms) {
                return Err("--p95-limit-ms must be given and positive".into());
            }
        }
        Ok(args)
    }

    /// The digest pinned for this workload and seed, if any.
    pub fn pinned_digest(&self) -> Option<&str> {
        self.pins
            .iter()
            .find(|(w, s, _)| *w == self.workload && *s == self.seed)
            .map(|(_, _, hex)| hex.as_str())
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} needs a number, not {text:?}"))
}

/// Process-wide harness counters, read before and after a run.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    cache: experiments::cache::CacheStats,
    retries: u64,
    quarantined: u64,
}

impl Totals {
    /// Reads the counters now.
    pub fn read() -> Totals {
        Totals {
            cache: experiments::cache::stats(),
            retries: experiments::retry_count(),
            quarantined: experiments::quarantine_report().len() as u64,
        }
    }

    /// Reports the cache and scheduler counters accrued since `self`.
    pub fn delta_metrics(&self, report: &mut Report) {
        self.delta_between(&Totals::read(), report);
    }

    /// Reports the cache and scheduler counters accrued from `self` to
    /// `now`.
    pub fn delta_between(&self, now: &Totals, report: &mut Report) {
        let hits = now.cache.hits - self.cache.hits;
        let misses = now.cache.misses - self.cache.misses;
        report.metric("cache.hits", hits as f64, "");
        report.metric("cache.misses", misses as f64, "");
        report.metric(
            "cache.stores",
            (now.cache.stores - self.cache.stores) as f64,
            "",
        );
        report.metric(
            "cache.evictions",
            (now.cache.evictions - self.cache.evictions) as f64,
            "",
        );
        report.metric(
            "cache.hit_ratio",
            stats::share(hits as f64, (hits + misses) as f64),
            format!("of {} lookups", hits + misses),
        );
        report.metric("sched.retries", (now.retries - self.retries) as f64, "");
        report.metric(
            "sched.quarantined",
            (now.quarantined - self.quarantined) as f64,
            "",
        );
    }
}

/// Reports `name` as the p95 of `ms`, or fails the run when the sample
/// is too small to support it.
pub fn report_tail(report: &mut Report, name: &'static str, ms: &[f64]) {
    let n = ms.len();
    match stats::tail(ms, 95.0) {
        Some(p95) => report.metric(name, p95, format!("n={n}")),
        None => report.check(
            "tail-sample",
            false,
            format!(
                "{name}: {n} samples leave {} beyond p95, {} needed",
                stats::beyond(n, 95.0),
                stats::MIN_BEYOND
            ),
        ),
    }
}

/// The end-to-end metrics every workload reports the same way.
pub fn common_end_to_end(report: &mut Report, setup_secs: &[f64]) {
    report.metric(
        "setup_s",
        stats::median(setup_secs).unwrap_or(0.0),
        format!("median of {} set-ups", setup_secs.len()),
    );
    match env::max_rss_mb() {
        Some(mb) => report.metric("max_rss_mb", mb, "VmHWM"),
        None => report.check("max-rss-readable", false, "/proc/self/status has no VmHWM"),
    }
    let ok = report.ok_frac();
    report.metric(
        "ok_frac",
        ok,
        format!("{} attempted, {} failed", report.attempted, report.failed),
    );
}

fn run_workload(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "device-loop" => sim::measure(args, || device_loop::DeviceLoop::new(args.seed)),
        "fleet" => sim::measure(args, || fleet::Fleet::new(args.seed)),
        _ => serve_mixed::measure(args),
    };
    report.verify_metric_set(if args.trace { PER_LAYER } else { END_TO_END });
    report
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in &names {
        let args = Args {
            workload: (*name).to_string(),
            ..args.clone()
        };
        println!("{}", env::config_record(name, args.seed, args.trace));
        let report = run_workload(&args);
        for line in report.lines(units) {
            println!("{name} {line}");
        }
        reports.push(report);
    }
    let correct = reports.iter().all(Report::correct);
    if let [report] = reports.as_slice() {
        println!("{}", report.json(units).render());
    } else {
        // One command, every workload: metric names carry the workload.
        let metrics = names
            .iter()
            .zip(&reports)
            .flat_map(|(name, r)| r.metrics_json(units, &format!("{name}/")))
            .collect();
        let attempted = reports.iter().map(|r| r.attempted).sum();
        let failed = reports.iter().map(|r| r.failed).sum();
        println!(
            "{}",
            report::result_json(correct, attempted, failed, metrics).render()
        );
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_seed_and_pins_come_from_the_command_line() {
        let args = parse("--workload fleet --seed 7 --pin fleet/7=00ff --pin fleet/8=11ee")
            .expect("valid command line");
        assert_eq!(args.seed, 7);
        assert_eq!(args.pinned_digest(), Some("00ff"));
        assert!(parse("--workload fleet --pin fleet=00ff").is_err());
        assert!(parse("--workload turbo").is_err());
        assert!(parse("--workload fleet --trace 2").is_err());
    }

    #[test]
    fn serve_needs_its_rates_and_limit() {
        assert!(parse("--workload serve-mixed").is_err());
        assert!(parse("--workload all --p95-limit-ms 100").is_err());
        assert!(parse("--workload serve-mixed --ladder-rps 20,25").is_err());
        assert!(parse("--workload serve-mixed --p95-limit-ms 100 --ladder-rps 20,10").is_err());
        let args = parse("--workload serve-mixed --p95-limit-ms 100 --ladder-rps 20,25")
            .expect("valid command line");
        assert_eq!(args.ladder_rps, [20.0, 25.0]);
        let args = parse("--workload all --p95-limit-ms 1 --ladder-rps 20,25 --ladder-rps 30")
            .expect("a ladder in two pieces");
        assert_eq!(args.ladder_rps, [20.0, 25.0, 30.0]);
        assert!(
            parse("--workload all --p95-limit-ms 1 --ladder-rps 20,25 --ladder-rps 21").is_err()
        );
    }
}
