//! The measurement loop shared by the two simulation workloads.
//!
//! Set-up builds the inputs from the seed and the program state the first
//! pass starts from: fresh devices and scenarios. It runs
//! [`SETUP_REPEATS`] times. The reference pass then runs from the last
//! set-up's state, untimed: its per-operation digests, which every later
//! pass must reproduce, are the benchmark's own check. The measured
//! window then runs whole passes until `--seconds` have elapsed, each
//! from a freshly built state whose build is timed as one more set-up.
//! `setup_s` is the median of all of them: spread over the whole run, it
//! sees the same host as the passes do, not only its first second. A
//! traced run alternates plain and decorated passes: the plain ones
//! price the tracing overhead, the decorated ones feed the layers, and
//! both must reproduce the reference digests.
//!
//! The end-to-end timings are scaled to a reference host by the
//! calibration kernel that runs between every two timed blocks (see
//! [`crate::calib`]); the per-layer figures stay unscaled.

use std::time::{Duration, Instant};

use crate::calib;
use crate::digest::Digest;
use crate::layers::SimLayers;
use crate::report::Report;
use crate::stats::{median, share};
use crate::{Args, Totals};

/// How many times set-up runs before the first measured operation.
pub const SETUP_REPEATS: usize = 7;

/// A simulation workload: a fixed sequence of operations, repeatable
/// bit for bit.
pub trait SimWorkload {
    /// The program state a pass starts from.
    type State;

    /// Builds a fresh state, decorated when `layers` is given.
    fn start(&self, layers: Option<&SimLayers>) -> Self::State;

    /// Runs every operation once from `state`, decorated when `layers`
    /// is given.
    fn pass(&self, state: Self::State, layers: Option<&SimLayers>) -> Pass;

    /// Checks run once after the measured window, against the
    /// reference pass.
    fn final_checks(&self, _reference: &Pass, _report: &mut Report) {}
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the whole pass, from a built state.
    pub wall_secs: f64,
    /// Simulated device-seconds the pass covered.
    pub sim_secs: f64,
    /// Wall seconds of each operation.
    pub op_secs: Vec<f64>,
    /// Digest of each operation's simulated statistics.
    pub op_digests: Vec<Digest>,
    /// Per-lane energies kept for the fleet's looped replay.
    pub replay_bits: Vec<Vec<u64>>,
    /// Host-speed factor for the pass's timings (see [`crate::calib`]).
    pub scale: f64,
}

impl Pass {
    /// One digest over every operation.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for op in &self.op_digests {
            d.u64(op.value());
        }
        d
    }
}

/// Measures one simulation workload and returns its report.
pub fn measure<W: SimWorkload>(args: &Args, build: impl Fn() -> W) -> Report {
    // The simulation workloads bypass the result cache.
    experiments::cache::configure(None);
    let totals_before = Totals::read();
    let mut report = Report::default();

    let mut kernel_secs = vec![calib::kernel_secs()];
    let mut setup_secs = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let workload = build();
        let state = workload.start(None);
        setup_secs.push(start.elapsed().as_secs_f64());
        built = Some((workload, state));
    }
    kernel_secs.push(calib::kernel_secs());
    let first_scale = calib::scale(kernel_secs[0], kernel_secs[1]);
    for secs in &mut setup_secs {
        *secs *= first_scale;
    }
    let (workload, state) = built.expect("set-up runs at least once");
    let reference = workload.pass(state, None);
    let digest = reference.digest();
    println!(
        "digest {} seed {} {}",
        args.workload,
        args.seed,
        digest.hex()
    );
    match args.pinned_digest() {
        Some(pinned) => report.check(
            "digest-pinned",
            pinned == digest.hex(),
            format!("got {} pinned {pinned}", digest.hex()),
        ),
        None => report.skip(
            "digest-pinned",
            format!("no digest is pinned for seed {}", args.seed),
        ),
    }

    let layers = SimLayers::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut mismatched = 0u64;
    kernel_secs.push(calib::kernel_secs());
    loop {
        let decorate = args.trace && plain.len() > traced.len();
        let decorated = decorate.then_some(&layers);
        let built_at = Instant::now();
        let state = workload.start(decorated);
        let built_secs = built_at.elapsed().as_secs_f64();
        let mut pass = workload.pass(state, decorated);
        let before = kernel_secs[kernel_secs.len() - 1];
        kernel_secs.push(calib::kernel_secs());
        pass.scale = calib::scale(before, kernel_secs[kernel_secs.len() - 1]);
        if !decorate {
            setup_secs.push(built_secs * pass.scale);
        }
        for (got, want) in pass.op_digests.iter().zip(&reference.op_digests) {
            report.op(got == want);
            mismatched += u64::from(got != want);
        }
        if pass.op_digests.len() != reference.op_digests.len() {
            report.op(false);
            mismatched += 1;
        }
        if decorate {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let enough = !args.trace || !traced.is_empty();
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    report.check(
        "passes-match-reference",
        mismatched == 0,
        format!(
            "{} plain and {} traced passes, {mismatched} operations differ",
            plain.len(),
            traced.len()
        ),
    );
    if args.trace {
        report.check(
            "traced-digest-equals-untraced",
            traced.iter().all(|p| p.digest() == digest),
            format!("{} decorated passes against {}", traced.len(), digest.hex()),
        );
    }
    workload.final_checks(&reference, &mut report);
    println!(
        "calibration kernel median {:.2} ms over {} readings, reference {:.2} ms",
        median(&kernel_secs).unwrap_or(0.0) * 1e3,
        kernel_secs.len(),
        calib::REFERENCE_SECS * 1e3
    );

    if args.trace {
        layer_metrics(&mut report, &layers, &plain, &traced);
        totals_before.delta_metrics(&mut report);
        report.fill_absent(crate::report::PER_LAYER, "not crossed by this workload");
    } else {
        end_to_end(&mut report, &plain, &setup_secs, mismatched);
    }
    report
}

fn end_to_end(report: &mut Report, passes: &[Pass], setup_secs: &[f64], mismatched: u64) {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| share(p.sim_secs, p.op_secs.iter().sum::<f64>() * p.scale))
        .collect();
    let unscaled: Vec<f64> = passes
        .iter()
        .map(|p| share(p.sim_secs, p.op_secs.iter().sum()))
        .collect();
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_secs.iter().map(|s| s * p.scale))
        .collect();
    let op_wall: f64 = ops.iter().sum();
    let n = ops.len();
    report.metric(
        "sim_rate",
        median(&rates).unwrap_or(0.0),
        format!(
            "median of {} passes, {:.0} unscaled",
            rates.len(),
            median(&unscaled).unwrap_or(0.0)
        ),
    );
    let ms: Vec<f64> = ops.iter().map(|s| s * 1e3).collect();
    report.metric("op_p50_ms", median(&ms).unwrap_or(0.0), format!("n={n}"));
    crate::report_tail(report, "op_p95_ms", &ms);
    let good = (n as u64).saturating_sub(mismatched);
    report.metric(
        "goodput_rps",
        share(good as f64, op_wall),
        format!("{good} verified operations"),
    );
    crate::common_end_to_end(report, setup_secs);
}

fn layer_metrics(report: &mut Report, layers: &SimLayers, plain: &[Pass], traced: &[Pass]) {
    let wall: f64 = traced.iter().map(|p| p.wall_secs).sum();
    let passes = traced.len().max(1) as f64;
    let children = layers.decide.secs() + layers.arrivals.secs();
    report.metric(
        "workload.arrivals.share",
        share(layers.arrivals.secs(), wall),
        "",
    );
    report.metric(
        "workload.arrivals.ns_per_call",
        layers.arrivals.ns_per_call(),
        format!("calls={}", layers.arrivals.calls()),
    );
    report.metric(
        "workload.jobs",
        layers.arrivals.items() as f64 / passes,
        "per pass",
    );
    report.metric(
        "governors.decide.share",
        share(layers.decide.secs(), wall),
        "",
    );
    report.metric(
        "governors.decide.ns_per_call",
        layers.decide.ns_per_call(),
        format!("calls={}", layers.decide.calls()),
    );
    report.metric(
        "rlpm.decide.ns_per_call",
        layers.decide_rl.ns_per_call(),
        format!("calls={}", layers.decide_rl.calls()),
    );
    report.metric(
        "rlpm-hw.decide.ns_per_call",
        layers.decide_rl_hw.ns_per_call(),
        format!("calls={}", layers.decide_rl_hw.calls()),
    );
    report.metric(
        "rlpm.train.share",
        share(layers.train.secs(), wall),
        format!("calls={}", layers.train.calls()),
    );
    // The decorated calls sit inside whichever runner span the workload
    // uses: `run` (device-loop) or `run_batch` (fleet).
    let (soc_self, batch_self) = if layers.run_batch.calls() > 0 {
        (0.0, layers.run_batch.secs() - children)
    } else {
        (layers.run.secs() - children, 0.0)
    };
    report.metric("soc.self.share", share(soc_self, wall), "");
    report.metric(
        "soc.ns_per_epoch",
        share(soc_self * 1e9, layers.run.items() as f64),
        "",
    );
    report.metric("soc.epochs", layers.run.items() as f64 / passes, "per pass");
    report.metric("soc.batch.self.share", share(batch_self, wall), "");
    report.metric(
        "soc.batch.ns_per_lane_epoch",
        share(batch_self * 1e9, layers.run_batch.items() as f64),
        "",
    );
    report.metric(
        "fleet.lane_epochs",
        layers.run_batch.items() as f64 / passes,
        "per pass",
    );
    report.metric(
        "soc.idle_core_share",
        share(layers.idle.items() as f64, layers.idle.calls() as f64),
        "idle core time over observed core time",
    );
    let attributed = layers.train.secs() + layers.run.secs() + layers.run_batch.secs();
    report.metric(
        "trace.unattributed.share",
        share(wall - attributed, wall),
        "",
    );
    let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_secs).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_secs).collect();
    report.metric(
        "trace.overhead_frac",
        share(
            median(&traced_wall).unwrap_or(0.0),
            median(&plain_wall).unwrap_or(0.0),
        ) - 1.0,
        format!("{} traced vs {} plain passes", traced.len(), plain.len()),
    );
}
