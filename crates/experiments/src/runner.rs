//! The closed control loop: scenario → SoC → QoS accounting → governor.

use governors::{Governor, QosFeedback, SystemState};
use simkit::trace::Trace;
use simkit::{obs, FaultCounts, SimDuration, SimTime};
use soc::{DeviceBatch, LevelRequest, Soc};
use workload::{QosReport, QosTracker, Scenario};

use crate::resilience::FaultHarness;

/// Closed-loop runs completed in this process.
static RUNS: obs::Counter = obs::Counter::new("runner.runs");
/// Headline metric of the most recent completed run (J per QoS unit).
static LAST_ENERGY_PER_QOS: obs::Gauge = obs::Gauge::new("runner.last_energy_per_qos");

/// Parameters of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Record a per-epoch trace (frequency levels, power, QoS) for
    /// figure regeneration. Costs memory proportional to epochs.
    pub record_trace: bool,
}

impl RunConfig {
    /// A run of the given number of simulated seconds, without tracing.
    pub fn seconds(secs: u64) -> Self {
        RunConfig {
            duration: SimDuration::from_secs(secs),
            record_trace: false,
        }
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Total energy (J).
    pub energy_j: f64,
    /// Final QoS accounting.
    pub qos: QosReport,
    /// The headline metric: energy per delivered QoS unit (J/unit).
    pub energy_per_qos: f64,
    /// Mean power draw (W).
    pub avg_power_w: f64,
    /// DVFS transitions performed.
    pub transitions: u64,
    /// Epochs simulated.
    pub epochs: u64,
    /// Jobs submitted by the scenario.
    pub jobs_submitted: u64,
    /// Mean per-cluster frequency level over the run, normalised to
    /// `[0, 1]` of each table.
    pub mean_level_frac: Vec<f64>,
    /// Core-seconds spent clock-gated (zero unless the SoC has cpuidle).
    pub idle_gated_core_s: f64,
    /// Core-seconds spent power-collapsed.
    pub idle_collapsed_core_s: f64,
    /// Epochs a watchdog fallback decided instead of the primary policy
    /// (zero without a fault harness or watchdog).
    pub watchdog_engagements: u64,
    /// Fault events injected during the run (zero without a harness).
    pub fault_counts: FaultCounts,
    /// Q-table SEUs the governor's recovery machinery detected.
    pub seus_detected: u64,
    /// Q-table reloads performed to recover from detected SEUs.
    pub table_reloads: u64,
    /// Optional per-epoch trace: columns `level_<cluster>`,
    /// `util_<cluster>`, `power_w`, `qos_units`.
    pub trace: Option<Trace>,
}

/// Runs `governor` on `scenario` for `config.duration`, starting from the
/// SoC's current state (callers reset the SoC for independent runs; the
/// training loop deliberately does not).
///
/// The loop matches the paper's control structure: at each epoch boundary
/// the governor observes the epoch just finished (utilisation, energy,
/// QoS feedback) and sets levels for the next epoch. The first epoch runs
/// at the lowest OPP.
pub fn run(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    governor: &mut dyn Governor,
    config: RunConfig,
) -> RunMetrics {
    run_with_faults(soc, scenario, governor, config, None)
}

/// [`run`], with an optional fault harness injecting the deterministic
/// fault schedule described in `DESIGN.md` ("Robustness & fault model").
///
/// `None` is exactly [`run`]: the fault dispatch is skipped entirely, so
/// the output is bit-identical to the fault-free path. A harness whose
/// rates are all zero also reproduces the fault-free run bit-for-bit
/// (its plan draws nothing — see [`simkit::FaultPlan`]).
///
/// The run is a one-lane [`run_batch`]: the SoC moves into a
/// [`DeviceBatch`] for the run and back afterwards, so the caller sees
/// exactly the state the run leaves behind. A lone lane never parks, so
/// every epoch takes [`Soc::run_epoch_into`] and its own idle
/// fast-forward.
pub fn run_with_faults(
    soc: &mut Soc,
    scenario: &mut dyn Scenario,
    governor: &mut dyn Governor,
    config: RunConfig,
    faults: Option<&mut FaultHarness>,
) -> RunMetrics {
    let mut lanes = [Lane::new(soc, scenario, governor, faults, config)];
    let placeholder = soc.clone();
    let mut batch = DeviceBatch::from(std::mem::replace(soc, placeholder));
    run_lanes(&mut batch, &mut lanes, config);
    if let Some(lane) = batch.into_lanes().pop() {
        *soc = lane;
    }
    let [lane] = lanes;
    lane.finish(soc)
}

/// Typed rejection of a fleet-wide fault request (see
/// [`ensure_fleet_faults_supported`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultsUnsupported {
    /// The requested fleet-wide fault-rate scale.
    pub scale: f64,
}

impl std::fmt::Display for FleetFaultsUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet-wide fault injection (fault scale {}) is not supported: \
             the fleet command builds every lane without a fault harness, \
             so a non-zero scale would silently simulate fault-free. \
             Use `e9` for fault studies, or fault scale 0 (bit-identical \
             to the fault-free fleet).",
            self.scale
        )
    }
}

impl std::error::Error for FleetFaultsUnsupported {}

/// Validates a fleet-wide fault-rate scale for the batched fleet path.
///
/// The fleet path deliberately wires [`BatchLane::faults`] to `None`,
/// so a non-zero request must fail loudly instead of silently
/// simulating fault-free: anything other than exactly `0.0` returns a
/// typed [`FleetFaultsUnsupported`] error.
///
/// # Errors
///
/// Returns [`FleetFaultsUnsupported`] for any non-zero (or non-finite)
/// `scale`.
pub fn ensure_fleet_faults_supported(scale: f64) -> Result<(), FleetFaultsUnsupported> {
    if scale == 0.0 && scale.is_sign_positive() {
        Ok(())
    } else {
        Err(FleetFaultsUnsupported { scale })
    }
}

/// One device lane of a batched run: the workload feeding it, the policy
/// driving it, and an optional per-lane fault harness.
///
/// Lanes are fully independent — each owns its scenario RNG stream,
/// governor state and fault schedule, exactly as a standalone [`run`]
/// would.
pub struct BatchLane {
    /// Produces this lane's job arrivals and QoS spec.
    pub scenario: Box<dyn Scenario>,
    /// Decides this lane's per-epoch frequency levels.
    pub governor: Box<dyn Governor>,
    /// Optional deterministic fault injection for this lane.
    pub faults: Option<FaultHarness>,
}

impl std::fmt::Debug for BatchLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchLane")
            .field("scenario", &self.scenario.name())
            .field("governor", &self.governor.name())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

/// One lane of the closed loop: what it drives, borrowed (from a
/// [`BatchLane`] in [`run_batch`], from the caller's arguments in
/// [`run_with_faults`]), plus the QoS accounting and metric
/// accumulators of its run.
struct Lane<'a> {
    scenario: &'a mut dyn Scenario,
    governor: &'a mut dyn Governor,
    faults: Option<&'a mut FaultHarness>,
    tracker: QosTracker,
    prev_snapshot: QosReport,
    state: SystemState,
    transitions: u64,
    level_frac_sum: Vec<f64>,
    /// Per-cluster `opps.max_level().max(1)`, cached so the per-epoch
    /// fold does not walk the SoC config.
    max_levels: Vec<usize>,
    idle_gated_core_s: f64,
    idle_collapsed_core_s: f64,
    started_at: SimTime,
    start_energy: f64,
    start_jobs: u64,
    epochs_done: u64,
    trace: Option<Trace>,
}

impl<'a> Lane<'a> {
    /// A lane whose run starts from `soc`'s current state.
    fn new(
        soc: &Soc,
        scenario: &'a mut dyn Scenario,
        governor: &'a mut dyn Governor,
        faults: Option<&'a mut FaultHarness>,
        config: RunConfig,
    ) -> Self {
        let tracker = QosTracker::new(scenario.qos_spec());
        let num_clusters = soc.config().clusters.len();
        Lane {
            scenario,
            governor,
            faults,
            prev_snapshot: tracker.snapshot(),
            tracker,
            state: SystemState::new(
                soc::EpochObservation {
                    at: soc.now(),
                    clusters: Vec::new(),
                    energy_j: 0.0,
                },
                QosFeedback::default(),
            ),
            transitions: 0,
            level_frac_sum: vec![0.0; num_clusters],
            max_levels: soc
                .config()
                .clusters
                .iter()
                .map(|c| c.opps.max_level().max(1))
                .collect(),
            idle_gated_core_s: 0.0,
            idle_collapsed_core_s: 0.0,
            started_at: soc.now(),
            start_energy: soc.total_energy_j(),
            start_jobs: soc.jobs_submitted(),
            epochs_done: 0,
            trace: config.record_trace.then(|| {
                let mut columns: Vec<String> = Vec::new();
                for c in 0..num_clusters {
                    columns.push(format!("level_{c}"));
                }
                for c in 0..num_clusters {
                    columns.push(format!("util_{c}"));
                }
                columns.push("power_w".into());
                columns.push("qos_units".into());
                Trace::new("run", columns)
            }),
        }
    }

    /// The run's metrics, read off the lane's final (unparked) `soc`.
    fn finish(self, soc: &Soc) -> RunMetrics {
        let energy_j = soc.total_energy_j() - self.start_energy;
        let unfinished = soc.queued_jobs() + soc.pending_arrivals();
        let qos = self.tracker.finalize(unfinished);
        let wall = (soc.now() - self.started_at).as_secs_f64();
        let (seus_detected, table_reloads) = self.governor.seu_recovery_counts();
        let (watchdog_engagements, fault_counts) = match self.faults.as_deref() {
            Some(harness) => (harness.watchdog_engagements(), *harness.counts()),
            None => (0, FaultCounts::default()),
        };
        RUNS.inc();
        LAST_ENERGY_PER_QOS.set(qos.energy_per_qos(energy_j));
        RunMetrics {
            energy_j,
            energy_per_qos: qos.energy_per_qos(energy_j),
            qos,
            avg_power_w: if wall > 0.0 { energy_j / wall } else { 0.0 },
            transitions: self.transitions,
            epochs: self.epochs_done,
            jobs_submitted: soc.jobs_submitted() - self.start_jobs,
            mean_level_frac: self
                .level_frac_sum
                .iter()
                .map(|s| s / self.epochs_done.max(1) as f64)
                .collect(),
            idle_gated_core_s: self.idle_gated_core_s,
            idle_collapsed_core_s: self.idle_collapsed_core_s,
            watchdog_engagements,
            fault_counts,
            seus_detected,
            table_reloads,
            trace: self.trace,
        }
    }
}

/// Runs every lane of `batch` for `config.duration` in lockstep,
/// returning one [`RunMetrics`] per lane.
///
/// This is the one closed-loop implementation: [`run`] and
/// [`run_with_faults`] are one-lane calls of the same loop, so lane
/// `i`'s metrics are **bit-identical** to running `lanes[i]` alone
/// against `batch.lane(i)`. With two or more lanes the batch reorders
/// work across independent lanes so that fully-idle epochs from many
/// devices collapse into one interleaved kernel dispatch (see
/// [`DeviceBatch`]); `golden_bits` pins the equivalence end-to-end.
///
/// A lane whose epoch is rejected (an out-of-range level request) stops
/// early with metrics covering its completed epochs; the other lanes
/// keep going.
///
/// # Panics
///
/// Panics if `lanes` and `batch` disagree on lane count.
pub fn run_batch(
    batch: &mut DeviceBatch,
    lanes: &mut [BatchLane],
    config: RunConfig,
) -> Vec<RunMetrics> {
    assert_eq!(
        lanes.len(),
        batch.len(),
        "one BatchLane per device lane ({} lanes, {} BatchLanes)",
        batch.len(),
        lanes.len()
    );
    let mut lanes: Vec<Lane<'_>> = batch
        .lanes()
        .iter()
        .zip(lanes.iter_mut())
        .map(|(soc, lane)| {
            Lane::new(
                soc,
                lane.scenario.as_mut(),
                lane.governor.as_mut(),
                lane.faults.as_mut(),
                config,
            )
        })
        .collect();
    run_lanes(batch, &mut lanes, config);
    lanes
        .into_iter()
        .zip(batch.lanes())
        .map(|(lane, soc)| lane.finish(soc))
        .collect()
}

/// The closed loop: steps every lane of `batch` through
/// `config.duration`, leaving every lane unparked so the final energy,
/// queue and time reads see live state.
fn run_lanes(batch: &mut DeviceBatch, lanes: &mut [Lane<'_>], config: RunConfig) {
    let Some(first) = batch.lanes().first() else {
        return;
    };
    let epoch = first.config().epoch;
    // A duration shorter than one epoch saturates to a single epoch: the
    // control loop's unit of progress is the epoch, so the shortest
    // meaningful run is one of them.
    let epochs = (config.duration / epoch).max(1);

    let mut active = vec![true; batch.len()];
    let mut requests: Vec<LevelRequest> = batch
        .lanes()
        .iter()
        .map(|soc| LevelRequest::new(soc.clusters().iter().map(|c| c.level()).collect()))
        .collect();
    // Reused across epochs: the report's per-cluster slots (and their
    // completed-job pools) and the observation's cluster buffer keep
    // their capacity, so the steady-state loop does not allocate.
    let mut reports: Vec<soc::EpochReport> = batch
        .lanes()
        .iter()
        .map(|soc| soc::EpochReport {
            started_at: soc.now(),
            ended_at: soc.now(),
            clusters: Vec::new(),
            energy_j: 0.0,
        })
        .collect();

    let _run_span = obs::span!("runner.run");
    for _ in 0..epochs {
        // Pre-step pass: per-lane fault application and arrival feeding,
        // in lane order.
        for (i, ((lane, request), &is_active)) in
            lanes.iter_mut().zip(&mut requests).zip(&active).enumerate()
        {
            if !is_active {
                continue;
            }
            if let Some(harness) = lane.faults.as_deref_mut() {
                // Fault injection needs the live simulator each epoch, so
                // a faulted lane is unparked here.
                let soc = batch.lane_mut(i);
                // xtask-hotpath: begin (per-epoch fault application, no allocation)
                harness.begin_epoch(soc, request);
                // xtask-hotpath: end
            }
            let from = batch.lane(i).now();
            let to = from + epoch;
            for (at, job) in lane.scenario.arrivals(from, to) {
                // Feeds the arrival queue without unparking the lane; the
                // batch re-checks parkability against it next step.
                batch.schedule_job(i, at, job);
            }
        }

        // Lockstep step: parked lanes share one idle-kernel dispatch,
        // the rest run the scalar epoch path. Arity is correct by
        // construction, so an error here is unreachable; treat it as
        // "no lane stepped" and end the run with partial metrics.
        if batch
            .run_epoch_into(&active, &requests, &mut reports)
            .is_err()
        {
            break;
        }

        // Post-step pass: QoS accounting, observation and the next
        // decision, in lane order. All batch calls below are `&self`,
        // so the error slice can stay borrowed across the loop.
        let errors = batch.lane_errors();
        for (i, (((lane, request), is_active), (report, error))) in lanes
            .iter_mut()
            .zip(&mut requests)
            .zip(active.iter_mut())
            .zip(reports.iter().zip(errors))
            .enumerate()
        {
            if !*is_active {
                continue;
            }
            // The request is validated by construction (governors and the
            // fault harness only produce in-range levels); a rejection
            // ends the lane's run with metrics covering the completed
            // epochs.
            if error.is_some() {
                *is_active = false;
                continue;
            }
            lane.epochs_done += 1;
            // A parked (kernel-path) epoch completes no jobs, so the
            // tracker would not move: every snapshot delta is exactly
            // zero (`x - x` is `+0.0` for finite totals) and the ratio
            // takes its no-demand branch. Skipping the snapshot
            // round-trip is therefore bit-identical to the live path.
            let (epoch_units, epoch_violations, epoch_qos_ratio) = if batch.lane_parked(i) {
                (0.0, 0, 1.0)
            } else {
                lane.tracker.observe_all(report.completed());
                let snapshot = lane.tracker.snapshot();
                let units = snapshot.units - lane.prev_snapshot.units;
                let max_units = snapshot.max_units - lane.prev_snapshot.max_units;
                let violations = snapshot.violations - lane.prev_snapshot.violations;
                lane.prev_snapshot = snapshot;
                // Per-epoch QoS ratio: a cumulative ratio would let one
                // bad epoch poison the state signal for the rest of the
                // episode.
                let ratio = if max_units > 0.0 {
                    (units / max_units).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                (units, violations, ratio)
            };

            for ((r, &max_level), frac) in report
                .clusters
                .iter()
                .zip(&lane.max_levels)
                .zip(lane.level_frac_sum.iter_mut())
            {
                lane.transitions += u64::from(r.transitions);
                *frac += r.level as f64 / max_level as f64;
                lane.idle_gated_core_s += r.idle_gated_s;
                lane.idle_collapsed_core_s += r.idle_collapsed_s;
            }

            batch.observe_lane_into(i, report, &mut lane.state.soc);
            lane.state.qos = QosFeedback {
                qos_ratio: epoch_qos_ratio,
                units: epoch_units,
                violations: epoch_violations,
                pending_jobs: batch.lane_queued_jobs(i),
            };
            if let Some(trace) = lane.trace.as_mut() {
                let num_clusters = report.clusters.len();
                let mut row: Vec<f64> = Vec::with_capacity(2 * num_clusters + 2);
                for r in &report.clusters {
                    row.push(r.level as f64);
                }
                for r in &report.clusters {
                    row.push(r.util_max);
                }
                row.push(report.energy_j / epoch.as_secs_f64());
                row.push(epoch_units);
                trace.record(report.ended_at, row);
            }
            // The guard drops at the end of the loop body, so the span
            // times exactly the governor dispatch below.
            let _decide_span = obs::span!("runner.decide");
            // xtask-hotpath: begin (per-epoch decision dispatch, no allocation)
            match lane.faults.as_deref_mut() {
                Some(harness) => {
                    harness.decide(&mut *lane.governor, &mut lane.state, request);
                }
                None => lane.governor.decide_into(&lane.state, request),
            }
            // xtask-hotpath: end
        }
    }

    // Write resident domain state back so final energy/queue/time reads
    // see live lanes.
    batch.unpark_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::GovernorKind;
    use soc::SocConfig;
    use workload::ScenarioKind;

    fn soc() -> Soc {
        Soc::new(SocConfig::odroid_xu3_like().unwrap()).unwrap()
    }

    #[test]
    fn performance_beats_powersave_on_gaming_qos() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Gaming.build(1);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(10),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let save = run_with(GovernorKind::Powersave);
        assert!(
            perf.qos.qos_ratio() > 0.95,
            "performance delivers: {:?}",
            perf.qos
        );
        assert!(
            save.qos.qos_ratio() < 0.5,
            "powersave collapses: {:?}",
            save.qos
        );
        assert!(perf.energy_j > 2.0 * save.energy_j);
    }

    #[test]
    fn powersave_wins_energy_on_idle() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Idle.build(2);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(10),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let save = run_with(GovernorKind::Powersave);
        assert!(save.energy_j < perf.energy_j / 2.0);
        assert!(save.qos.qos_ratio() > 0.9, "idle is easy even at min OPP");
    }

    #[test]
    fn ondemand_lands_between_the_extremes_on_video() {
        let run_with = |kind: GovernorKind| {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Video.build(3);
            let mut governor = kind.build(soc.config());
            run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(20),
            )
        };
        let perf = run_with(GovernorKind::Performance);
        let od = run_with(GovernorKind::Ondemand);
        assert!(
            od.energy_j < perf.energy_j,
            "ondemand saves energy vs performance"
        );
        assert!(
            od.qos.qos_ratio() > 0.85,
            "without giving up QoS: {:?}",
            od.qos
        );
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Camera.build(4);
        let mut governor = GovernorKind::Schedutil.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig::seconds(5),
        );
        assert_eq!(m.epochs, 250);
        assert!(m.energy_j > 0.0);
        assert!((m.avg_power_w - m.energy_j / 5.0).abs() < 1e-9);
        assert!(m.energy_per_qos >= m.energy_j / m.qos.max_units.max(1.0));
        assert_eq!(m.mean_level_frac.len(), 2);
        assert!(m.mean_level_frac.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(m.trace.is_none());
    }

    #[test]
    fn trace_records_one_row_per_epoch() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Audio.build(5);
        let mut governor = GovernorKind::Conservative.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig::seconds(2).with_trace(),
        );
        let trace = m.trace.expect("trace requested");
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.columns().len(), 6);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            let mut soc = soc();
            let mut scenario = ScenarioKind::Mixed.build(7);
            let mut governor = GovernorKind::Interactive.build(soc.config());
            let m = run(
                &mut soc,
                scenario.as_mut(),
                governor.as_mut(),
                RunConfig::seconds(15),
            );
            (m.energy_j, m.qos, m.transitions)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn batched_runs_match_looped_runs_bit_for_bit() {
        let combos = [
            (ScenarioKind::Idle, GovernorKind::Ondemand, 11u64),
            (ScenarioKind::Video, GovernorKind::Schedutil, 12),
            (ScenarioKind::Idle, GovernorKind::Powersave, 13),
            (ScenarioKind::Mixed, GovernorKind::Interactive, 14),
        ];
        let config = RunConfig::seconds(3);

        let looped: Vec<RunMetrics> = combos
            .iter()
            .map(|&(scenario, governor, seed)| {
                let mut soc = soc();
                let mut scenario = scenario.build(seed);
                let mut governor = governor.build(soc.config());
                run(&mut soc, scenario.as_mut(), governor.as_mut(), config)
            })
            .collect();

        let mut batch = DeviceBatch::new(combos.iter().map(|_| soc()).collect::<Vec<_>>()).unwrap();
        let mut lanes: Vec<BatchLane> = combos
            .iter()
            .map(|&(scenario, governor, seed)| BatchLane {
                scenario: scenario.build(seed),
                governor: governor.build(batch.lane(0).config()),
                faults: None,
            })
            .collect();
        let batched = run_batch(&mut batch, &mut lanes, config);

        for (lane, (b, l)) in batched.iter().zip(&looped).enumerate() {
            assert_eq!(
                b.energy_j.to_bits(),
                l.energy_j.to_bits(),
                "lane {lane} energy diverged"
            );
            assert_eq!(b, l, "lane {lane} metrics diverged");
        }
    }

    #[test]
    fn batched_runs_with_faults_match_looped() {
        // Faulted lanes beside unfaulted idle lanes, which park: each
        // lane must still equal its own standalone run, bit for bit.
        let config = RunConfig::seconds(2);
        let cfg = SocConfig::odroid_xu3_like().unwrap();
        let harness = |seed: u64| {
            FaultHarness::new(&cfg, seed, crate::e9_fault_resilience::default_base_rates()).unwrap()
        };
        let combos = [
            (ScenarioKind::Gaming, 21u64, Some(99u64)),
            (ScenarioKind::Idle, 22, None),
            (ScenarioKind::Idle, 23, Some(98)),
            (ScenarioKind::Idle, 24, None),
        ];

        let looped: Vec<RunMetrics> = combos
            .iter()
            .map(|&(scenario, seed, fault_seed)| {
                let mut soc = soc();
                let mut scenario = scenario.build(seed);
                let mut governor = GovernorKind::Ondemand.build(soc.config());
                let mut h = fault_seed.map(harness);
                run_with_faults(
                    &mut soc,
                    scenario.as_mut(),
                    governor.as_mut(),
                    config,
                    h.as_mut(),
                )
            })
            .collect();
        assert!(looped[0].fault_counts != FaultCounts::default());
        assert_eq!(looped[1].fault_counts, FaultCounts::default());

        let mut batch = DeviceBatch::new(combos.iter().map(|_| soc()).collect()).unwrap();
        let mut lanes: Vec<BatchLane> = combos
            .iter()
            .map(|&(scenario, seed, fault_seed)| BatchLane {
                scenario: scenario.build(seed),
                governor: GovernorKind::Ondemand.build(batch.lane(0).config()),
                faults: fault_seed.map(harness),
            })
            .collect();
        let batched = run_batch(&mut batch, &mut lanes, config);
        for (lane, (b, l)) in batched.iter().zip(&looped).enumerate() {
            assert_eq!(
                b.energy_j.to_bits(),
                l.energy_j.to_bits(),
                "lane {lane} energy diverged"
            );
            assert_eq!(b, l, "lane {lane} metrics diverged");
        }
    }

    #[test]
    fn sub_epoch_duration_saturates_to_one_epoch() {
        let mut soc = soc();
        let mut scenario = ScenarioKind::Idle.build(1);
        let mut governor = GovernorKind::Powersave.build(soc.config());
        let m = run(
            &mut soc,
            scenario.as_mut(),
            governor.as_mut(),
            RunConfig {
                duration: SimDuration::from_millis(1),
                record_trace: false,
            },
        );
        assert_eq!(m.epochs, 1, "shorter-than-epoch runs round up to one");
        assert_eq!(soc.now(), simkit::SimTime::ZERO + soc.config().epoch);
        assert!(m.energy_j > 0.0);
    }
}
