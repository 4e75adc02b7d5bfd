//! Outside-in tracing: decorators that time each call into a layer
//! through its public trait, and the per-layer totals they feed.
//!
//! The program itself carries no tracing for the benchmark. A traced
//! run hands these decorators to the real `experiments::run` /
//! `run_batch` in place of the governor and scenario they wrap. Each
//! decorator keeps plain per-instance tallies and adds them to its
//! shared [`Layer`] when dropped, so a timed call costs two clock reads
//! and no atomic operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use governors::{Governor, SystemState};
use simkit::SimTime;
use soc::{Job, LevelRequest};
use workload::{QosSpec, Scenario};

/// Totals of one traced layer: busy time, calls, and the items the calls
/// produced (jobs for the workload layer, epochs for the runner spans).
#[derive(Debug, Default)]
pub struct Layer {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

// The counters publish no other data and are read only after every
// decorator feeding them has been dropped, so `Relaxed` is enough.
impl Layer {
    /// A fresh, shareable layer.
    pub fn new() -> Arc<Layer> {
        Arc::new(Layer::default())
    }

    /// Adds a tally.
    pub fn add(&self, busy: Duration, calls: u64, items: u64) {
        let ns = u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    /// Busy seconds.
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Items produced.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call, zero without calls.
    pub fn ns_per_call(&self) -> f64 {
        crate::stats::share(self.ns.load(Ordering::Relaxed) as f64, self.calls() as f64)
    }
}

/// The layers a simulation workload traces.
#[derive(Debug)]
pub struct SimLayers {
    /// `Scenario::arrivals` calls; items are jobs.
    pub arrivals: Arc<Layer>,
    /// `Governor::decide_into` calls of every policy.
    pub decide: Arc<Layer>,
    /// The subset of `decide` made by the software RL policy.
    pub decide_rl: Arc<Layer>,
    /// The subset of `decide` made by the hardware-engine RL policy.
    pub decide_rl_hw: Arc<Layer>,
    /// `PolicyKind::build_trained` for the RL policies (online training).
    pub train: Arc<Layer>,
    /// `experiments::run` spans; items are epochs.
    pub run: Arc<Layer>,
    /// `experiments::run_batch` spans; items are lane-epochs.
    pub run_batch: Arc<Layer>,
    /// Idle core time seen by the governors, in core-microseconds
    /// (items) out of observed core-microseconds (calls).
    pub idle: Arc<Layer>,
}

impl SimLayers {
    /// Fresh, empty layers.
    pub fn new() -> SimLayers {
        SimLayers {
            arrivals: Layer::new(),
            decide: Layer::new(),
            decide_rl: Layer::new(),
            decide_rl_hw: Layer::new(),
            train: Layer::new(),
            run: Layer::new(),
            run_batch: Layer::new(),
            idle: Layer::new(),
        }
    }
}

/// Which policy a decorated governor wraps, so its decisions can also
/// be counted in a per-policy layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyClass {
    /// One of the Linux baselines.
    Baseline,
    /// The software RL policy.
    Rl,
    /// The RL policy behind the hardware engine.
    RlHw,
}

/// A governor whose every decision is timed.
pub struct TimedGovernor {
    inner: Box<dyn Governor>,
    decide: Arc<Layer>,
    class_layer: Option<Arc<Layer>>,
    idle: Arc<Layer>,
    /// Cores per cluster, to weight each cluster's utilisation.
    cores: Vec<usize>,
    /// Epoch length in microseconds.
    epoch_us: u64,
    busy: Duration,
    calls: u64,
    idle_core_us: u64,
    observed_core_us: u64,
}

impl TimedGovernor {
    /// Wraps `inner`, feeding `layers`.
    pub fn new(
        inner: Box<dyn Governor>,
        class: PolicyClass,
        layers: &SimLayers,
        soc_config: &soc::SocConfig,
    ) -> TimedGovernor {
        let class_layer = match class {
            PolicyClass::Baseline => None,
            PolicyClass::Rl => Some(Arc::clone(&layers.decide_rl)),
            PolicyClass::RlHw => Some(Arc::clone(&layers.decide_rl_hw)),
        };
        TimedGovernor {
            inner,
            decide: Arc::clone(&layers.decide),
            class_layer,
            idle: Arc::clone(&layers.idle),
            cores: soc_config.clusters.iter().map(|c| c.cores).collect(),
            epoch_us: soc_config.epoch.as_nanos() / 1_000,
            busy: Duration::ZERO,
            calls: 0,
            idle_core_us: 0,
            observed_core_us: 0,
        }
    }

    /// Tallies the modelled idle core time of the epoch the governor is
    /// about to decide on, from the observation it receives.
    fn note_idle(&mut self, state: &SystemState) {
        for (cluster, &cores) in state.soc.clusters.iter().zip(&self.cores) {
            let core_us = cores as u64 * self.epoch_us;
            let busy = (cluster.util_avg.clamp(0.0, 1.0) * core_us as f64).round() as u64;
            self.observed_core_us += core_us;
            self.idle_core_us += core_us - busy.min(core_us);
        }
    }
}

impl Governor for TimedGovernor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState) -> LevelRequest {
        let start = Instant::now();
        let request = self.inner.decide(state);
        self.busy += start.elapsed();
        self.calls += 1;
        self.note_idle(state);
        request
    }

    fn decide_into(&mut self, state: &SystemState, request: &mut LevelRequest) {
        let start = Instant::now();
        self.inner.decide_into(state, request);
        self.busy += start.elapsed();
        self.calls += 1;
        self.note_idle(state);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn inject_table_seu(&mut self, entropy: u64) -> bool {
        self.inner.inject_table_seu(entropy)
    }

    fn seu_recovery_counts(&self) -> (u64, u64) {
        self.inner.seu_recovery_counts()
    }
}

impl Drop for TimedGovernor {
    fn drop(&mut self) {
        self.decide.add(self.busy, self.calls, 0);
        if let Some(layer) = &self.class_layer {
            layer.add(self.busy, self.calls, 0);
        }
        self.idle
            .add(Duration::ZERO, self.observed_core_us, self.idle_core_us);
    }
}

/// A scenario whose every `arrivals` call is timed.
pub struct TimedScenario {
    inner: Box<dyn Scenario>,
    layer: Arc<Layer>,
    busy: Duration,
    calls: u64,
    jobs: u64,
}

impl TimedScenario {
    /// Wraps `inner`, feeding `layer`.
    pub fn new(inner: Box<dyn Scenario>, layer: &Arc<Layer>) -> TimedScenario {
        TimedScenario {
            inner,
            layer: Arc::clone(layer),
            busy: Duration::ZERO,
            calls: 0,
            jobs: 0,
        }
    }
}

impl Scenario for TimedScenario {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn qos_spec(&self) -> QosSpec {
        self.inner.qos_spec()
    }

    fn arrivals(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, Job)> {
        let start = Instant::now();
        let jobs = self.inner.arrivals(from, to);
        self.busy += start.elapsed();
        self.calls += 1;
        self.jobs += jobs.len() as u64;
        jobs
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl Drop for TimedScenario {
    fn drop(&mut self) {
        self.layer.add(self.busy, self.calls, self.jobs);
    }
}
