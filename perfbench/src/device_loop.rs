//! `device-loop`: the E1 matrix shape run sequentially on one device,
//! with the result cache off.
//!
//! Ten catalog scenarios × the six baselines, `rlpm` and `rlpm-hw`. The
//! RL cells train online with `TrainingProtocol::quick()` inside
//! `PolicyKind::build_trained` and are then evaluated frozen. A pass
//! starts from a fresh device and scenario per cell; one operation is one
//! cell: build the policy (training it if RL), then evaluate it with
//! `experiments::run`.

use std::time::Instant;

use experiments::{run, PolicyKind, RunConfig, RunMetrics, TrainingProtocol};
use governors::GovernorKind;
use simkit::SimRng;
use soc::{Soc, SocConfig};
use workload::{Scenario, ScenarioKind};

use crate::digest::Digest;
use crate::layers::{PolicyClass, SimLayers, TimedGovernor, TimedScenario};
use crate::sim::{Pass, SimWorkload};

/// Simulated seconds of frozen evaluation per cell.
const EVAL_SECS: u64 = 20;

/// One `(scenario, policy)` cell with its generated seeds.
#[derive(Debug, Clone, Copy)]
struct Cell {
    scenario: ScenarioKind,
    policy: PolicyKind,
    train_seed: u64,
    eval_seed: u64,
}

/// The device-loop inputs: every cell of the matrix, seeded.
pub struct DeviceLoop {
    soc: SocConfig,
    cells: Vec<Cell>,
    training: TrainingProtocol,
}

impl DeviceLoop {
    /// Generates the matrix from the workload seed.
    pub fn new(seed: u64) -> DeviceLoop {
        let mut rng = SimRng::seed_from(seed);
        let mut policies: Vec<PolicyKind> = GovernorKind::SIX_BASELINES
            .into_iter()
            .map(PolicyKind::Baseline)
            .collect();
        policies.extend([PolicyKind::Rl, PolicyKind::RlHw]);
        let mut cells = Vec::new();
        for scenario in ScenarioKind::ALL {
            for &policy in &policies {
                cells.push(Cell {
                    scenario,
                    policy,
                    train_seed: rng.next_u64(),
                    eval_seed: rng.next_u64(),
                });
            }
        }
        DeviceLoop {
            soc: SocConfig::odroid_xu3_like().expect("the xu3 preset validates"),
            cells,
            training: TrainingProtocol::quick(),
        }
    }

    /// Simulated seconds one cell covers: training episodes (RL only)
    /// plus the evaluated epochs.
    fn sim_secs(&self, cell: &Cell, metrics: &RunMetrics) -> f64 {
        let train = match cell.policy {
            PolicyKind::Baseline(_) => 0,
            _ => u64::from(self.training.episodes) * self.training.episode_secs,
        };
        train as f64 + metrics.epochs as f64 * self.soc.epoch.as_secs_f64()
    }

    fn run_cell(
        &self,
        cell: &Cell,
        (mut soc, mut scenario): CellState,
        layers: Option<&SimLayers>,
    ) -> RunMetrics {
        let config = RunConfig::seconds(EVAL_SECS);
        let class = match cell.policy {
            PolicyKind::Baseline(_) => PolicyClass::Baseline,
            PolicyKind::Rl => PolicyClass::Rl,
            PolicyKind::RlHw => PolicyClass::RlHw,
        };
        let train_start = Instant::now();
        let governor =
            cell.policy
                .build_trained(&self.soc, cell.scenario, self.training, cell.train_seed);
        let train_secs = train_start.elapsed();
        let Some(layers) = layers else {
            let mut governor = governor;
            return run(&mut soc, scenario.as_mut(), governor.as_mut(), config);
        };
        if class != PolicyClass::Baseline {
            layers.train.add(train_secs, 1, 0);
        }
        let mut governor = TimedGovernor::new(governor, class, layers, &self.soc);
        let start = Instant::now();
        let metrics = run(&mut soc, scenario.as_mut(), &mut governor, config);
        layers.run.add(start.elapsed(), 1, metrics.epochs);
        metrics
    }
}

/// A cell's fresh device and its evaluation scenario.
type CellState = (Soc, Box<dyn Scenario>);

impl SimWorkload for DeviceLoop {
    type State = Vec<CellState>;

    fn start(&self, layers: Option<&SimLayers>) -> Vec<CellState> {
        self.cells
            .iter()
            .map(|cell| {
                let soc = Soc::new(self.soc.clone()).expect("the xu3 preset builds");
                let scenario = cell.scenario.build(cell.eval_seed);
                let scenario: Box<dyn Scenario> = match layers {
                    None => scenario,
                    Some(l) => Box::new(TimedScenario::new(scenario, &l.arrivals)),
                };
                (soc, scenario)
            })
            .collect()
    }

    fn pass(&self, state: Vec<CellState>, layers: Option<&SimLayers>) -> Pass {
        let mut pass = Pass::default();
        let start = Instant::now();
        for (cell, cell_state) in self.cells.iter().zip(state) {
            let op_start = Instant::now();
            let metrics = self.run_cell(cell, cell_state, layers);
            pass.op_secs.push(op_start.elapsed().as_secs_f64());
            pass.sim_secs += self.sim_secs(cell, &metrics);
            let mut digest = Digest::default();
            digest.metrics(&metrics);
            pass.op_digests.push(digest);
        }
        pass.wall_secs = start.elapsed().as_secs_f64();
        pass
    }
}
