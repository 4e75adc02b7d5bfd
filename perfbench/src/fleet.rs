//! `fleet`: one `DeviceBatch` of `ondemand` lanes run through
//! `experiments::run_batch`.
//!
//! Half the lanes run `standby`, a quarter `idle` and a quarter `mixed`,
//! assigned by a seeded shuffle. The mostly parked population exercises
//! the SoA idle kernel and the per-lane-epoch decide; the active quarter
//! keeps the scalar epoch path inside the batch busy. One operation
//! advances the whole fleet by [`SEGMENT_SECS`] simulated seconds with
//! one `run_batch` call; a pass is [`SEGMENTS`] of them from a freshly
//! built batch.

use std::time::Instant;

use experiments::{run, run_batch, BatchLane, RunConfig};
use governors::GovernorKind;
use simkit::SimRng;
use soc::{DeviceBatch, Soc, SocConfig};
use workload::ScenarioKind;

use crate::digest::Digest;
use crate::layers::{PolicyClass, SimLayers, TimedGovernor, TimedScenario};
use crate::report::Report;
use crate::sim::{Pass, SimWorkload};

/// Devices in the fleet.
const LANES: usize = 256;
/// Simulated seconds one operation advances the fleet.
const SEGMENT_SECS: u64 = 4;
/// Operations per pass.
const SEGMENTS: usize = 30;
/// Lanes replayed through a looped `run` after the measured window.
const REPLAYED_LANES: usize = 3;

/// The fleet inputs: each lane's scenario and seed.
pub struct Fleet {
    soc: SocConfig,
    lanes: Vec<(ScenarioKind, u64)>,
}

impl Fleet {
    /// Generates the lane population from the workload seed.
    pub fn new(seed: u64) -> Fleet {
        let mut rng = SimRng::seed_from(seed);
        let mut kinds: Vec<ScenarioKind> = (0..LANES)
            .map(|i| match i % 4 {
                0 | 1 => ScenarioKind::Standby,
                2 => ScenarioKind::Idle,
                _ => ScenarioKind::Mixed,
            })
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.uniform_usize(i + 1));
        }
        Fleet {
            soc: SocConfig::odroid_xu3_like().expect("the xu3 preset validates"),
            lanes: kinds.into_iter().map(|k| (k, rng.next_u64())).collect(),
        }
    }

    /// One lane of each scenario, the lanes the looped replay checks.
    fn replayed(&self) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::new();
        for (i, (kind, _)) in self.lanes.iter().enumerate() {
            if picked.len() < REPLAYED_LANES && picked.iter().all(|&p| self.lanes[p].0 != *kind) {
                picked.push(i);
            }
        }
        picked
    }
}

impl SimWorkload for Fleet {
    type State = (DeviceBatch, Vec<BatchLane>);

    fn start(&self, layers: Option<&SimLayers>) -> (DeviceBatch, Vec<BatchLane>) {
        let socs: Vec<Soc> = (0..LANES)
            .map(|_| Soc::new(self.soc.clone()).expect("the xu3 preset builds"))
            .collect();
        let batch = DeviceBatch::new(socs).expect("identical lanes share one grid");
        let lanes = self
            .lanes
            .iter()
            .map(|&(kind, seed)| {
                let governor = GovernorKind::Ondemand.build(&self.soc);
                let scenario = kind.build(seed);
                match layers {
                    None => BatchLane {
                        scenario,
                        governor,
                        faults: None,
                    },
                    Some(l) => BatchLane {
                        scenario: Box::new(TimedScenario::new(scenario, &l.arrivals)),
                        governor: Box::new(TimedGovernor::new(
                            governor,
                            PolicyClass::Baseline,
                            l,
                            &self.soc,
                        )),
                        faults: None,
                    },
                }
            })
            .collect();
        (batch, lanes)
    }

    fn pass(
        &self,
        (mut batch, mut lanes): (DeviceBatch, Vec<BatchLane>),
        layers: Option<&SimLayers>,
    ) -> Pass {
        let start = Instant::now();
        let replayed = self.replayed();
        let mut pass = Pass {
            replay_bits: vec![Vec::new(); replayed.len()],
            ..Pass::default()
        };
        let config = RunConfig::seconds(SEGMENT_SECS);
        for _ in 0..SEGMENTS {
            let op_start = Instant::now();
            let metrics = run_batch(&mut batch, &mut lanes, config);
            let op_secs = op_start.elapsed();
            pass.op_secs.push(op_secs.as_secs_f64());
            let lane_epochs: u64 = metrics.iter().map(|m| m.epochs).sum();
            if let Some(l) = layers {
                l.run_batch.add(op_secs, 1, lane_epochs);
            }
            pass.sim_secs += lane_epochs as f64 * self.soc.epoch.as_secs_f64();
            let mut digest = Digest::default();
            for m in &metrics {
                digest.metrics(m);
            }
            pass.op_digests.push(digest);
            for (bits, &lane) in pass.replay_bits.iter_mut().zip(&replayed) {
                bits.push(metrics[lane].energy_j.to_bits());
            }
        }
        // Dropping the lanes flushes the decorators' tallies.
        drop(lanes);
        pass.wall_secs = start.elapsed().as_secs_f64();
        pass
    }

    fn final_checks(&self, reference: &Pass, report: &mut Report) {
        let config = RunConfig::seconds(SEGMENT_SECS);
        let mut mismatches = 0usize;
        let replayed = self.replayed();
        for (&lane, want) in replayed.iter().zip(&reference.replay_bits) {
            let (kind, seed) = self.lanes[lane];
            let mut soc = Soc::new(self.soc.clone()).expect("the xu3 preset builds");
            let mut scenario = kind.build(seed);
            let mut governor = GovernorKind::Ondemand.build(&self.soc);
            for &bits in want {
                let m = run(&mut soc, scenario.as_mut(), governor.as_mut(), config);
                mismatches += usize::from(m.energy_j.to_bits() != bits);
            }
        }
        report.check(
            "looped-replay-bit-identical",
            mismatches == 0 && replayed.len() == REPLAYED_LANES,
            format!(
                "lanes {replayed:?} replayed through run over {SEGMENTS} segments, \
                 {mismatches} energies differ"
            ),
        );
    }
}
