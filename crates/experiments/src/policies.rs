//! The policies under test, including the pre-trained RL policy.

use governors::{Governor, GovernorKind};
use rlpm::{persist, RlConfig, RlGovernor};
use rlpm_hw::{HwConfig, HwPolicyDriver};
use soc::{Soc, SocConfig};
use workload::ScenarioKind;

use crate::runner::RunMetrics;
use crate::{cache, run, RunConfig};

/// How the RL policy is trained before a frozen evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingProtocol {
    /// Number of training episodes.
    pub episodes: u32,
    /// Simulated seconds per episode.
    pub episode_secs: u64,
}

impl Default for TrainingProtocol {
    fn default() -> Self {
        TrainingProtocol {
            episodes: 100,
            episode_secs: 30,
        }
    }
}

impl TrainingProtocol {
    /// A short protocol for tests and smoke benches.
    pub fn quick() -> Self {
        TrainingProtocol {
            episodes: 6,
            episode_secs: 10,
        }
    }
}

/// Every policy the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// One of the Linux baselines.
    Baseline(GovernorKind),
    /// The paper's policy (software implementation), trained online on
    /// the evaluation scenario before a frozen measurement.
    Rl,
    /// The paper's policy behind the hardware engine and register bus.
    RlHw,
}

impl PolicyKind {
    /// The six baselines plus the proposed policy, in table order.
    pub fn evaluation_set() -> Vec<PolicyKind> {
        let mut v: Vec<PolicyKind> = GovernorKind::SIX_BASELINES
            .into_iter()
            .map(PolicyKind::Baseline)
            .collect();
        v.push(PolicyKind::Rl);
        v
    }

    /// Display name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Baseline(kind) => kind.name(),
            PolicyKind::Rl => "rlpm",
            PolicyKind::RlHw => "rlpm-hw",
        }
    }

    /// Builds the governor ready for a frozen evaluation run: baselines
    /// as-is, RL variants trained on `scenario` with `protocol` and then
    /// frozen.
    pub fn build_trained(
        &self,
        soc_config: &SocConfig,
        scenario: ScenarioKind,
        protocol: TrainingProtocol,
        seed: u64,
    ) -> Box<dyn Governor> {
        match self {
            PolicyKind::Baseline(kind) => kind.build(soc_config),
            PolicyKind::Rl => {
                // `Rl` and `RlHw` share one cached table per
                // (soc, config, scenario, protocol, seed): training is by
                // far the most expensive cacheable unit, and a frozen
                // policy's behavior depends only on its merged table bits.
                if cache::is_enabled() {
                    let rl_config = RlConfig::for_soc(soc_config);
                    if let Some(policy) = cached_frozen_policy(
                        soc_config,
                        &rl_config,
                        scenario,
                        protocol,
                        seed,
                        || train_rl_governor(soc_config, scenario, protocol, seed),
                    ) {
                        return Box::new(policy);
                    }
                }
                let mut policy = train_rl_governor(soc_config, scenario, protocol, seed);
                policy.set_frozen(true);
                policy.reset();
                Box::new(policy)
            }
            PolicyKind::RlHw => {
                // Train in software, then load the table into the engine —
                // the deployment flow the paper describes.
                let sw = if cache::is_enabled() {
                    let rl_config = RlConfig::for_soc(soc_config);
                    cached_frozen_policy(soc_config, &rl_config, scenario, protocol, seed, || {
                        train_rl_governor(soc_config, scenario, protocol, seed)
                    })
                } else {
                    None
                };
                let mut sw = sw.unwrap_or_else(|| {
                    let mut trained = train_rl_governor(soc_config, scenario, protocol, seed);
                    trained.set_frozen(true);
                    trained
                });
                sw.set_frozen(true);
                let rl_config = sw.config().clone();
                let mut driver = HwPolicyDriver::new(HwConfig::default(), &rl_config);
                let loaded = driver.load_table(&sw.agent().merged_table());
                debug_assert!(
                    loaded.is_ok(),
                    "engine geometry is derived from the same RlConfig: {loaded:?}"
                );
                driver.set_training(false);
                Box::new(driver)
            }
        }
    }
}

/// Trains a frozen policy through the content-addressed cache: on a hit
/// the persisted mean table is restored into a fresh governor, which
/// reproduces the trained policy's frozen behavior bit-for-bit (frozen
/// decisions are pure greedy over the merged table — no RNG, no
/// learning state — and the persisted mean preserves the merged bits
/// exactly; pinned by the `cache_identity` test). On a miss, `train`
/// runs and its table is persisted via the [`rlpm::persist`] container.
///
/// Any defect — unreadable entry, container parse failure, geometry
/// mismatch after a config change — yields `None` and the caller falls
/// back to direct training: cache trouble can cost time, never
/// correctness.
pub(crate) fn cached_frozen_policy(
    soc_config: &SocConfig,
    rl_config: &RlConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
    train: impl FnOnce() -> RlGovernor,
) -> Option<RlGovernor> {
    let key = cache::Key::new("qtbl")
        .debug(soc_config)
        .debug(rl_config)
        .str(scenario.name())
        .debug(&protocol)
        .u64(seed)
        .finish();
    let bytes = cache::get_or_compute("qtbl", key, || {
        let trained = train();
        Some(persist::save_policy(&trained))
    })?;
    let table = persist::parse_table(&bytes).ok()?;
    let mut policy = RlGovernor::new(rl_config.clone(), seed);
    let expected = (
        policy.agent().table().num_states(),
        policy.agent().table().num_actions(),
    );
    if (table.num_states(), table.num_actions()) != expected {
        return None;
    }
    policy.agent_mut().load_merged(table.values());
    policy.set_frozen(true);
    policy.reset();
    Some(policy)
}

/// Runs one frozen evaluation cell — train (or restore) the policy,
/// then measure `run_config` worth of the scenario on a fresh SoC —
/// consulting the metrics cache when it is enabled. Traced runs bypass
/// the cache (traces are bulky, figure-only output). An invalid SoC
/// config yields `None`, cached or not.
///
/// This is the one evaluation path: the E1-style sweeps and the serve
/// `simulate` request both call it, so identical concurrent requests
/// coalesce in the cache's memo layer ([`cache::get_or_compute`]) and
/// compute the cell once.
pub fn eval_cell(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    if !cache::is_enabled() || run_config.record_trace {
        return eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config);
    }
    let key = cell_key(soc_config, scenario, policy, training, seed, run_config);
    let bytes = cache::get_or_compute("cell", key, || {
        let metrics = eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config)?;
        cache::encode_metrics(&metrics)
    })?;
    cache::decode_metrics(&bytes)
        .or_else(|| eval_cell_uncached(soc_config, scenario, policy, training, seed, run_config))
}

/// The cache key of one evaluation cell: scenario, policy, seed,
/// configs and duration, nothing else. Which sweep or request asked for
/// the cell never enters the key, so a warm entry written by E1 answers
/// a serve `simulate` of the same cell and vice versa (pinned by the
/// `cache_identity` integration test).
fn cell_key(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> u64 {
    cache::Key::new("cell")
        .debug(soc_config)
        .str(scenario.name())
        .str(policy.name())
        .debug(&training)
        .u64(seed)
        .u64(run_config.duration.as_nanos())
        .finish()
}

fn eval_cell_uncached(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    policy: PolicyKind,
    training: TrainingProtocol,
    seed: u64,
    run_config: RunConfig,
) -> Option<RunMetrics> {
    let mut soc = Soc::new(soc_config.clone()).ok()?;
    let mut governor = policy.build_trained(soc_config, scenario, training, seed);
    // Evaluation uses a different seed stream than training.
    let mut scenario_inst = scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    Some(run(
        &mut soc,
        scenario_inst.as_mut(),
        governor.as_mut(),
        run_config,
    ))
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Trains an [`RlGovernor`] online: `protocol.episodes` episodes of the
/// scenario, resetting the SoC and the episode state (but not the
/// Q-table) in between.
pub fn train_rl_governor(
    soc_config: &SocConfig,
    scenario: ScenarioKind,
    protocol: TrainingProtocol,
    seed: u64,
) -> RlGovernor {
    let mut policy = RlGovernor::new(RlConfig::for_soc(soc_config), seed);
    // Callers hand in configs that already built a SoC; a config that
    // fails validation here trains nothing and the policy stays fresh.
    let Ok(mut soc) = Soc::new(soc_config.clone()) else {
        return policy;
    };
    let mut scenario = scenario.build(seed.wrapping_add(0x5eed));
    for _ in 0..protocol.episodes {
        run(
            &mut soc,
            scenario.as_mut(),
            &mut policy,
            RunConfig::seconds(protocol.episode_secs),
        );
        soc.reset();
        scenario.reset();
        policy.reset();
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_is_six_plus_one() {
        let set = PolicyKind::evaluation_set();
        assert_eq!(set.len(), 7);
        assert_eq!(set[6], PolicyKind::Rl);
        assert_eq!(set[0].name(), "performance");
    }

    #[test]
    fn training_visits_states_and_freezes() {
        let cfg = SocConfig::odroid_xu3_like().unwrap();
        let policy = train_rl_governor(&cfg, ScenarioKind::Video, TrainingProtocol::quick(), 1);
        let visited = policy
            .agent()
            .table()
            .visited_entries(policy.config().q_init);
        assert!(visited > 100, "training touched only {visited} entries");
        assert!(policy.agent().updates() > 1_000);
    }

    #[test]
    fn build_trained_returns_frozen_rl() {
        let cfg = SocConfig::symmetric_quad().unwrap();
        let g =
            PolicyKind::Rl.build_trained(&cfg, ScenarioKind::Audio, TrainingProtocol::quick(), 2);
        assert_eq!(g.name(), "rlpm");
    }

    #[test]
    fn build_trained_hw_loads_engine_table() {
        let cfg = SocConfig::symmetric_quad().unwrap();
        let g =
            PolicyKind::RlHw.build_trained(&cfg, ScenarioKind::Audio, TrainingProtocol::quick(), 3);
        assert_eq!(g.name(), "rlpm-hw");
    }
}
