//! The content-addressed cache must be invisible except for speed:
//! a warm run (every cell served from disk) must be byte-identical to a
//! cold run, and both must be byte-identical to a run with the cache
//! disabled. Same discipline as `golden_bits` — floats are compared by
//! bit pattern, not approximately.

use std::path::PathBuf;
use std::sync::Mutex;

use experiments::ablations::{a1_state_features, AblationConfig};
use experiments::e1_energy_per_qos::{run_e1, E1Config};
use experiments::e2_learning_curve::{run_e2, E2Config};
use experiments::e3_adaptivity::{run_e3, E3Config};
use experiments::e8_idle_states::{run_e8, E8Config};
use experiments::e9_fault_resilience::{run_e9, E9Config};
use experiments::{cache, PolicyKind, TrainingProtocol};
use soc::SocConfig;

/// The cache is process-global state; tests in this binary serialize on
/// this lock so one test's directory never leaks into another's run.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rlpm-cache-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the quick E1 matrix to a bit-exact string.
fn e1_fingerprint(soc: &SocConfig) -> String {
    let result = run_e1(soc, &E1Config::quick());
    let mut out = String::new();
    out.push_str(&result.energy_per_qos_table().to_csv());
    out.push_str(&result.summary_table().to_csv());
    for run in &result.runs {
        out.push_str(&format!(
            "{}/{}/{} energy={:016x} qos_units={:016x} epochs={} transitions={}\n",
            run.scenario,
            run.policy,
            run.seed,
            run.metrics.energy_j.to_bits(),
            run.metrics.qos.units.to_bits(),
            run.metrics.epochs,
            run.metrics.transitions,
        ));
    }
    out
}

#[test]
fn e1_cold_warm_and_uncached_runs_are_byte_identical() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");

    cache::configure(None);
    let uncached = e1_fingerprint(&soc);

    let dir = scratch_dir("e1");
    cache::configure(Some(dir.clone()));
    cache::reset_stats();
    let cold = e1_fingerprint(&soc);
    let cold_stats = cache::stats();
    assert!(cold_stats.misses > 0, "cold run must compute cells");
    assert!(cold_stats.stores > 0, "cold run must persist entries");
    assert_eq!(cold_stats.store_failures, 0);

    // Warm: clear the in-memory memo so every cell goes through the
    // on-disk envelope decode path.
    cache::clear_memo();
    cache::reset_stats();
    let warm = e1_fingerprint(&soc);
    let warm_stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(warm_stats.hits > 0, "warm run must be served from disk");
    assert_eq!(warm_stats.misses, 0, "warm run must not recompute");
    assert!(cold == warm, "cold vs warm differ:\n{cold}\nvs\n{warm}");
    assert!(
        cold == uncached,
        "cached vs uncached differ:\n{cold}\nvs\n{uncached}"
    );
    assert!(cold.contains("video"), "sanity: matrix actually ran");
}

#[test]
fn full_experiment_suite_is_identical_cold_and_warm() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    // Debug formatting prints floats in shortest round-trip form, which
    // is injective per bit pattern, so string equality is bit equality.
    let run_all = |soc: &SocConfig| {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            run_e2(soc, &E2Config::quick()),
            run_e3(soc, &E3Config::quick()),
            run_e8(&E8Config::quick()),
            run_e9(soc, &E9Config::quick()),
            a1_state_features(soc, &AblationConfig::quick()),
        )
    };

    let dir = scratch_dir("suite");
    cache::configure(Some(dir.clone()));
    cache::reset_stats();
    let cold = run_all(&soc);
    cache::clear_memo();
    cache::reset_stats();
    let warm = run_all(&soc);
    let warm_stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(warm_stats.hits > 0);
    assert_eq!(warm_stats.misses, 0);
    assert!(cold == warm, "suite cold vs warm differ");
}

/// The E1 sweep and single-cell requests (the serve `simulate` path)
/// address the cache through identical keys: the sweep is not a key
/// component, so entries written by one must satisfy the other, bit for
/// bit, in both directions. The cached metrics also equal what one
/// multi-lane `run_batch` of the same cells computes, so the entries are
/// lane-count independent.
#[test]
fn e1_warm_entries_satisfy_single_cell_requests_and_vice_versa() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    let e1 = E1Config::quick();
    let run_config = experiments::RunConfig::seconds(e1.eval_secs);
    // The E1 quick matrix, flattened in its own (scenario, policy, seed)
    // iteration order.
    let mut cells = Vec::new();
    for &scenario in &e1.scenarios {
        for &policy in &e1.policies {
            for &seed in &e1.seeds {
                cells.push((scenario, policy, seed));
            }
        }
    }
    let eval_all = || -> Vec<experiments::RunMetrics> {
        cells
            .iter()
            .map(|&(scenario, policy, seed)| {
                experiments::eval_cell(&soc, scenario, policy, e1.training, seed, run_config)
                    .expect("valid preset evaluates")
            })
            .collect()
    };

    // Cold sweep: `run_e1` evaluates every cell on the scheduler,
    // filling the cache.
    let dir = scratch_dir("cells");
    cache::configure(Some(dir.clone()));
    cache::reset_stats();
    let swept = run_e1(&soc, &e1);
    assert!(cache::stats().misses > 0, "cold pass must compute");
    assert_eq!(swept.runs.len(), cells.len());

    // Warm single-cell requests, disk only: every cell must be served
    // from the entries the sweep wrote, and match the sweep exactly.
    cache::clear_memo();
    cache::reset_stats();
    let single = eval_all();
    let warm_stats = cache::stats();
    assert_eq!(warm_stats.misses, 0, "sweep entries must satisfy requests");
    assert_eq!(warm_stats.hits, cells.len() as u64);
    for (&(scenario, policy, seed), (m, l)) in cells.iter().zip(single.iter().zip(&swept.runs)) {
        assert_eq!((scenario, policy, seed), (l.scenario, l.policy, l.seed));
        assert_eq!(
            m.energy_j.to_bits(),
            l.metrics.energy_j.to_bits(),
            "{}/{}/{} diverged between cached paths",
            scenario.name(),
            policy.name(),
            seed
        );
        assert_eq!(m, &l.metrics);
    }

    // Every cell as one lane of a single batch, with the evaluation
    // stream derivation `eval_cell` uses: the same metrics, bit for bit.
    let mut batch = soc::DeviceBatch::new(
        cells
            .iter()
            .map(|_| soc::Soc::new(soc.clone()).expect("preset is valid"))
            .collect(),
    )
    .expect("one preset shares one grid");
    let mut lanes: Vec<experiments::BatchLane> = cells
        .iter()
        .map(|&(scenario, policy, seed)| experiments::BatchLane {
            scenario: scenario.build(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
            governor: policy.build_trained(&soc, scenario, e1.training, seed),
            faults: None,
        })
        .collect();
    let batched = experiments::run_batch(&mut batch, &mut lanes, run_config);
    assert_eq!(
        batched, single,
        "a multi-lane batch computes the cached cells"
    );

    // And the mirror image: a fresh cache filled by cold single-cell
    // requests must satisfy a warm sweep without recomputing.
    let dir2 = scratch_dir("cells2");
    cache::configure(Some(dir2.clone()));
    cache::clear_memo();
    cache::reset_stats();
    let cold_single = eval_all();
    assert!(cache::stats().misses > 0);
    cache::clear_memo();
    cache::reset_stats();
    let warm_swept = run_e1(&soc, &e1);
    let stats = cache::stats();
    assert_eq!(stats.misses, 0, "request entries must satisfy the sweep");
    for (m, l) in cold_single.iter().zip(&warm_swept.runs) {
        assert_eq!(m, &l.metrics);
    }

    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn restored_policy_reproduces_direct_training_bitwise() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = SocConfig::odroid_xu3_like().expect("preset is valid");
    let scenario = workload::ScenarioKind::Video;
    let training = TrainingProtocol::quick();
    let seed: u64 = 11;

    let evaluate = |governor: &mut dyn governors::Governor| {
        let mut soc_inst = soc::Soc::new(soc.clone()).expect("preset is valid");
        let mut scenario_inst = scenario.build(seed.wrapping_mul(3).wrapping_add(7));
        let metrics = experiments::run(
            &mut soc_inst,
            scenario_inst.as_mut(),
            governor,
            experiments::RunConfig::seconds(10),
        );
        (
            metrics.energy_j.to_bits(),
            metrics.qos.units.to_bits(),
            metrics.transitions,
        )
    };

    let dir = scratch_dir("qtbl");
    cache::configure(Some(dir.clone()));
    // First build trains and stores the Q-table.
    let mut direct = PolicyKind::Rl.build_trained(&soc, scenario, training, seed);
    // Second build (memo cleared) restores the table from disk.
    cache::clear_memo();
    cache::reset_stats();
    let mut restored = PolicyKind::Rl.build_trained(&soc, scenario, training, seed);
    let stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(stats.hits > 0, "second build must load the stored table");
    assert_eq!(
        evaluate(direct.as_mut()),
        evaluate(restored.as_mut()),
        "restored frozen policy must decide identically to the directly trained one"
    );
}
