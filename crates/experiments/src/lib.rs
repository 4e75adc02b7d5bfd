//! # experiments — the paper's evaluation, reproduced
//!
//! This crate closes the loop between the [`soc`] simulator, the
//! [`workload`] scenarios, and the policies ([`governors`], [`rlpm`],
//! `rlpm-hw`), and defines one module per experiment in the
//! reproduction plan (see `DESIGN.md` at the repository root):
//!
//! | Module | Experiment |
//! |---|---|
//! | [`e1_energy_per_qos`] | E1 — energy per unit QoS vs the six governors (headline table) |
//! | [`e2_learning_curve`] | E2 — online-learning convergence |
//! | [`e3_adaptivity`] | E3 — scenario-switching adaptivity |
//! | [`e4_decision_latency`] | E4 — SW vs HW decision latency (up to ~40×, ~4× end-to-end) |
//! | [`e5_qos_violations`] | E5 — QoS violations per policy |
//! | [`e6_fixed_point`] | E6 — HW/SW parity and fixed-point bit-width study |
//! | [`e7_hw_cost`] | E7 — engine fabric cost pathfinding (extension) |
//! | [`e8_idle_states`] | E8 — cpuidle (C-state) interaction (extension) |
//! | [`e9_fault_resilience`] | E9 — resilience under injected faults (extension) |
//! | [`ablations`] | A1–A4 — state features, reward shaping, exploration, TD algorithm |
//!
//! The building blocks are [`run_batch`] (the one closed-loop
//! simulation, stepping any number of device lanes in lockstep), [`run`]
//! and [`run_with_faults`] (one-lane calls of it, the latter under a
//! seeded fault schedule, see [`resilience`]), [`eval_cell`] (the one
//! evaluation path: a trained policy on one cell, through the result
//! [`cache`]), [`PolicyKind`] (every policy under test, including the
//! pre-trained RL policy), and [`table::Table`] (markdown/CSV rendering
//! used by the `regen-tables` binary and the benches).
//!
//! ## Harness fault tolerance
//!
//! Sweeps run under a supervised scheduler: a panicking cell is retried
//! with bounded backoff ([`set_max_retries`]) and then *quarantined*
//! ([`quarantine_report`]) instead of aborting the whole run; the
//! on-disk cache degrades to the in-memory memo layer on I/O trouble
//! ([`cache::CacheDegraded`]); and the [`journal`] records completed
//! cells so a killed sweep can `--resume`. Deterministic failure
//! injection for all of it lives in [`simkit::failpoint`]. See
//! DESIGN.md, "Harness fault model".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cache;
pub mod e1_energy_per_qos;
pub mod e2_learning_curve;
pub mod e3_adaptivity;
pub mod e4_decision_latency;
pub mod e5_qos_violations;
pub mod e6_fixed_point;
pub mod e7_hw_cost;
pub mod e8_idle_states;
pub mod e9_fault_resilience;
pub mod journal;
pub mod resilience;
pub mod table;

mod par;
mod policies;
mod runner;
mod sched;

pub use cache::CacheDegraded;
pub use policies::{eval_cell, train_rl_governor, PolicyKind, TrainingProtocol};
pub use resilience::{FaultHarness, Watchdog};
pub use runner::{
    ensure_fleet_faults_supported, run, run_batch, run_with_faults, BatchLane,
    FleetFaultsUnsupported, RunConfig, RunMetrics,
};
pub use sched::{
    clear_quarantine, max_retries, quarantine_report, retry_count, set_max_retries,
    QuarantineError, QuarantineRecord, DEFAULT_MAX_RETRIES,
};

/// Registers the harness-resilience counters (`sched.retries`,
/// `sched.quarantined`, `cache.degraded`) with the obs registry so they
/// appear — pinned at zero when nothing fails — in every
/// `MetricsSnapshot`.
pub fn register_harness_metrics() {
    sched::register_obs();
    cache::register_obs();
}
