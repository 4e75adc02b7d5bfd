//! Batched multi-device simulation: N independent [`Soc`] lanes advanced
//! epoch-by-epoch in lockstep.
//!
//! A fleet sweep (many devices × scenarios × seeds) re-runs the same
//! single-device epoch loop thousands of times, and most of those lanes
//! spend most epochs fully idle. [`DeviceBatch`] exploits that with a
//! structure-of-arrays **parked** mode: a lane whose clusters are all
//! quiescent (no cpuidle table, no arrival due within the epoch) detaches
//! its per-cluster hot state — frequency level, temperature, energy
//! accumulator, throttle flag, power constants — into a flat
//! [`crate::cluster::IdleDomain`] vector, and *stays* detached across
//! epochs. Each epoch, one interleaved kernel
//! ([`crate::cluster::advance_idle_batch`]) advances every parked domain
//! in lockstep, and the per-lane epoch report and governor observation
//! are synthesised straight from the domain records without touching the
//! parked `Cluster`/core structures at all. Lanes with queued work,
//! imminent arrivals, cpuidle tables, or a level-change request unpark
//! (the domain state is written back) and run the unmodified
//! [`Soc::run_epoch_into`].
//!
//! Two effects make this fast. The interleaved kernel fills the FP
//! pipeline: a single lane's idle fast-forward is one serial
//! floating-point recurrence (each sub-step's temperature feeds the
//! next), but across lanes the recurrences are independent. And resident
//! parking removes the per-epoch scatter/gather: a parked lane's epoch
//! touches a few dense cache lines of domain state instead of its whole
//! simulator object graph.
//!
//! Batching is a pure scheduling optimisation: every lane produces
//! **bit-identical** state, reports and metrics to running it alone. The
//! parked path replays the exact instruction sequence of the whole-epoch
//! idle fast-forward (and of the epoch epilogue, whose idle-epoch inputs
//! are all exactly `+0.0`/empty), and the scalar path *is* the
//! single-device path. The equivalence is pinned per-epoch by unit tests
//! here and end-to-end by the `golden_bits` batch-vs-looped cases.

use simkit::{obs, SimTime};

use crate::cluster::{advance_idle_batch, IdleDomain, ParkedObsConsts};
use crate::{EpochObservation, EpochReport, Job, LevelRequest, Soc, SocError};

/// Epochs that took the parked (batched idle kernel) fast path.
static PARKED_EPOCHS: obs::Counter = obs::Counter::new("soc.batch.parked_epochs");
/// Epochs that fell back to the scalar single-device path.
static SCALAR_EPOCHS: obs::Counter = obs::Counter::new("soc.batch.scalar_epochs");

/// Per-lane batch bookkeeping: whether the lane is parked, where its
/// domains live, and the constants staged for observation synthesis.
#[derive(Debug, Default)]
struct LaneMeta {
    parked: bool,
    /// Start of this lane's slice in the dense domain vector (valid while
    /// parked; maintained when other lanes unpark).
    domain_start: usize,
    /// This lane's position in `order` (valid while parked).
    order_pos: usize,
    /// Staged per-cluster observation constants (capacity reused across
    /// park/unpark cycles).
    obs: Vec<ParkedObsConsts>,
    /// Completed epochs in the current parked stay — the idle residency
    /// owed to the cores at unpark.
    epochs_parked: u64,
}

/// A set of independent [`Soc`] lanes stepped in lockstep.
///
/// All lanes must share the same epoch and sub-step durations (the
/// lockstep grid); cluster layouts, presets and per-lane state are free
/// to differ. Lanes never interact — the batch exists purely to amortise
/// per-sub-step and per-epoch overhead across devices. Lanes park only
/// in batches of two or more: a one-lane batch (every single-device run,
/// see `experiments::run`) always takes [`Soc::run_epoch_into`].
///
/// While a lane is parked (see the module docs), its `Soc`'s cluster
/// state is stale — the live values sit in the batch's domain vector.
/// [`DeviceBatch::lane_mut`], [`DeviceBatch::unpark_all`] and
/// [`DeviceBatch::into_lanes`] write the state back; [`DeviceBatch::lane`]
/// does not, and is only guaranteed consistent for time, energy and epoch
/// totals (which the batch keeps current every epoch) or after an
/// explicit unpark.
#[derive(Debug)]
pub struct DeviceBatch {
    lanes: Vec<Soc>,
    /// Dense resident domains of every parked lane; each lane owns one
    /// contiguous chunk.
    domains: Vec<IdleDomain>,
    /// Parked lane indices, kept sorted by `domain_start` so the last
    /// entry always owns the tail chunk (which makes unparking O(1)).
    order: Vec<usize>,
    meta: Vec<LaneMeta>,
    /// Per-lane error from the most recent epoch (`None` = stepped OK).
    errors: Vec<Option<SocError>>,
}

impl DeviceBatch {
    /// Builds a batch over the given lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`] if the lanes disagree on
    /// epoch or sub-step duration — the lockstep grid must be shared.
    pub fn new(lanes: Vec<Soc>) -> Result<Self, SocError> {
        if let Some(first) = lanes.first() {
            let (epoch, substep) = (first.config().epoch, first.config().substep);
            for (i, lane) in lanes.iter().enumerate() {
                let c = lane.config();
                if c.epoch != epoch || c.substep != substep {
                    return Err(SocError::InvalidSocConfig {
                        reason: format!(
                            "lane {i} has epoch {}/sub-step {}, lane 0 has {epoch}/{substep}: \
                             batched lanes must share the lockstep grid",
                            c.epoch, c.substep
                        ),
                    });
                }
            }
        }
        Ok(Self::on_shared_grid(lanes))
    }

    /// Builds a batch over lanes already known to share the grid.
    fn on_shared_grid(lanes: Vec<Soc>) -> Self {
        let n = lanes.len();
        DeviceBatch {
            lanes,
            domains: Vec::new(),
            order: Vec::new(),
            meta: (0..n).map(|_| LaneMeta::default()).collect(),
            errors: vec![None; n],
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lanes, for inspection. Parked lanes' cluster state may be
    /// stale — call [`DeviceBatch::unpark_all`] first for a full view.
    pub fn lanes(&self) -> &[Soc] {
        &self.lanes
    }

    /// One lane, immutably (same staleness caveat as
    /// [`DeviceBatch::lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> &Soc {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        &self.lanes[lane]
    }

    /// One lane, mutably — for per-lane knobs or direct inspection. The
    /// lane is unparked first so every field is live; it re-parks on its
    /// next eligible epoch.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Soc {
        self.unpark(lane);
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        &mut self.lanes[lane]
    }

    /// Schedules a job arrival on one lane without unparking it: the
    /// arrival queue lives outside the parked state, and the next epoch's
    /// pre-pass sees the new arrival when it re-checks the parked
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn schedule_job(&mut self, lane: usize, at: SimTime, job: Job) {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        self.lanes[lane].schedule_job(at, job);
    }

    /// Jobs queued on one lane's cores. For a parked lane this is zero by
    /// the parked invariant (every cluster quiescent), without touching
    /// the per-core queues.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_queued_jobs(&self, lane: usize) -> usize {
        if self.lane_parked(lane) {
            0
        } else {
            // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
            self.lanes[lane].queued_jobs()
        }
    }

    /// Builds the governor-facing observation for one lane's epoch
    /// report: [`Soc::observe_into`] for live lanes, synthesised from the
    /// resident domains (bit-identically) for parked ones.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn observe_lane_into(&self, lane: usize, report: &EpochReport, obs: &mut EpochObservation) {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        let (meta, soc) = (&self.meta[lane], &self.lanes[lane]);
        if !meta.parked {
            soc.observe_into(report, obs);
            return;
        }
        obs.at = report.ended_at;
        obs.energy_j = report.energy_j;
        obs.clusters.clear();
        let domains = self
            .domains
            .get(meta.domain_start..meta.domain_start + meta.obs.len())
            .unwrap_or(&[]);
        obs.clusters.extend(
            domains
                .iter()
                .zip(&meta.obs)
                .zip(&report.clusters)
                .map(|((d, consts), r)| consts.observe(d, r.util_avg, r.util_max)),
        );
    }

    /// Unparks every parked lane, writing the resident domain state back
    /// into the `Soc` structures. Call before inspecting final lane state;
    /// [`DeviceBatch::into_lanes`] does it automatically.
    pub fn unpark_all(&mut self) {
        while let Some(&lane) = self.order.last() {
            self.unpark(lane);
        }
    }

    /// Consumes the batch, returning the (fully unparked) lanes.
    pub fn into_lanes(mut self) -> Vec<Soc> {
        self.unpark_all();
        self.lanes
    }

    /// Per-lane outcome of the most recent [`DeviceBatch::run_epoch_into`]
    /// call: `None` means the lane stepped, `Some` carries the error that
    /// stopped it (its report slot is unspecified).
    pub fn lane_errors(&self) -> &[Option<SocError>] {
        &self.errors
    }

    /// Number of lanes currently parked on the batched idle path.
    pub fn parked_lanes(&self) -> usize {
        self.order.len()
    }

    /// Whether one lane is currently parked. After a
    /// [`DeviceBatch::run_epoch_into`] call this tells the caller the
    /// lane's epoch took the kernel path — which implies it completed no
    /// jobs and queued none, letting control loops skip QoS bookkeeping
    /// whose deltas are exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_parked(&self, lane: usize) -> bool {
        // xtask-allow: no-panic-lib -- documented # Panics contract, like slice indexing
        self.meta[lane].parked
    }

    /// Parks `lane`: detaches its clusters onto the end of the dense
    /// domain vector. Caller guarantees the lane is parkable and its
    /// levels are applied.
    fn park(&mut self, lane: usize) {
        let Some(meta) = self.meta.get_mut(lane) else {
            debug_assert!(false, "park({lane}) out of range");
            return;
        };
        debug_assert!(!meta.parked);
        meta.parked = true;
        meta.domain_start = self.domains.len();
        meta.order_pos = self.order.len();
        meta.epochs_parked = 0;
        meta.obs.clear();
        if let Some(soc) = self.lanes.get_mut(lane) {
            soc.parked_enter(&mut self.domains, &mut meta.obs);
        }
        self.order.push(lane);
    }

    /// Unparks `lane` if parked: writes its domain state back and closes
    /// the gap in the dense domain vector by moving the tail chunk into
    /// it — O(clusters), not O(parked lanes), so a fleet-wide wake-up
    /// storm (every lane unparking for a synchronized arrival) stays
    /// linear in the fleet. Moving the tail chunk to the freed offset
    /// keeps `order` sorted by `domain_start`: entries before `pos` hold
    /// smaller offsets, entries after hold larger ones, and the moved
    /// lane takes exactly the freed offset and position. No-op for live
    /// lanes.
    fn unpark(&mut self, lane: usize) {
        let Some(meta) = self.meta.get_mut(lane) else {
            return;
        };
        if !meta.parked {
            return;
        }
        meta.parked = false;
        let (clusters, start, pos, epochs) = (
            meta.obs.len(),
            meta.domain_start,
            meta.order_pos,
            meta.epochs_parked,
        );
        if let (Some(soc), Some(doms)) = (
            self.lanes.get_mut(lane),
            self.domains.get(start..start + clusters),
        ) {
            soc.parked_exit(doms, epochs);
        }
        let Some(&last) = self.order.last() else {
            debug_assert!(false, "unpark({lane}): lane parked but `order` empty");
            return;
        };
        if last == lane {
            self.order.pop();
            self.domains.truncate(start);
            return;
        }
        let (last_start, last_clusters) = self
            .meta
            .get(last)
            .map_or((0, 0), |m| (m.domain_start, m.obs.len()));
        if last_clusters == clusters {
            self.domains
                .copy_within(last_start..last_start + clusters, start);
            self.domains.truncate(last_start);
            self.order.swap_remove(pos);
            if let Some(m) = self.meta.get_mut(last) {
                m.domain_start = start;
                m.order_pos = pos;
            }
        } else {
            // Mixed cluster counts in one batch: chunk widths differ, so
            // fall back to a linear shift of everything after the gap.
            self.domains.drain(start..start + clusters);
            self.order.remove(pos);
            for (p, &l) in self.order.iter().enumerate().skip(pos) {
                if let Some(m) = self.meta.get_mut(l) {
                    m.domain_start -= clusters;
                    m.order_pos = p;
                }
            }
        }
    }

    /// Whether a parked lane can stay parked for the coming epoch: no
    /// arrival due within it, and the level request a no-op on every
    /// domain (the same clamp-then-compare `set_level` performs). The
    /// quiescence half of the parked condition is invariant while parked.
    fn still_parkable(&self, lane: usize, request: &LevelRequest) -> bool {
        let (Some(meta), Some(soc)) = (self.meta.get(lane), self.lanes.get(lane)) else {
            return false;
        };
        let clusters = meta.obs.len();
        if request.levels.len() != clusters || !soc.arrivals_clear_of_epoch() {
            return false;
        }
        self.domains
            .get(meta.domain_start..meta.domain_start + clusters)
            .is_some_and(|domains| {
                domains
                    .iter()
                    .zip(&request.levels)
                    .all(|(d, &level)| d.level_request_is_noop(level))
            })
    }

    /// Advances every active lane by one epoch in lockstep.
    ///
    /// `active[i]` gates lane `i` (callers clear it for lanes that ended
    /// early; an inactive lane is unparked and left untouched);
    /// `requests[i]` and `reports[i]` are that lane's level request and
    /// report slot. Per-lane failures (a request with the wrong arity or
    /// an out-of-range level) do not stop the batch: the lane is skipped,
    /// the error is recorded in [`DeviceBatch::lane_errors`], and every
    /// other lane still steps — exactly as independent looped runs would
    /// behave.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSocConfig`] if the slice lengths do not
    /// match the lane count (nothing is stepped).
    pub fn run_epoch_into(
        &mut self,
        active: &[bool],
        requests: &[LevelRequest],
        reports: &mut [EpochReport],
    ) -> Result<(), SocError> {
        let n = self.lanes.len();
        if active.len() != n || requests.len() != n || reports.len() != n {
            return Err(SocError::InvalidSocConfig {
                reason: format!(
                    "batch of {n} lanes stepped with {} active flags, {} requests, {} reports",
                    active.len(),
                    requests.len(),
                    reports.len()
                ),
            });
        }

        // Pre-pass: decide each lane's path for this epoch. Parked lanes
        // re-check the parked condition against the new request and
        // arrivals; live lanes either park (all-idle epoch ahead) or run
        // the scalar path right here. The order change relative to looped
        // execution is immaterial — lanes never read each other's state.
        // A lone lane has no one to share the kernel dispatch with, so it
        // never parks: parking would only add park/unpark churn that the
        // scalar path's own idle fast-forward avoids.
        let may_park = n >= 2;
        for (i, ((request, report), &is_active)) in requests
            .iter()
            .zip(reports.iter_mut())
            .zip(active)
            .enumerate()
        {
            if let Some(slot) = self.errors.get_mut(i) {
                *slot = None;
            }
            if self.meta.get(i).is_some_and(|m| m.parked) {
                if is_active && self.still_parkable(i, request) {
                    // Stays parked: the kernel itself opens the new epoch
                    // on the resident domains (discarding the previous
                    // epoch's stall flag at gather).
                    continue;
                }
                self.unpark(i);
            }
            if !is_active {
                continue;
            }
            let Some(lane) = self.lanes.get_mut(i) else {
                continue;
            };
            if may_park && lane.idle_epoch_parkable() {
                match lane.apply_levels(request) {
                    Ok(()) => self.park(i),
                    Err(e) => {
                        if let Some(slot) = self.errors.get_mut(i) {
                            *slot = Some(e);
                        }
                    }
                }
            } else {
                SCALAR_EPOCHS.inc();
                if let Err(e) = lane.run_epoch_into(request, report) {
                    if let Some(slot) = self.errors.get_mut(i) {
                        *slot = Some(e);
                    }
                }
            }
        }

        // All lanes share the grid (validated in `new`), so one kernel
        // call advances every parked domain through the whole epoch.
        let Some(config) = self
            .order
            .first()
            .and_then(|&i| self.lanes.get(i))
            .map(Soc::config)
        else {
            return Ok(());
        };
        let (substep, steps) = (config.substep, config.substeps_per_epoch());
        // xtask-hotpath: begin (lockstep idle kernel dispatch, no allocation)
        advance_idle_batch(&mut self.domains, substep, steps);
        for &i in &self.order {
            PARKED_EPOCHS.inc();
            let Some(meta) = self.meta.get_mut(i) else {
                continue;
            };
            meta.epochs_parked += 1;
            let range = meta.domain_start..meta.domain_start + meta.obs.len();
            if let (Some(soc), Some(doms), Some(report)) = (
                self.lanes.get_mut(i),
                self.domains.get_mut(range),
                reports.get_mut(i),
            ) {
                soc.parked_commit_epoch(doms, report);
            }
        }
        // xtask-hotpath: end
        Ok(())
    }
}

impl From<Soc> for DeviceBatch {
    /// A one-lane batch. A lone lane has no grid to disagree with, so
    /// this cannot fail; it never parks (see [`DeviceBatch`]).
    fn from(lane: Soc) -> Self {
        Self::on_shared_grid(vec![lane])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobClass, SocConfig};
    use simkit::SimDuration;

    fn lane(config: SocConfig) -> Soc {
        Soc::new(config).unwrap()
    }

    fn empty_report() -> EpochReport {
        EpochReport {
            started_at: SimTime::ZERO,
            ended_at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        }
    }

    /// A deterministic, seed-dependent level pattern over the clusters.
    fn request_for(soc: &Soc, seed: u64, epoch: u64) -> LevelRequest {
        LevelRequest::new(
            soc.clusters()
                .iter()
                .enumerate()
                .map(|(c, cluster)| {
                    let max = cluster.config().opps.max_level();
                    ((seed as usize + epoch as usize * 3 + c * 5) % 7) * max / 6
                })
                .collect(),
        )
    }

    /// Sparse arrivals: a burst every few epochs, quiet otherwise, so the
    /// run mixes busy, partially-idle and fully-parked epochs.
    fn epoch_job(now: SimTime, seed: u64, epoch: u64) -> Option<(SimTime, Job)> {
        if (epoch + seed).is_multiple_of(5) {
            let at = now + SimDuration::from_millis((seed % 7) * 2);
            Some((
                at,
                Job::new(
                    epoch * 100 + seed,
                    2_000_000 + seed * 500_000,
                    at + SimDuration::from_millis(30),
                    if seed.is_multiple_of(2) {
                        JobClass::Heavy
                    } else {
                        JobClass::Light
                    },
                ),
            ))
        } else {
            None
        }
    }

    /// Steps `soc` through `epochs` epochs with the same level pattern
    /// and job schedule the batched tests use.
    fn drive_looped(soc: &mut Soc, seed: u64, epochs: u64) {
        let mut report = empty_report();
        for e in 0..epochs {
            if let Some((at, job)) = epoch_job(soc.now(), seed, e) {
                soc.schedule_job(at, job);
            }
            let request = request_for(soc, seed, e);
            soc.run_epoch_into(&request, &mut report).unwrap();
        }
    }

    fn assert_lanes_identical(batched: &Soc, looped: &Soc) {
        assert_eq!(
            batched.total_energy_j().to_bits(),
            looped.total_energy_j().to_bits(),
            "energy diverged"
        );
        assert_eq!(batched.now(), looped.now());
        assert_eq!(batched.epochs_run(), looped.epochs_run());
        assert_eq!(
            batched.clusters(),
            looped.clusters(),
            "cluster state diverged"
        );
    }

    #[test]
    fn batched_epochs_are_bit_identical_to_looped() {
        for preset in [
            SocConfig::odroid_xu3_like().unwrap(),
            SocConfig::odroid_xu3_like_cstates().unwrap(),
            SocConfig::tiny_test().unwrap(),
        ] {
            let lanes: Vec<Soc> = (0..5).map(|_| lane(preset.clone())).collect();
            let mut batch = DeviceBatch::new(lanes).unwrap();
            let epochs = 40;
            let n = batch.len();
            let active = vec![true; n];
            let mut reports: Vec<EpochReport> = (0..n).map(|_| empty_report()).collect();
            for e in 0..epochs {
                let requests: Vec<LevelRequest> = (0..n)
                    .map(|i| {
                        if let Some((at, job)) = epoch_job(batch.lane(i).now(), i as u64, e) {
                            batch.schedule_job(i, at, job);
                        }
                        request_for(batch.lane(i), i as u64, e)
                    })
                    .collect();
                batch
                    .run_epoch_into(&active, &requests, &mut reports)
                    .unwrap();
                assert!(batch.lane_errors().iter().all(Option::is_none));
            }

            batch.unpark_all();
            for (i, batched) in batch.lanes().iter().enumerate() {
                let mut looped = lane(preset.clone());
                drive_looped(&mut looped, i as u64, epochs);
                assert_lanes_identical(batched, &looped);
            }
        }
    }

    #[test]
    fn pure_idle_lane_parks_and_matches() {
        // Two lanes: a lone lane never parks.
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(preset.clone()), lane(preset.clone())]).unwrap();
        let mut looped = lane(preset);
        let request = LevelRequest::min(looped.config());
        let mut report = looped.run_epoch(&request).unwrap();
        for _ in 0..99 {
            looped.run_epoch_into(&request, &mut report).unwrap();
        }
        let requests = vec![request.clone(), request];
        let mut reports = vec![empty_report(), empty_report()];
        for _ in 0..100 {
            batch
                .run_epoch_into(&[true, true], &requests, &mut reports)
                .unwrap();
            assert_eq!(batch.parked_lanes(), 2, "idle lanes take the kernel path");
        }
        // The per-epoch reports agree bit-for-bit even while parked.
        assert_eq!(reports[0], report);
        assert_eq!(reports[1], report);
        batch.unpark_all();
        assert_lanes_identical(batch.lane(0), &looped);
        assert_lanes_identical(batch.lane(1), &looped);
    }

    #[test]
    fn lone_lane_never_parks() {
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::from(lane(preset.clone()));
        let request = LevelRequest::min(&preset);
        let mut reports = vec![empty_report()];
        for _ in 0..10 {
            batch
                .run_epoch_into(&[true], std::slice::from_ref(&request), &mut reports)
                .unwrap();
            assert_eq!(batch.parked_lanes(), 0);
        }
        assert_eq!(batch.lane(0).epochs_run(), 10);
    }

    #[test]
    fn parked_observations_match_live_ones() {
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(preset.clone()), lane(preset.clone())]).unwrap();
        let mut looped = lane(preset);
        let request = LevelRequest::min(looped.config());
        let requests = vec![request.clone(), request.clone()];
        let mut looped_report = empty_report();
        let mut reports = vec![empty_report(), empty_report()];
        let mut batched_obs = EpochObservation {
            at: SimTime::ZERO,
            clusters: Vec::new(),
            energy_j: 0.0,
        };
        let mut looped_obs = batched_obs.clone();
        for _ in 0..25 {
            looped.run_epoch_into(&request, &mut looped_report).unwrap();
            looped.observe_into(&looped_report, &mut looped_obs);
            batch
                .run_epoch_into(&[true, true], &requests, &mut reports)
                .unwrap();
            assert!(
                batch.parked_lanes() > 0,
                "observation synthesised from domains"
            );
            for (i, report) in reports.iter().enumerate() {
                assert!(batch.lane_parked(i));
                batch.observe_lane_into(i, report, &mut batched_obs);
                assert_eq!(batched_obs, looped_obs);
            }
        }
    }

    #[test]
    fn unparking_mid_run_preserves_identity() {
        // Park for a while, then force an unpark via a level change, then
        // a job burst, then re-park — state must track looped throughout.
        // Lane 1 stays idle as the parked neighbour a lone lane would lack.
        let preset = SocConfig::odroid_xu3_like().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(preset.clone()), lane(preset.clone())]).unwrap();
        let mut looped = lane(preset);
        let mut looped_report = empty_report();
        let mut reports = vec![empty_report(), empty_report()];
        let mut parked_epochs = 0;
        for e in 0..60u64 {
            let level = if (20..24).contains(&e) { 3 } else { 0 };
            let request = LevelRequest::new(vec![level, level]);
            if e == 40 {
                let at = looped.now() + SimDuration::from_millis(3);
                let job = Job::new(
                    7,
                    5_000_000,
                    at + SimDuration::from_millis(30),
                    JobClass::Heavy,
                );
                looped.schedule_job(at, job);
                batch.schedule_job(0, at, job);
            }
            looped.run_epoch_into(&request, &mut looped_report).unwrap();
            let requests = vec![request, LevelRequest::new(vec![0, 0])];
            batch
                .run_epoch_into(&[true, true], &requests, &mut reports)
                .unwrap();
            assert!(
                batch.parked_lanes() > 0,
                "epoch {e}: the idle neighbour parks"
            );
            if batch.lane_parked(0) {
                parked_epochs += 1;
            }
            assert_eq!(reports[0], looped_report, "epoch {e} diverged");
        }
        assert!(
            parked_epochs > 0 && parked_epochs < 60,
            "lane 0 parked in {parked_epochs} of 60 epochs"
        );
        batch.unpark_all();
        assert_lanes_identical(batch.lane(0), &looped);
    }

    #[test]
    fn inactive_lanes_do_not_step() {
        let config = SocConfig::tiny_test().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(config.clone()), lane(config.clone())]).unwrap();
        let request = LevelRequest::min(&config);
        let requests = vec![request.clone(), request];
        let mut reports: Vec<EpochReport> = (0..2).map(|_| empty_report()).collect();
        batch
            .run_epoch_into(&[true, false], &requests, &mut reports)
            .unwrap();
        batch.unpark_all();
        assert_eq!(batch.lane(0).epochs_run(), 1);
        assert_eq!(batch.lane(1).epochs_run(), 0);
        assert_eq!(batch.lane(1).now(), SimTime::ZERO);
    }

    #[test]
    fn per_lane_errors_do_not_stop_the_batch() {
        let config = SocConfig::tiny_test().unwrap();
        let mut batch = DeviceBatch::new(vec![lane(config.clone()), lane(config.clone())]).unwrap();
        let bad = LevelRequest::new(vec![99]);
        let good = LevelRequest::min(&config);
        let requests = vec![bad, good];
        let mut reports: Vec<EpochReport> = (0..2).map(|_| empty_report()).collect();
        batch
            .run_epoch_into(&[true, true], &requests, &mut reports)
            .unwrap();
        assert!(matches!(
            batch.lane_errors()[0],
            Some(SocError::LevelOutOfRange { .. })
        ));
        assert!(batch.lane_errors()[1].is_none());
        batch.unpark_all();
        assert_eq!(batch.lane(1).epochs_run(), 1);
    }

    #[test]
    fn mismatched_grids_are_rejected() {
        let a = SocConfig::odroid_xu3_like().unwrap();
        let mut b = SocConfig::odroid_xu3_like().unwrap();
        b.substep = SimDuration::from_millis(2);
        let err = DeviceBatch::new(vec![lane(a), lane(b)]);
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
    }

    #[test]
    fn mismatched_slice_arity_is_rejected() {
        let mut batch = DeviceBatch::new(vec![lane(SocConfig::tiny_test().unwrap())]).unwrap();
        let err = batch.run_epoch_into(&[true, true], &[], &mut []);
        assert!(matches!(err, Err(SocError::InvalidSocConfig { .. })));
    }
}
