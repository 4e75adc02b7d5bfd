//! Content-addressed cache for trained policies and evaluated cell
//! metrics.
//!
//! Every cacheable unit of work (a trained Q-table, an evaluated
//! `(scenario, policy, seed)` cell, a learning-curve seed, an ablation
//! row) is addressed by an FNV-1a-64 hash — the same primitive
//! [`rlpm::persist`] uses for its container checksum — over a canonical
//! encoding of everything that determines the result: scenario id,
//! policy id, seed, `RunConfig`, SoC config and a format-version salt
//! ([`CACHE_FORMAT_VERSION`]). The simulator is deterministic, so equal
//! keys imply bit-identical results; cache hits are therefore
//! byte-identical to cold computes (pinned by the `cache_identity`
//! integration test, the same discipline as `golden_bits`).
//!
//! Two layers sit behind [`get_or_compute`]:
//!
//! 1. an **in-memory memo** shared by every experiment in the process.
//!    Identical cells requested concurrently (E1 and E9 retraining the
//!    same policy, the five fault multipliers of one E9 arm) are
//!    *coalesced*: the first requester computes, later ones block until
//!    the bytes are ready. This is what deduplicates the flattened job
//!    graph the global scheduler executes.
//! 2. an **on-disk store** (one file per entry, `<kind>-<key>.bin`)
//!    inside a small checksummed envelope. A warm `regen-tables` run
//!    skips straight to CSV emission. Entries that are truncated,
//!    bit-flipped or carry an unknown envelope version are silently
//!    *evicted* and recomputed — corruption is a miss, never an error.
//!
//! The cache is **disabled by default** ([`configure`] turns it on);
//! with it off every call site takes the exact pre-cache code path, so
//! `--no-cache` behavior is bit-identical to a build without this
//! module. Invalidation is purely key-based: any change to a config
//! struct's `Debug` representation, to a seed derivation or to
//! [`CACHE_FORMAT_VERSION`] changes the key, and the stale entry is
//! simply never addressed again.
//!
//! **Degradation.** A directory that stops cooperating — disk full,
//! read-only, permissions ripped out from under us, or an injected
//! `cache/store` / `cache/load` failpoint — downgrades the disk layer
//! to memo-only *exactly once per configured directory*: a typed
//! [`CacheDegraded`] warning naming the failing path goes to stderr,
//! the `cache.degraded` obs counter ticks, and every later store/load
//! skips the disk. Results stay correct (the memo and recomputation
//! carry the run); nothing panics and nothing is silently lost.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rlpm::persist::fnv1a64;
use simkit::obs::Counter;

use crate::sched::lock;
use crate::RunMetrics;

/// Version salt folded into every cache key. Bump when the canonical
/// key encoding, a payload encoding, or anything else that silently
/// shifts cached semantics changes: old entries then become
/// unaddressable (and eventually unreferenced files), not wrong answers.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// On-disk entry envelope magic.
const ENVELOPE_MAGIC: &[u8; 8] = b"RLPMCACH";
/// On-disk envelope version (independent of the key salt: a mismatch
/// here means the *file layout* changed and the entry must be evicted).
const ENVELOPE_VERSION: u16 = 1;
const ENVELOPE_HEADER_LEN: usize = 8 + 2 + 8;

/// The active cache directory; `None` disables the cache entirely.
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static STORE_FAILURES: AtomicU64 = AtomicU64::new(0);
/// One-shot degradation latch: set on the first hard disk failure,
/// cleared by [`configure`] (a fresh directory gets a fresh chance).
static DEGRADED: AtomicBool = AtomicBool::new(false);

static OBS_HITS: Counter = Counter::new("cache.hits");
static OBS_MISSES: Counter = Counter::new("cache.misses");
static OBS_EVICTIONS: Counter = Counter::new("cache.evictions");
static OBS_DEGRADED: Counter = Counter::new("cache.degraded");

/// Typed warning emitted (once, to stderr) when the on-disk cache layer
/// downgrades to the in-memory memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDegraded {
    /// The entry path whose store or load failed.
    pub path: PathBuf,
    /// The underlying failure, rendered.
    pub cause: String,
}

impl std::fmt::Display for CacheDegraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "on-disk cache degraded to in-memory memo ({} at {}); \
             results stay correct, later runs will recompute",
            self.cause,
            self.path.display()
        )
    }
}

impl std::error::Error for CacheDegraded {}

/// Latches degradation, emitting the typed warning exactly once.
fn degrade(path: &Path, cause: &str) {
    // xtask-atomics: one-shot latch; swap makes exactly one caller the announcer, ordering of the warning text is not data-bearing
    if !DEGRADED.swap(true, Ordering::Relaxed) {
        let warning = CacheDegraded {
            path: path.to_owned(),
            cause: cause.to_owned(),
        };
        eprintln!("warning: {warning}");
        OBS_DEGRADED.inc();
    }
}

/// Whether the disk layer has been downgraded to memo-only.
pub fn is_degraded() -> bool {
    DEGRADED.load(Ordering::Relaxed) // xtask-atomics: advisory latch read; a racing store/load at the flip only costs one extra disk attempt
}

/// Registers the degradation obs counter (zero-valued) so it appears in
/// a [`simkit::obs::MetricsSnapshot`] even on healthy runs.
pub(crate) fn register_obs() {
    OBS_DEGRADED.add(0);
}

/// Sets the cache directory (`Some` enables, `None` disables). The
/// directory is created lazily on first store. Clears the degradation
/// latch: a newly configured directory is trusted until it fails.
pub fn configure(dir: Option<PathBuf>) {
    *lock(&DIR) = dir;
    DEGRADED.store(false, Ordering::Relaxed); // xtask-atomics: latch reset under reconfiguration; callers serialise configuration
}

/// The conventional default cache location, `target/rlpm-cache/`
/// (relative to the working directory, next to the build artifacts it
/// accelerates).
pub fn default_dir() -> PathBuf {
    PathBuf::from("target").join("rlpm-cache")
}

/// The currently configured cache directory, if the cache is enabled.
pub fn active_dir() -> Option<PathBuf> {
    lock(&DIR).clone()
}

/// Whether the cache is currently enabled.
pub fn is_enabled() -> bool {
    lock(&DIR).is_some()
}

/// Point-in-time counters of cache activity since the last
/// [`reset_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo or the disk store.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Corrupt or version-mismatched disk entries removed.
    pub evictions: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Disk writes that failed (the result is still returned; the cache
    /// never turns an I/O problem into an experiment error).
    pub store_failures: u64,
}

/// Reads the current cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed), // xtask-atomics: independent stat counter; snapshot tolerates tearing across fields
        misses: MISSES.load(Ordering::Relaxed), // xtask-atomics: independent stat counter; snapshot tolerates tearing across fields
        evictions: EVICTIONS.load(Ordering::Relaxed), // xtask-atomics: independent stat counter; snapshot tolerates tearing across fields
        stores: STORES.load(Ordering::Relaxed), // xtask-atomics: independent stat counter; snapshot tolerates tearing across fields
        store_failures: STORE_FAILURES.load(Ordering::Relaxed), // xtask-atomics: independent stat counter; snapshot tolerates tearing across fields
    }
}

/// Zeroes the cache counters (benches measure passes independently).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed); // xtask-atomics: test-support reset; callers serialise via the env-lock
    MISSES.store(0, Ordering::Relaxed); // xtask-atomics: test-support reset; callers serialise via the env-lock
    EVICTIONS.store(0, Ordering::Relaxed); // xtask-atomics: test-support reset; callers serialise via the env-lock
    STORES.store(0, Ordering::Relaxed); // xtask-atomics: test-support reset; callers serialise via the env-lock
    STORE_FAILURES.store(0, Ordering::Relaxed); // xtask-atomics: test-support reset; callers serialise via the env-lock
}

/// Drops every in-memory memo entry, forcing the next lookups back to
/// the disk store. For benches and tests that measure cold-vs-warm
/// behavior; call only between passes (a concurrent in-flight compute
/// is re-run by its waiters, which is correct but does duplicate work).
pub fn clear_memo() {
    lock(&MEMO).clear();
    MEMO_CV.notify_all();
}

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

/// Builds a cache key from a canonical encoding of the inputs.
///
/// Every component is appended length-prefixed (so `("ab", "c")` and
/// `("a", "bc")` hash differently), starting with the format-version
/// salt and the entry kind. Config structs contribute their `Debug`
/// representation: Rust's float `Debug` is exact (round-trips every
/// bit), and any newly added field changes the representation — the
/// self-invalidation property the cache relies on.
pub(crate) struct Key {
    bytes: Vec<u8>,
}

impl Key {
    /// Starts a key for one entry `kind` (a short tag like `"qtbl"`).
    pub(crate) fn new(kind: &str) -> Key {
        let mut key = Key {
            bytes: Vec::with_capacity(256),
        };
        key.push(&CACHE_FORMAT_VERSION.to_le_bytes());
        key.push(kind.as_bytes());
        key
    }

    fn push(&mut self, part: &[u8]) {
        self.bytes
            .extend_from_slice(&(part.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(part);
    }

    /// Appends an integer component (seeds, durations in nanos).
    pub(crate) fn u64(mut self, v: u64) -> Key {
        self.push(&v.to_le_bytes());
        self
    }

    /// Appends a string component (scenario and policy names).
    pub(crate) fn str(mut self, s: &str) -> Key {
        self.push(s.as_bytes());
        self
    }

    /// Appends a config struct via its `Debug` representation.
    pub(crate) fn debug<T: std::fmt::Debug>(mut self, v: &T) -> Key {
        self.push(format!("{v:?}").as_bytes());
        self
    }

    /// The FNV-1a-64 of the canonical encoding.
    pub(crate) fn finish(&self) -> u64 {
        fnv1a64(&self.bytes)
    }
}

// ---------------------------------------------------------------------
// Memoisation and in-flight coalescing
// ---------------------------------------------------------------------

enum MemoSlot {
    /// Another thread is computing this entry right now.
    InFlight,
    /// The finished bytes.
    Ready(Arc<Vec<u8>>),
}

static MEMO: Mutex<BTreeMap<(&'static str, u64), MemoSlot>> = Mutex::new(BTreeMap::new());
static MEMO_CV: Condvar = Condvar::new();

/// Removes a dangling `InFlight` marker if the computing closure
/// panicked, so waiters wake up and recompute instead of hanging.
struct InFlightGuard {
    kind: &'static str,
    key: u64,
    armed: bool,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        if self.armed {
            lock(&MEMO).remove(&(self.kind, self.key));
            MEMO_CV.notify_all();
        }
    }
}

fn record_hit() {
    HITS.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
    OBS_HITS.inc();
}

fn record_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
    OBS_MISSES.inc();
}

/// Returns the cached bytes for `(kind, key)`, computing and caching
/// them on a miss.
///
/// Lookup order: in-memory memo (coalescing concurrent requests for the
/// same entry), then the disk store, then `compute`. A `None` from
/// `compute` (a cell that cannot run, e.g. an invalid SoC config) is
/// not cached and is returned as `None` — exactly the uncached
/// behavior.
///
/// Callers gate on [`is_enabled`] and take their original code path
/// when the cache is off; if the cache is disabled concurrently, this
/// degrades to a plain pass-through `compute` call.
pub fn get_or_compute<F>(kind: &'static str, key: u64, compute: F) -> Option<Arc<Vec<u8>>>
where
    F: FnOnce() -> Option<Vec<u8>>,
{
    let Some(dir) = active_dir() else {
        return compute().map(Arc::new);
    };

    {
        let mut memo = lock(&MEMO);
        loop {
            match memo.get(&(kind, key)) {
                Some(MemoSlot::Ready(bytes)) => {
                    record_hit();
                    return Some(Arc::clone(bytes));
                }
                Some(MemoSlot::InFlight) => {
                    memo = match MEMO_CV.wait(memo) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => {
                    memo.insert((kind, key), MemoSlot::InFlight);
                    break;
                }
            }
        }
    }

    let mut guard = InFlightGuard {
        kind,
        key,
        armed: true,
    };
    let payload = match load_from_disk(&dir, kind, key) {
        Some(payload) => {
            record_hit();
            Some(payload)
        }
        None => {
            record_miss();
            let computed = compute();
            if let Some(payload) = &computed {
                store_to_disk(&dir, kind, key, payload);
            }
            computed
        }
    };

    let result = payload.map(Arc::new);
    {
        let mut memo = lock(&MEMO);
        match &result {
            Some(bytes) => {
                memo.insert((kind, key), MemoSlot::Ready(Arc::clone(bytes)));
            }
            None => {
                memo.remove(&(kind, key));
            }
        }
    }
    guard.armed = false;
    MEMO_CV.notify_all();
    if result.is_some() {
        crate::journal::record(kind, key);
    }
    result
}

// ---------------------------------------------------------------------
// Disk store
// ---------------------------------------------------------------------

fn entry_path(dir: &Path, kind: &str, key: u64) -> PathBuf {
    dir.join(format!("{kind}-{key:016x}.bin"))
}

/// Reads a fixed-size little-endian field at `offset`, or `None` if the
/// buffer ends first (keeps envelope parsing free of panicking slices).
fn read_array<const N: usize>(bytes: &[u8], offset: usize) -> Option<[u8; N]> {
    bytes
        .get(offset..offset.checked_add(N)?)
        .and_then(|s| s.try_into().ok())
}

/// Validates the envelope and returns the payload, or `None` for any
/// defect: bad magic, unknown version, truncation, checksum mismatch.
fn parse_envelope(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.get(..ENVELOPE_MAGIC.len()) != Some(ENVELOPE_MAGIC.as_slice()) {
        return None;
    }
    let version = u16::from_le_bytes(read_array(bytes, 8)?);
    if version != ENVELOPE_VERSION {
        return None;
    }
    let checksum = u64::from_le_bytes(read_array(bytes, 10)?);
    let payload = bytes.get(ENVELOPE_HEADER_LEN..)?;
    if fnv1a64(payload) != checksum {
        return None;
    }
    Some(payload.to_vec())
}

/// Maps a fired `cache/*` failpoint onto the cache's typed failure
/// path: `Delay` sleeps, `Abort` kills the process (crash-safety
/// tests), and `Error`/`Panic` report an injected I/O failure — the
/// cache never panics, so both collapse onto the error path.
fn injected_io_failure(site: &str, key: u64) -> bool {
    use simkit::failpoint::{check, FailpointAction, ABORT_EXIT_CODE};
    match check(site, key) {
        None => false,
        Some(FailpointAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some(FailpointAction::Abort) => std::process::exit(ABORT_EXIT_CODE),
        Some(FailpointAction::Error) | Some(FailpointAction::Panic) => true,
    }
}

/// Loads an entry's payload, evicting (deleting) defective files. An
/// absent file is an ordinary miss; a defective one counts an eviction.
/// Either way the answer is `None` and the caller recomputes. A *hard*
/// read error (permissions, unreadable directory — anything but
/// not-found) degrades the disk layer, as does an injected `cache/load`
/// failpoint.
fn load_from_disk(dir: &Path, kind: &str, key: u64) -> Option<Vec<u8>> {
    if is_degraded() {
        return None;
    }
    let path = entry_path(dir, kind, key);
    if injected_io_failure(simkit::failpoint::SITE_CACHE_LOAD, key) {
        degrade(&path, "injected cache/load failpoint");
        return None;
    }
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            degrade(&path, &e.to_string());
            return None;
        }
    };
    match parse_envelope(&bytes) {
        Some(payload) => Some(payload),
        None => {
            let _ = std::fs::remove_file(&path);
            EVICTIONS.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
            OBS_EVICTIONS.inc();
            None
        }
    }
}

/// Writes an entry via a temp file + rename so readers never observe a
/// half-written entry. Failures are counted and degrade the disk layer
/// (with a one-shot typed warning), never raised.
fn store_to_disk(dir: &Path, kind: &str, key: u64, payload: &[u8]) {
    if is_degraded() {
        STORE_FAILURES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
        return;
    }
    let path = entry_path(dir, kind, key);
    if injected_io_failure(simkit::failpoint::SITE_CACHE_STORE, key) {
        STORE_FAILURES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
        degrade(&path, "injected cache/store failpoint");
        return;
    }
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + payload.len());
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);

    let tmp = dir.join(format!("{kind}-{key:016x}.tmp{}", std::process::id()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, &out))
        .and_then(|()| std::fs::rename(&tmp, &path));
    match written {
        Ok(()) => {
            STORES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            STORE_FAILURES.fetch_add(1, Ordering::Relaxed); // xtask-atomics: monotone event count; no other memory depends on it
            degrade(&path, &e.to_string());
        }
    }
}

// ---------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------

/// Little-endian byte encoder for cache payloads (the workspace builds
/// offline, without serde; fields are written in struct order and bits
/// are preserved exactly, floats via `to_bits`).
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed float slice.
    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// A length-prefixed string.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder matching [`Enc`]; every read is checked so a short or
/// oversized payload decodes to `None` (and the caller recomputes).
pub(crate) struct Dec<'a> {
    // xtask-allow: no-panic-lib -- `'a [u8]` is a slice type, not an index expression
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    // xtask-allow: no-panic-lib -- `'a [u8]` is a slice type, not an index expression
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let word = read_array::<8>(self.buf, self.pos)?;
        self.pos += 8;
        Some(u64::from_le_bytes(word))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn f64s(&mut self) -> Option<Vec<f64>> {
        let len = self.u64()?;
        // Reject absurd lengths before allocating (a corrupt length
        // must not become an allocation failure).
        if len > (self.buf.len() as u64) / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Some(out)
    }

    /// A length-prefixed string (must be valid UTF-8).
    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u64()?;
        if len > self.buf.len() as u64 {
            return None;
        }
        let end = self.pos.checked_add(len as usize)?;
        let raw = self.buf.get(self.pos..end)?;
        self.pos = end;
        String::from_utf8(raw.to_vec()).ok()
    }

    /// Whether the payload was consumed exactly.
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serialises evaluated cell metrics. Traced runs are not cacheable
/// (`None`): a trace is bulky and only requested for figure generation.
pub(crate) fn encode_metrics(m: &RunMetrics) -> Option<Vec<u8>> {
    if m.trace.is_some() {
        return None;
    }
    let mut e = Enc::new();
    e.f64(m.energy_j);
    e.f64(m.qos.units);
    e.f64(m.qos.strict_units);
    e.f64(m.qos.max_units);
    e.u64(m.qos.completed);
    e.u64(m.qos.on_time);
    e.u64(m.qos.late);
    e.u64(m.qos.violations);
    e.f64(m.energy_per_qos);
    e.f64(m.avg_power_w);
    e.u64(m.transitions);
    e.u64(m.epochs);
    e.u64(m.jobs_submitted);
    e.f64s(&m.mean_level_frac);
    e.f64(m.idle_gated_core_s);
    e.f64(m.idle_collapsed_core_s);
    e.u64(m.watchdog_engagements);
    e.u64(m.fault_counts.telemetry_noise);
    e.u64(m.fault_counts.telemetry_dropout);
    e.u64(m.fault_counts.telemetry_stale);
    e.u64(m.fault_counts.thermal_throttle);
    e.u64(m.fault_counts.core_offline);
    e.u64(m.fault_counts.decision_overrun);
    e.u64(m.fault_counts.table_seu);
    e.u64(m.seus_detected);
    e.u64(m.table_reloads);
    Some(e.finish())
}

/// Deserialises [`encode_metrics`] output (trace-free by construction).
pub(crate) fn decode_metrics(bytes: &[u8]) -> Option<RunMetrics> {
    let mut d = Dec::new(bytes);
    let energy_j = d.f64()?;
    let qos = workload::QosReport {
        units: d.f64()?,
        strict_units: d.f64()?,
        max_units: d.f64()?,
        completed: d.u64()?,
        on_time: d.u64()?,
        late: d.u64()?,
        violations: d.u64()?,
    };
    let energy_per_qos = d.f64()?;
    let avg_power_w = d.f64()?;
    let transitions = d.u64()?;
    let epochs = d.u64()?;
    let jobs_submitted = d.u64()?;
    let mean_level_frac = d.f64s()?;
    let idle_gated_core_s = d.f64()?;
    let idle_collapsed_core_s = d.f64()?;
    let watchdog_engagements = d.u64()?;
    let fault_counts = simkit::FaultCounts {
        telemetry_noise: d.u64()?,
        telemetry_dropout: d.u64()?,
        telemetry_stale: d.u64()?,
        thermal_throttle: d.u64()?,
        core_offline: d.u64()?,
        decision_overrun: d.u64()?,
        table_seu: d.u64()?,
    };
    let seus_detected = d.u64()?;
    let table_reloads = d.u64()?;
    if !d.finished() {
        return None;
    }
    Some(RunMetrics {
        energy_j,
        qos,
        energy_per_qos,
        avg_power_w,
        transitions,
        epochs,
        jobs_submitted,
        mean_level_frac,
        idle_gated_core_s,
        idle_collapsed_core_s,
        watchdog_engagements,
        fault_counts,
        seus_detected,
        table_reloads,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-global cache directory.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rlpm-cache-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_metrics() -> RunMetrics {
        RunMetrics {
            energy_j: 12.5,
            qos: workload::QosReport {
                units: 100.25,
                strict_units: 90.5,
                max_units: 110.0,
                completed: 42,
                on_time: 40,
                late: 2,
                violations: 1,
            },
            energy_per_qos: 0.125,
            avg_power_w: 1.75,
            transitions: 321,
            epochs: 1200,
            jobs_submitted: 44,
            mean_level_frac: vec![0.25, 0.75],
            idle_gated_core_s: 1.5,
            idle_collapsed_core_s: 0.5,
            watchdog_engagements: 3,
            fault_counts: simkit::FaultCounts {
                telemetry_noise: 1,
                telemetry_dropout: 2,
                telemetry_stale: 3,
                thermal_throttle: 4,
                core_offline: 5,
                decision_overrun: 6,
                table_seu: 7,
            },
            seus_detected: 7,
            table_reloads: 2,
            trace: None,
        }
    }

    #[test]
    fn key_components_are_order_and_boundary_sensitive() {
        let a = Key::new("k").str("ab").str("c").finish();
        let b = Key::new("k").str("a").str("bc").finish();
        let c = Key::new("k").str("c").str("ab").finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Key::new("k").str("ab").str("c").finish());
        assert_ne!(Key::new("x").u64(1).finish(), Key::new("y").u64(1).finish());
    }

    #[test]
    fn envelope_round_trips_and_rejects_defects() {
        let lock = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = temp_dir("envelope");
        store_to_disk(&dir, "t", 7, b"payload");
        assert_eq!(
            load_from_disk(&dir, "t", 7).as_deref(),
            Some(&b"payload"[..])
        );

        let path = entry_path(&dir, "t", 7);
        let good = std::fs::read(&path).unwrap();

        // Truncated.
        std::fs::write(&path, &good[..good.len() - 2]).unwrap();
        assert!(load_from_disk(&dir, "t", 7).is_none());
        assert!(!path.exists(), "defective entry is evicted");

        // Bit-flipped payload.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load_from_disk(&dir, "t", 7).is_none());

        // Wrong envelope version.
        let mut wrong = good.clone();
        wrong[8] = 0xEE;
        std::fs::write(&path, &wrong).unwrap();
        assert!(load_from_disk(&dir, "t", 7).is_none());

        // Absent file: a miss, not an eviction-triggering defect.
        assert!(load_from_disk(&dir, "t", 8).is_none());

        let _ = std::fs::remove_dir_all(&dir);
        drop(lock);
    }

    #[test]
    fn get_or_compute_memoises_and_persists() {
        let lock = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = temp_dir("memo");
        configure(Some(dir.clone()));
        clear_memo();
        reset_stats();

        let mut calls = 0;
        let first = get_or_compute("unit", 1, || {
            calls += 1;
            Some(vec![1, 2, 3])
        })
        .unwrap();
        assert_eq!(first.as_slice(), &[1, 2, 3]);
        assert_eq!(calls, 1);

        // Memo hit: the closure must not run again.
        let second = get_or_compute("unit", 1, || {
            calls += 1;
            None
        })
        .unwrap();
        assert_eq!(second.as_slice(), &[1, 2, 3]);
        assert_eq!(calls, 1);

        // Disk hit after the memo is dropped.
        clear_memo();
        let third = get_or_compute("unit", 1, || {
            calls += 1;
            None
        })
        .unwrap();
        assert_eq!(third.as_slice(), &[1, 2, 3]);
        assert_eq!(calls, 1);

        let s = stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.stores, 1);

        // A `None` compute is passed through and not cached.
        assert!(get_or_compute("unit", 2, || None).is_none());
        assert!(get_or_compute("unit", 2, || Some(vec![9])).is_some());

        configure(None);
        let _ = std::fs::remove_dir_all(&dir);
        drop(lock);
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let lock = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        configure(None);
        let mut calls = 0;
        for _ in 0..2 {
            let out = get_or_compute("off", 1, || {
                calls += 1;
                Some(vec![5])
            });
            assert_eq!(out.unwrap().as_slice(), &[5]);
        }
        assert_eq!(calls, 2, "no memoisation while disabled");
        drop(lock);
    }

    #[test]
    fn metrics_encoding_round_trips_exactly() {
        let m = sample_metrics();
        let bytes = encode_metrics(&m).unwrap();
        let back = decode_metrics(&bytes).unwrap();
        assert_eq!(back.energy_j.to_bits(), m.energy_j.to_bits());
        assert_eq!(back.qos, m.qos);
        assert_eq!(back.mean_level_frac, m.mean_level_frac);
        assert_eq!(back.fault_counts, m.fault_counts);
        assert_eq!(back.epochs, m.epochs);
        assert!(back.trace.is_none());

        // Truncated or padded payloads decode to `None`.
        assert!(decode_metrics(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_metrics(&padded).is_none());
    }

    #[test]
    fn traced_metrics_are_not_cacheable() {
        let mut m = sample_metrics();
        m.trace = Some(simkit::trace::Trace::new("t", ["c"]));
        assert!(encode_metrics(&m).is_none());
    }
}
