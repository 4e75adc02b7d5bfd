//! Host-speed calibration for the timings of the simulation workloads.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! with its other tenants' load: the same pass of the same seed takes
//! anywhere from 0.33 to 0.59 s, in spells that last longer than a run,
//! so the median of one run can sit 1.5x away from the next. Process CPU
//! time drifts with it, and the fastest pass of a run does not escape a
//! spell that covers the whole run.
//!
//! So a fixed kernel, owned by the benchmark and sharing no code with the
//! program, runs between every two passes, and a timing `t` taken while
//! the kernel read `k` is reported as `t * REFERENCE_SECS / k`: the time
//! the same work would take on a host where the kernel reads
//! [`REFERENCE_SECS`]. The kernel is cache-bound like the simulator: an
//! ordered map churned at a fixed size and a sort of a 128 KiB buffer.
//! Timed beside the `device-loop` passes in sixteen runs, its run medians
//! followed theirs with a correlation of 0.95, where a branchy integer
//! state machine reached 0.35. The program does not run the kernel, so a
//! change to the program moves a scaled timing by the same ratio as the
//! raw one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel took, in seconds, on the 2-core Xeon VM the benchmark
/// was tuned on; scaled timings are in seconds of a host where it still
/// takes this long.
pub const REFERENCE_SECS: f64 = 0.031;

/// Runs the kernel once and returns its wall seconds.
pub fn kernel_secs() -> f64 {
    let start = Instant::now();
    black_box(churn_map(black_box(60_000)));
    black_box(sort_rounds(black_box(40)));
    start.elapsed().as_secs_f64()
}

/// The factor that scales a timing taken between two kernel readings.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_SECS / ((before + after) / 2.0)
}

/// Inserts `n` pseudo-random keys into an ordered map kept at 4000
/// entries, with a range lookup per insert.
fn churn_map(n: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 5;
    let mut acc = 0u64;
    for i in 0..n {
        x = lcg(x);
        map.insert(x >> 40, i);
        if let Some((_, v)) = map.range((x >> 41)..).next() {
            acc = acc.wrapping_add(*v);
        }
        if map.len() > 4000 {
            map.pop_first();
        }
    }
    acc
}

/// Sorts `rounds` freshly filled buffers of 8000 `(f64, u32)` pairs.
fn sort_rounds(rounds: u32) -> f64 {
    let mut x: u64 = 9;
    let mut acc = 0.0;
    for _ in 0..rounds {
        let mut v: Vec<(f64, u32)> = (0..8000u32)
            .map(|i| {
                x = lcg(x);
                ((x >> 11) as f64 * 1e-9, i)
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        acc += v[17].0;
    }
    acc
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_timings_down() {
        assert_eq!(scale(REFERENCE_SECS, REFERENCE_SECS), 1.0);
        assert!((scale(2.0 * REFERENCE_SECS, 2.0 * REFERENCE_SECS) - 0.5).abs() < 1e-12);
        assert!(kernel_secs() > 0.0);
    }
}
