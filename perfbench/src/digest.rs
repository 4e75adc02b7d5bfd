//! A digest of every simulated statistic a run reports, so that two
//! runs of the same inputs can be compared bit for bit.

use experiments::RunMetrics;

/// FNV-1a-64 over the exact bits of the fed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds every simulated statistic of one run: energy, QoS
    /// accounting, epochs, jobs, transitions, level residency, idle
    /// residency and the fault and recovery tallies.
    pub fn metrics(&mut self, m: &RunMetrics) {
        self.f64(m.energy_j);
        self.f64(m.energy_per_qos);
        self.f64(m.avg_power_w);
        let q = &m.qos;
        self.f64(q.units);
        self.f64(q.strict_units);
        self.f64(q.max_units);
        for count in [q.completed, q.on_time, q.late, q.violations] {
            self.u64(count);
        }
        for count in [m.transitions, m.epochs, m.jobs_submitted] {
            self.u64(count);
        }
        self.u64(m.mean_level_frac.len() as u64);
        for &frac in &m.mean_level_frac {
            self.f64(frac);
        }
        self.f64(m.idle_gated_core_s);
        self.f64(m.idle_collapsed_core_s);
        for count in [m.watchdog_engagements, m.seus_detected, m.table_reloads] {
            self.u64(count);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_bits_matter() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let (mut z, mut nz) = (Digest::default(), Digest::default());
        z.f64(0.0);
        nz.f64(-0.0);
        assert_ne!(z, nz, "the digest compares bits, not values");
        assert_eq!(Digest::default().hex().len(), 16);
    }
}
