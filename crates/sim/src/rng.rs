//! Seeded, splittable randomness for the deterministic simulation.
//!
//! Every random draw in the simulation comes from a [`SimRng`] stream
//! derived from the run's root seed. Streams are **split** per component
//! (one per network link, one per node's failure clock, one per client),
//! so a draw consumed by one component never shifts another component's
//! sequence — the property that makes fault schedules stable under
//! shrinking: disabling message drops must not reshuffle crash times.
//!
//! The generator is splitmix64: 64 bits of state, full-period, and
//! implemented with integer arithmetic only, so identical across
//! platforms (no floating-point transcendentals anywhere in the
//! simulation's random paths).

/// A deterministic random stream.
///
/// Cloning copies the stream position; [`SimRng::split`] derives a new
/// statistically independent stream without consuming from this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

/// splitmix64 output mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the label hash for stream splitting, and
/// the rolling-hash primitive behind every replay fingerprint
/// (`Cluster::trace_hash`, and the partitioned service's digests in
/// `atomicity-dist`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.feed(bytes);
    h.0
}

/// FNV-1a fed piece by piece: text written into it with `write!` hashes
/// as [`fnv1a`] hashes the whole text, and is never built.
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

impl SimRng {
    /// Creates the root stream for a run.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so small consecutive seeds give unrelated streams.
        SimRng {
            state: mix(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derives an independent stream for component `label` / `index`
    /// without consuming from this stream.
    pub fn split(&self, label: &str, index: u64) -> SimRng {
        let tag = fnv1a(label.as_bytes());
        SimRng {
            state: mix(self.state ^ tag.rotate_left(17) ^ mix(index.wrapping_add(0xA5A5))),
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform draw from the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo + 1;
        if span == 0 {
            // [0, u64::MAX]: the raw draw is already uniform.
            return self.next_u64();
        }
        lo + self.next_u64() % span
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`), decided
    /// by integer comparison against a 53-bit draw so the outcome is
    /// bit-stable across platforms.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let threshold = (p * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// A crash-interval draw around `mean`: uniform in `[mean/2, 3·mean/2]`
    /// (a two-point-bounded stand-in for the exponential, kept to integer
    /// arithmetic for cross-platform determinism). Returns at least 1.
    pub fn around(&mut self, mean: u64) -> u64 {
        if mean <= 1 {
            return 1;
        }
        self.range(mean / 2, mean + mean / 2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent_of_consumption() {
        let root = SimRng::new(9);
        let mut before = root.split("net", 3);
        let mut consumed = root.clone();
        for _ in 0..10 {
            consumed.next_u64();
        }
        // Splitting does not consume: the same split is reproducible.
        let mut after = root.split("net", 3);
        for _ in 0..20 {
            assert_eq!(before.next_u64(), after.next_u64());
        }
    }

    #[test]
    fn splits_differ_by_label_and_index() {
        let root = SimRng::new(1);
        let mut a = root.split("net", 0);
        let mut b = root.split("net", 1);
        let mut c = root.split("mttf", 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.range(50, 500);
            assert!((50..=500).contains(&v));
        }
        assert_eq!(r.range(7, 7), 7);
    }

    #[test]
    fn chance_extremes_and_rate() {
        let mut r = SimRng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn around_brackets_the_mean() {
        let mut r = SimRng::new(5);
        for _ in 0..200 {
            let v = r.around(10_000);
            assert!((5_000..=15_000).contains(&v), "{v}");
        }
    }
}
