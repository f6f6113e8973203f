//! Zero-dependency deterministic PRNGs.
//!
//! All randomness in the workspace flows from a single experiment seed:
//! [`SplitMix64::derive`] turns `(root seed, stream index)` into
//! independent child seeds (run fan-out, per-class generators), and
//! each consumer owns a [`Xoshiro256pp`] seeded from its child seed.
//! Both generators are tiny, portable and bit-reproducible across
//! platforms and thread schedules, which is what makes multi-threaded
//! [`Experiment`](https://docs.rs/psd) replications bit-identical to
//! sequential ones.

/// SplitMix64 (Steele, Lea & Flood): a 64-bit generator whose single
/// strength here is *seed derivation* — the finalizer has full
/// avalanche, so nearby `(seed, stream)` pairs yield unrelated outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derive the seed of child stream `stream` from a root seed.
    ///
    /// Deterministic, order-free and collision-resistant in practice:
    /// `derive(s, a) == derive(s, b)` only if `a == b` (up to the usual
    /// 64-bit birthday bound), so parallel workers can seed themselves
    /// by index with no shared state.
    pub fn derive(root: u64, stream: u64) -> u64 {
        let mut sm = Self::new(root.wrapping_add(stream.wrapping_mul(GOLDEN_GAMMA)) ^ stream);
        sm.next_u64()
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna): the workspace's workhorse
/// generator — 256-bit state, period `2^256 − 1`, excellent statistical
/// quality, and four shifts/rotates per output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed the full 256-bit state from one 64-bit seed by pumping a
    /// SplitMix64 stream (the initialization the xoshiro authors
    /// recommend; it also guarantees a non-zero state).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in the half-open interval `[0, 1)` (53 random bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the *open* interval `(0, 1)` — safe under `ln` and
    /// division; used for exponential and Pareto inversion sampling.
    #[inline]
    pub fn next_open_f64(&mut self) -> f64 {
        ((self.next_u64() >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
    }
}

/// Uniform in the open interval `(0, 1)` from any [`Xoshiro256pp`] —
/// the free-function form used throughout the simulators.
pub fn open01(rng: &mut Xoshiro256pp) -> f64 {
    rng.next_open_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vector: SplitMix64(0) seeds (published test values)
    /// and the first five xoshiro256++ outputs from that state, computed
    /// with an independent transcription of the Blackman–Vigna reference
    /// algorithm. This pins the *state-transition* scramble, not just
    /// the first output (which depends only on the initial state).
    #[test]
    fn known_answer_first_outputs() {
        let mut sm = SplitMix64::new(0);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        assert_eq!(s[0], 0xE220_A839_7B1D_CDAF);
        assert_eq!(s[1], 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s[2], 0x06C4_5D18_8009_454F);
        assert_eq!(s[3], 0xF88B_B8A8_724C_81EC);
        let mut rng = Xoshiro256pp::seed_from(0);
        for want in [
            0x5317_5D61_490B_23DF_u64,
            0x61DA_6F3D_C380_D507,
            0x5C0F_DF91_EC9A_7BFC,
            0x02EE_BF8C_3BBE_5E1A,
            0x7ECA_04EB_AF4A_5EEA,
        ] {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from(7);
        let mut b = Xoshiro256pp::seed_from(7);
        let mut c = Xoshiro256pp::seed_from(8);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Xoshiro256pp::seed_from(7).next_u64(), c.next_u64());
    }

    #[test]
    fn derive_separates_streams() {
        let a = SplitMix64::derive(42, 0);
        let b = SplitMix64::derive(42, 1);
        let c = SplitMix64::derive(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, SplitMix64::derive(42, 0));
        // High bits must differ too (avalanche).
        assert_ne!(a >> 32, b >> 32);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut rng = Xoshiro256pp::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_open_f64();
            assert!(y > 0.0 && y < 1.0);
            assert!(open01(&mut rng) > 0.0);
        }
    }

    #[test]
    fn uniform_mean_sane() {
        let mut rng = Xoshiro256pp::seed_from(11);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }
}
