//! Shared by the golden tests: FNV-1a over 64-bit words, floats folded
//! by `to_bits()` so that one hash pins every number bit for bit.

pub struct Fold(pub u64);

impl Fold {
    /// The FNV-1a offset basis.
    pub fn fnv1a() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn opt(&mut self, x: Option<f64>) {
        self.word(u64::from(x.is_some()));
        self.f64(x.unwrap_or(0.0));
    }
}
