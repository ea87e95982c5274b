//! QR-code payload model.
//!
//! The production portal renders the provisioning URI as a QR image; the
//! smartphone app reads it with the camera (§3.3: the apps were "outfitted
//! with the ability to read a quick response (QR) code"). Reproducing an
//! image pipeline adds nothing to the authentication semantics, so this
//! module models a QR code as its payload plus a deterministic module matrix:
//! rendering is injective in the payload (two different URIs never produce
//! the same matrix), and scanning is reading the payload back.

use hpcmfa_crypto::sha256::sha256;

/// A displayed QR code: payload plus a synthetic module matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrCode {
    payload: String,
    /// Side length of the square module matrix.
    size: usize,
    /// Row-major module bits.
    modules: Vec<bool>,
}

impl QrCode {
    /// Encode `payload` into a synthetic QR code.
    ///
    /// The matrix is derived from a SHA-256 sponge over the payload so that
    /// visual output is deterministic and collision-resistant, with finder-
    /// pattern-like corner blocks for plausibility in terminal rendering.
    pub fn encode(payload: &str) -> Self {
        // Matrix grows with payload, like real QR versions do.
        let size = 21 + 2 * (payload.len() / 32).min(10);
        let mut modules = vec![false; size * size];
        let mut block = [0u8; 36];
        block[..32].copy_from_slice(&sha256(payload.as_bytes()));
        let mut counter: u32 = 0;
        let mut bit_idx = 0usize;
        let mut bits = sha256(&block);
        for m in modules.iter_mut() {
            if bit_idx == 256 {
                counter += 1;
                block[32..36].copy_from_slice(&counter.to_be_bytes());
                bits = sha256(&block);
                bit_idx = 0;
            }
            *m = (bits[bit_idx / 8] >> (bit_idx % 8)) & 1 == 1;
            bit_idx += 1;
        }
        // Finder patterns: solid 5x5 blocks in three corners.
        let mut qr = QrCode {
            payload: payload.to_string(),
            size,
            modules,
        };
        for (cy, cx) in [(0, 0), (0, size - 5), (size - 5, 0)] {
            for dy in 0..5 {
                for dx in 0..5 {
                    qr.set(cy + dy, cx + dx, true);
                }
            }
        }
        qr
    }

    fn set(&mut self, y: usize, x: usize, v: bool) {
        self.modules[y * self.size + x] = v;
    }

    /// Matrix side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The encoded payload (what a perfect scan recovers).
    pub fn payload(&self) -> &str {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = QrCode::encode("otpauth://totp/x?secret=MZXW6YTB");
        let b = QrCode::encode("otpauth://totp/x?secret=MZXW6YTB");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_payloads_distinct_matrices() {
        let a = QrCode::encode("payload-a");
        let b = QrCode::encode("payload-b");
        assert_ne!(a.modules, b.modules);
    }

    #[test]
    fn size_grows_with_payload() {
        let small = QrCode::encode("x");
        let large = QrCode::encode(&"x".repeat(200));
        assert!(large.size() > small.size());
        assert_eq!(small.size(), 21);
    }

    #[test]
    fn finder_patterns_present() {
        let qr = QrCode::encode("anything");
        let n = qr.size();
        let module = |y: usize, x: usize| qr.modules[y * n + x];
        assert!(module(0, 0) && module(4, 4));
        assert!(module(0, n - 1) && module(4, n - 5));
        assert!(module(n - 1, 0) && module(n - 5, 4));
    }
}
