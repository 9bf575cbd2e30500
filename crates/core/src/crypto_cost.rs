//! Virtual CPU cost of cryptographic operations.
//!
//! The paper's Section V-D latency numbers (0.45 s join, 0.4 s rejoin,
//! 0.28 s rejoin without steps 4–5) were measured on Pentium III 1 GHz
//! machines where 2048-bit RSA dominates. The simulator reproduces that
//! by charging each protocol step virtual compute time via
//! [`mykil_net::Context::charge_compute`], using the constants here.
//!
//! Constants are calibrated to OpenSSL 0.9.x-era throughput on a
//! Pentium III 1 GHz (the paper's testbed): a 2048-bit private
//! operation ≈ 50 ms, a public operation (e = 65537) ≈ 1.5 ms — kept
//! once, in `mykil_analysis::latency::pentium3`. They price the paper's
//! OpenSSL build and are deliberately not rescaled for this crate's own
//! public exponent (`mykil_crypto::rsa::PUBLIC_EXPONENT`, 17). Costs
//! scale cubically (private) and quadratically (public) in the modulus
//! size, so test configurations with small keys charge proportionally
//! less.

use mykil_net::Duration;

/// Cost model for one node's CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoCost {
    /// Cost of one RSA private operation (decrypt or sign) at 2048 bits.
    pub rsa_private_2048: Duration,
    /// Cost of one RSA public operation (encrypt or verify) at 2048 bits.
    pub rsa_public_2048: Duration,
    /// Cost of symmetric work (seal/open/MAC) per call — negligible next
    /// to RSA but non-zero.
    pub symmetric_op: Duration,
}

impl CryptoCost {
    /// The paper's Pentium III 1 GHz testbed: the RSA constants of the
    /// closed-form model (`mykil_analysis::latency::pentium3`), so the
    /// prediction and the simulation are fed the same numbers.
    pub fn pentium3() -> CryptoCost {
        use mykil_analysis::latency::pentium3::{RSA_PRIVATE_S, RSA_PUBLIC_S};
        let micros = |seconds: f64| Duration::from_micros((seconds * 1e6).round() as u64);
        CryptoCost {
            rsa_private_2048: micros(RSA_PRIVATE_S),
            rsa_public_2048: micros(RSA_PUBLIC_S),
            symmetric_op: Duration::from_micros(20),
        }
    }

    /// Free crypto (isolates pure network latency in ablations).
    pub fn zero() -> CryptoCost {
        CryptoCost {
            rsa_private_2048: Duration::ZERO,
            rsa_public_2048: Duration::ZERO,
            symmetric_op: Duration::ZERO,
        }
    }

    /// RSA private-op cost for a given modulus size (cubic scaling).
    pub fn rsa_private(&self, bits: usize) -> Duration {
        scale(self.rsa_private_2048, bits, 3)
    }

    /// RSA public-op cost for a given modulus size (quadratic scaling).
    pub fn rsa_public(&self, bits: usize) -> Duration {
        scale(self.rsa_public_2048, bits, 2)
    }

    /// Extra cost of `RSA_blinding_on` per private op — the paper
    /// measured "+0.01 s per join", i.e. roughly +10 ms spread over the
    /// handshake's private operations.
    pub fn blinding_overhead(&self, bits: usize) -> Duration {
        // One additional public-op-sized multiplication pass.
        self.rsa_public(bits)
    }
}

impl Default for CryptoCost {
    fn default() -> Self {
        CryptoCost::pentium3()
    }
}

fn scale(base_2048: Duration, bits: usize, power: u32) -> Duration {
    let ratio = bits as f64 / 2048.0;
    let us = base_2048.as_micros() as f64 * ratio.powi(power as i32);
    Duration::from_micros(us as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p3_constants() {
        let c = CryptoCost::pentium3();
        assert_eq!(c.rsa_private(2048), Duration::from_micros(50_000));
        assert_eq!(c.rsa_public(2048), Duration::from_micros(1_500));
    }

    #[test]
    fn scaling_laws() {
        let c = CryptoCost::pentium3();
        // Halving the modulus: private cost / 8, public / 4.
        assert_eq!(c.rsa_private(1024).as_micros(), 50_000 / 8);
        assert_eq!(c.rsa_public(1024).as_micros(), 1_500 / 4);
        assert!(c.rsa_private(512) < c.rsa_private(2048));
    }

    #[test]
    fn zero_model_is_free() {
        let c = CryptoCost::zero();
        assert_eq!(c.rsa_private(2048), Duration::ZERO);
        assert_eq!(c.rsa_public(2048), Duration::ZERO);
        assert_eq!(c.blinding_overhead(2048), Duration::ZERO);
    }

    #[test]
    fn private_dominates_public() {
        let c = CryptoCost::default();
        for bits in [512usize, 1024, 2048, 4096] {
            assert!(c.rsa_private(bits) > c.rsa_public(bits), "bits={bits}");
        }
    }
}
