//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Used for every MAC in the Mykil protocol messages (Figures 3 and 7 of
//! the paper), for ticket integrity, and as the digest inside RSA
//! signatures.
//!
//! # Example
//!
//! ```
//! use mykil_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`update`](Self::update), extract the digest with
/// [`finalize`](Self::finalize). For one-shot hashing use
/// [`Sha256::digest`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        finish(H0, 0, data)
    }

    /// Resumes from a chaining value reached after `len` bytes (a
    /// multiple of the block length): how HMAC restarts from its pad
    /// midstates without re-hashing the pad block.
    pub(crate) fn from_midstate(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % 64, 0, "a midstate sits on a block boundary");
        Sha256 {
            state,
            len,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// The chaining value after the whole blocks absorbed so far.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "a midstate sits on a block boundary");
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie, in one call.
        let (blocks, tail) = input.split_at(input.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let buffered = &self.buf[..self.buf_len];
        finish(
            self.state,
            self.len.wrapping_sub(buffered.len() as u64),
            buffered,
        )
    }
}

/// The digest of a message whose first `prefix_len` bytes (whole blocks)
/// left the chaining value `state` and whose remaining bytes are
/// `tail`. One-shot digests and HMAC tags come straight here, with no
/// hasher to set up and nothing copied but the last partial block.
#[inline]
pub(crate) fn finish(mut state: [u32; 8], prefix_len: u64, tail: &[u8]) -> [u8; DIGEST_LEN] {
    let (blocks, rest) = tail.split_at(tail.len() & !63);
    if !blocks.is_empty() {
        compress_blocks(&mut state, blocks);
    }
    // Padding: 0x80, zeros up to byte 56 of a block (spilling into a
    // second block when fewer than nine bytes are free), then the
    // 8-byte big-endian bit length.
    let bit_len = prefix_len.wrapping_add(tail.len() as u64).wrapping_mul(8);
    let mut pad = [0u8; 128];
    pad[..rest.len()].copy_from_slice(rest);
    pad[rest.len()] = 0x80;
    let padded_len = if rest.len() < 56 { 64 } else { 128 };
    pad[padded_len - 8..padded_len].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &pad[..padded_len]);
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Name of the compression back end [`Sha256`] uses on this CPU:
/// `"x86-sha-ext"` or `"portable"`. Chosen by CPUID at run time — there
/// is no build flag or setting — so a benchmark log can say which it
/// measured.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::available() {
        return "x86-sha-ext";
    }
    "portable"
}

/// Compresses the whole 64-byte blocks of `blocks` into `state` on the
/// fastest back end the CPU has.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The FIPS 180-4 rounds as written in the specification: the only back
/// end on CPUs without SHA instructions, and the oracle the accelerated
/// one is tested against.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..257u16).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 250] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn every_length_and_split_agrees_with_hand_padded_blocks() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            // Reference: pad by hand, run the portable rounds (never the
            // accelerated back end `digest` may have picked).
            let mut padded = msg.to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut reference = H0;
            compress_blocks_portable(&mut reference, &padded);
            let want: Vec<u8> = reference.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(Sha256::digest(msg)[..], want[..], "len={len}");
            // Two updates split at every offset (crosses the 55/56/63/64/
            // 119/120 padding boundaries with every buffer fill). On a CPU
            // with the SHA extension these run the accelerated back end.
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize()[..], want[..], "len={len} split={split}");
            }
        }
    }

    type Compress = fn(&mut [u32; 8], &[u8]) -> bool;

    /// The accelerated back end, or `None` with a notice on a CPU that
    /// lacks it (the differential tests then have nothing to compare).
    fn accelerated() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::available() {
            return Some(crate::sha_ni::compress_blocks);
        }
        println!("notice: no SHA extension on this CPU; portable back end only, differential test skipped");
        None
    }

    #[test]
    fn accelerated_matches_portable_on_random_states_and_blocks() {
        let Some(fast) = accelerated() else { return };
        use rand::RngCore;
        let mut rng = crate::drbg::Drbg::from_seed(0x5348_4132);
        for case in 0..10_000 {
            let mut state = [0u32; 8];
            for w in &mut state {
                *w = rng.next_u32();
            }
            // Mostly single blocks; every tenth case a run of several.
            let mut blocks = vec![
                0u8;
                if case % 10 == 9 {
                    64 * (2 + case % 7)
                } else {
                    64
                }
            ];
            rng.fill_bytes(&mut blocks);
            let (mut want, mut got) = (state, state);
            compress_blocks_portable(&mut want, &blocks);
            assert!(fast(&mut got, &blocks));
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn midstate_resumes_where_the_blocks_ended() {
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let mut resumed = Sha256::from_midstate(h.midstate(), 128);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn backend_name_matches_detection() {
        assert_eq!(backend() == "x86-sha-ext", accelerated().is_some());
    }

    #[test]
    fn boundary_lengths() {
        // Hash messages around the 55/56/64-byte padding boundaries; verify
        // they are pairwise distinct (a classic padding-bug detector).
        let mut digests = Vec::new();
        for len in 50..70 {
            let msg = vec![0x5au8; len];
            digests.push(Sha256::digest(&msg));
        }
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "lengths {i}+50 vs {j}+50 collide");
            }
        }
    }
}
