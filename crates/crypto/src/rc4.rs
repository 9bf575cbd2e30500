//! RC4 stream cipher — the paper's data-plane cipher.
//!
//! Section V-E of the paper evaluates Mykil on hand-held devices by
//! encrypting a 16 MB file with RC4 (~50 MB/s on a 600 MHz Celeron).
//! The end-to-end benchmark's `crypto.rc4_1k_us` row (key schedule
//! plus a 1 KiB keystream, `e2ebench/src/units.rs`) measures it.
//!
//! RC4 is broken for real-world confidentiality; it is reproduced here
//! only because the paper used it.
//!
//! # Example
//!
//! ```
//! use mykil_crypto::rc4::Rc4;
//!
//! let mut data = *b"multicast payload";
//! Rc4::new(b"area key").apply_keystream(&mut data);
//! Rc4::new(b"area key").apply_keystream(&mut data);
//! assert_eq!(&data, b"multicast payload");
//! ```

/// RC4 keystream generator.
#[derive(Clone)]
pub struct Rc4 {
    s: [u8; 256],
    i: u8,
    j: u8,
}

impl std::fmt::Debug for Rc4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the internal permutation (it is key material).
        f.debug_struct("Rc4").finish_non_exhaustive()
    }
}

impl Drop for Rc4 {
    fn drop(&mut self) {
        // The permutation is key-derived; wipe it with the indices.
        crate::ct::zeroize(&mut self.s);
        self.i = 0;
        self.j = 0;
    }
}

impl Rc4 {
    /// Initializes the cipher with the key-scheduling algorithm.
    ///
    /// # Panics
    ///
    /// Panics when `key` is empty or longer than 256 bytes.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            !key.is_empty() && key.len() <= 256,
            "RC4 key must be 1..=256 bytes"
        );
        let mut s = [0u8; 256];
        for (i, v) in s.iter_mut().enumerate() {
            *v = i as u8;
        }
        let mut j = 0u8;
        for i in 0..256 {
            j = j
                .wrapping_add(s[i])
                .wrapping_add(key[i % key.len()]);
            s.swap(i, j as usize);
        }
        Rc4 { s, i: 0, j: 0 }
    }

    /// Produces the next keystream byte (PRGA).
    pub fn next_byte(&mut self) -> u8 {
        self.i = self.i.wrapping_add(1);
        self.j = self.j.wrapping_add(self.s[self.i as usize]);
        self.s.swap(self.i as usize, self.j as usize);
        let idx = self.s[self.i as usize].wrapping_add(self.s[self.j as usize]);
        self.s[idx as usize]
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        for byte in data {
            *byte ^= self.next_byte();
        }
    }

    /// Convenience one-shot: returns `data ^ keystream(key)`.
    pub fn process(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        Rc4::new(key).apply_keystream(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_vector_key() {
        // Classic test vector: key "Key", plaintext "Plaintext".
        let ct = Rc4::process(b"Key", b"Plaintext");
        assert_eq!(hex(&ct), "bbf316e8d940af0ad3");
    }

    #[test]
    fn known_vector_wiki() {
        let ct = Rc4::process(b"Wiki", b"pedia");
        assert_eq!(hex(&ct), "1021bf0420");
    }

    #[test]
    fn known_vector_secret() {
        let ct = Rc4::process(b"Secret", b"Attack at dawn");
        assert_eq!(hex(&ct), "45a01f645fc35b383552544b9bf5");
    }

    #[test]
    fn round_trip_large() {
        let key = [7u8; 16];
        let data: Vec<u8> = (0..65536u32).map(|i| (i * 31) as u8).collect();
        let ct = Rc4::process(&key, &data);
        assert_ne!(ct, data);
        assert_eq!(Rc4::process(&key, &ct), data);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut a = Rc4::new(b"0123456789abcdef");
        let mut buf = vec![0x11u8; 100];
        let (first, second) = buf.split_at_mut(37);
        a.apply_keystream(first);
        a.apply_keystream(second);
        let whole = Rc4::process(b"0123456789abcdef", &[0x11u8; 100]);
        assert_eq!(buf, whole);
    }

    #[test]
    #[should_panic(expected = "RC4 key")]
    fn empty_key_panics() {
        let _ = Rc4::new(b"");
    }

    #[test]
    fn debug_does_not_leak_state() {
        let c = Rc4::new(b"secret");
        let s = format!("{c:?}");
        assert!(s.contains("Rc4"));
        assert!(!s.contains("secret"));
        assert!(s.len() < 32, "state bytes must not be printed: {s}");
    }
}
