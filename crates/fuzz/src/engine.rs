//! Seeded mutation engine and panic-catching target runner.
//!
//! crates.io (and with it cargo-fuzz/libFuzzer) is unavailable in the
//! build environment, so this is a self-contained coverage-blind
//! mutational fuzzer: a [`Drbg`]-seeded mutator stacked over a seed
//! corpus, with every execution wrapped in `catch_unwind` so a
//! panicking decoder is reported (and its input preserved) instead of
//! killing the run. Determinism is the design center — the same
//! `(engine seed, corpus, iteration budget)` triple replays the exact
//! same input sequence, so a CI crash reproduces locally from the
//! printed seed alone.

// It frames arbitrary mutated bytes for the decoders, so a narrowing cast
// or a panicking slice access outside tests is a finding.
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
        clippy::disallowed_methods
    )
)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use mykil_crypto::drbg::Drbg;

/// Hard cap on mutated input length. Keeps per-input cost bounded so a
/// wall-clock budget buys iterations, not a handful of giant inputs.
pub const MAX_INPUT: usize = 64 << 10;

/// Values that disproportionately trigger boundary bugs in
/// length-prefixed decoders: zero, one, sign/width boundaries, and the
/// wire layer's `MAX_BYTES_FIELD` cap straddled from both sides.
const INTERESTING_U32: [u32; 8] = [
    0,
    1,
    0x7f,
    0xff,
    0x7fff_ffff,
    0xffff_ffff,
    16 << 20,       // wire::MAX_BYTES_FIELD
    (16 << 20) + 1, // just over the cap
];

const INTERESTING_U64: [u64; 6] = [
    0,
    1,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX / 9, // a count of 9-byte records whose length overflows u64
    u64::MAX,
];

/// Deterministic stacked-mutation engine.
#[derive(Debug)]
pub struct Mutator {
    rng: Drbg,
}

impl Mutator {
    /// Engine with a fixed seed; the whole input sequence is a pure
    /// function of this value plus the corpus.
    pub fn new(seed: u64) -> Mutator {
        Mutator {
            rng: Drbg::from_seed(seed),
        }
    }

    fn byte(&mut self) -> u8 {
        (self.rng.gen_range(256) & 0xff) as u8
    }

    fn index(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            usize::try_from(self.rng.gen_range(len as u64))
                .unwrap_or(usize::MAX)
                .min(len - 1)
        }
    }

    /// Picks a corpus entry to start the next input from.
    pub fn pick<'a>(&mut self, corpus: &'a [Vec<u8>]) -> &'a [u8] {
        let i = self.index(corpus.len());
        corpus.get(i).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Applies 1–4 stacked mutations to `buf`, splicing from `corpus`.
    pub fn mutate(&mut self, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
        let rounds = 1 + self.rng.gen_range(4);
        for _ in 0..rounds {
            self.mutate_once(buf, corpus);
        }
        buf.truncate(MAX_INPUT);
    }

    fn mutate_once(&mut self, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
        match self.rng.gen_range(9) {
            // Flip one bit.
            0 if !buf.is_empty() => {
                let i = self.index(buf.len());
                let bit = self.rng.gen_range(8);
                if let Some(b) = buf.get_mut(i) {
                    *b ^= 1u8 << bit;
                }
            }
            // Overwrite one byte.
            1 if !buf.is_empty() => {
                let i = self.index(buf.len());
                let b = self.byte();
                if let Some(slot) = buf.get_mut(i) {
                    *slot = b;
                }
            }
            // Insert a random byte.
            2 => {
                let i = self.index(buf.len() + 1);
                let b = self.byte();
                buf.insert(i, b);
            }
            // Delete a short range.
            3 if !buf.is_empty() => {
                let i = self.index(buf.len());
                let n = 1 + self.index(16).min(buf.len() - i - 1);
                buf.drain(i..i + n);
            }
            // Duplicate a range in place.
            4 if !buf.is_empty() => {
                let i = self.index(buf.len());
                let n = (1 + self.index(32)).min(buf.len() - i);
                let chunk: Vec<u8> = buf.get(i..i + n).unwrap_or(&[]).to_vec();
                let at = self.index(buf.len() + 1);
                buf.splice(at..at, chunk);
            }
            // Stamp an interesting u32/u64 (both endiannesses reachable
            // via mutation stacking) over a random position.
            5 if !buf.is_empty() => {
                let write64 = self.rng.gen_range(2) == 0;
                let bytes: Vec<u8> = if write64 {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "index() bounds to < len of a non-empty const table"
                    )]
                    let v = INTERESTING_U64[self.index(INTERESTING_U64.len())];
                    v.to_le_bytes().to_vec()
                } else {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "index() bounds to < len of a non-empty const table"
                    )]
                    let v = INTERESTING_U32[self.index(INTERESTING_U32.len())];
                    v.to_le_bytes().to_vec()
                };
                let i = self.index(buf.len());
                for (k, &b) in bytes.iter().enumerate() {
                    match buf.get_mut(i + k) {
                        Some(slot) => *slot = b,
                        None => buf.push(b),
                    }
                }
            }
            // Truncate.
            6 if !buf.is_empty() => {
                let keep = self.index(buf.len());
                buf.truncate(keep);
            }
            // Splice a window from another corpus entry.
            7 if !corpus.is_empty() => {
                let i = self.index(corpus.len());
                let donor = corpus.get(i).cloned().unwrap_or_default();
                if donor.is_empty() {
                    return;
                }
                let from = self.index(donor.len());
                let n = (1 + self.index(64)).min(donor.len() - from);
                let at = self.index(buf.len() + 1);
                buf.splice(at..at, donor.get(from..from + n).unwrap_or(&[]).iter().copied());
            }
            // Append a short random tail.
            _ => {
                let n = 1 + self.index(8);
                for _ in 0..n {
                    let b = self.byte();
                    buf.push(b);
                }
            }
        }
    }
}

static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Installs a process-wide panic hook that records the panic message
/// (with location) instead of printing a backtrace per crashing input.
/// Call once before fuzzing.
pub fn install_panic_hook() {
    panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let at = info
            .location()
            .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
            .unwrap_or_else(|| "<unknown>".to_string());
        if let Ok(mut slot) = LAST_PANIC.lock() {
            *slot = Some(format!("{msg} (at {at})"));
        }
    }));
}

/// Runs one target execution under `catch_unwind`; `Err` carries the
/// recorded panic message.
pub fn run_caught(run: fn(&[u8]), input: &[u8]) -> Result<(), String> {
    if let Ok(mut slot) = LAST_PANIC.lock() {
        *slot = None;
    }
    match panic::catch_unwind(AssertUnwindSafe(|| run(input))) {
        Ok(()) => Ok(()),
        Err(_) => {
            let msg = LAST_PANIC
                .lock()
                .ok()
                .and_then(|mut s| s.take())
                .unwrap_or_else(|| "<panic message unavailable>".to_string());
            Err(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_is_deterministic() {
        let corpus = vec![vec![1, 2, 3, 4], vec![9; 40]];
        let run = |seed: u64| {
            let mut m = Mutator::new(seed);
            let mut outs = Vec::new();
            for _ in 0..200 {
                let mut buf = m.pick(&corpus).to_vec();
                m.mutate(&mut buf, &corpus);
                outs.push(buf);
            }
            outs
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mutator_respects_max_input() {
        let corpus = vec![vec![0xabu8; MAX_INPUT]];
        let mut m = Mutator::new(3);
        for _ in 0..100 {
            let mut buf = m.pick(&corpus).to_vec();
            m.mutate(&mut buf, &corpus);
            assert!(buf.len() <= MAX_INPUT);
        }
    }

    #[test]
    fn run_caught_reports_panics() {
        install_panic_hook();
        fn fine(_: &[u8]) {}
        fn boom(_: &[u8]) {
            panic!("boom message");
        }
        assert!(run_caught(fine, b"x").is_ok());
        let err = run_caught(boom, b"x").unwrap_err();
        assert!(err.contains("boom message"), "got: {err}");
    }
}
