//! Hands this build's compiler flags to the program. Cargo drops the
//! `build.rustflags` of `cargo-config.toml` without a word when
//! `RUSTFLAGS` is set in the environment, and timings of a build
//! without those flags are not comparable with one that has them (see
//! "Build settings" in the README); the program says so when it runs.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!("cargo:rustc-env=E2E_RUSTFLAGS={}", flags.replace('\x1f', " "));
}
