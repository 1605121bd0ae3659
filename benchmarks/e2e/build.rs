//! Bakes the effective rustflags into the binary so the output header
//! can say how the measured code was compiled (the root
//! `.cargo/config.toml` adds `-C target-cpu=native` by directory walk).

fn main() {
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=E2E_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
}
