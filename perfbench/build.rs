//! Records the compiler version and the target CPU the benchmark was
//! built for, so every run can print the environment it measured in.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    // Cargo hands build scripts the final rustflags, 0x1f-separated;
    // `.cargo/config.toml` pins `-C target-cpu=...` for the workspace.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_owned();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
