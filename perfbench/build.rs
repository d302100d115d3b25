//! Stamps the host block's build facts into the binary: the compiler
//! version, the build profile and the source revision. The revision is read
//! from the checkout's `.git` directory when there is one and is `unknown`
//! otherwise (a source export has no history); `REFIDEM_GIT_REV` overrides
//! it.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    println!("cargo:rerun-if-env-changed=REFIDEM_GIT_REV");
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let rev = std::env::var("REFIDEM_GIT_REV")
        .ok()
        .or_else(|| git_revision(&git_dir))
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
}

/// Resolves `HEAD` by reading the git metadata files directly (no `git`
/// process, nothing read outside the checkout).
fn git_revision(git_dir: &Path) -> Option<String> {
    let head_path = git_dir.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let ref_path = git_dir.join(reference);
    if let Ok(rev) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
