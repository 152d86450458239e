//! The host header every record carries, and the process's peak memory.

use std::path::Path;
use std::process::Command;

use sim_util::json::JsonObject;

/// Trimmed standard output of a command, or `None` if it could not run
/// or failed.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision of the working directory, `-dirty` appended when
/// tracked files differ from it, or `none` outside a git checkout whose
/// root is the working directory.
fn git_revision() -> String {
    let top = command_output("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().ok();
    let is_root = match (top, here) {
        (Some(top), Some(here)) => Path::new(&top).canonicalize().ok() == here.canonicalize().ok(),
        _ => false,
    };
    if !is_root {
        return "none".into();
    }
    let rev = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    match command_output("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) if s.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// The host header as a JSON object.
pub fn header(seed: u64, pool_threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut o = JsonObject::new();
    o.field_u64("available_parallelism", cores as u64)
        .field_str("rustc", &rustc)
        .field_str("git_revision", &git_revision())
        .field_str("profile", profile)
        .field_str(
            "target",
            &format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
        )
        .field_u64("pool_threads", pool_threads as u64)
        .field_u64("seed", seed);
    o.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
