//! The host record every result carries: nproc, kernel, the data
//! directory's filesystem type, rustc version and git sha.

use std::path::Path;

/// Describe the host, with `data_dir` as the directory whose filesystem
/// type is reported. Fields that cannot be read say so instead of failing.
pub fn record(data_dir: &Path) -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("kernel", read_trimmed("/proc/sys/kernel/osrelease")),
        ("data_fs", fs_type(data_dir)),
        ("rustc", rustc_version()),
        ("git_sha", git_sha()),
    ]
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the longest mount point containing `dir`.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            let point = point.replace("\\040", " ");
            dir.starts_with(&point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    match std::process::Command::new(rustc).arg("--version").output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// HEAD of a git checkout in the working directory, read from `.git`
/// directly; "none" outside a git checkout.
fn git_sha() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Restart the peak-RSS count at the current RSS (Linux `clear_refs` 5),
/// so that [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
