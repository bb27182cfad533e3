//! Minimal self-cleaning temporary directory, used by tests, examples and
//! benches across the workspace.
//!
//! We deliberately avoid pulling in the `tempfile` crate: the only thing the
//! workspace needs is "give me a fresh directory and delete it on drop".

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp dir that is removed (recursively) when
/// the value is dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory with a unique name carrying `prefix`.
    ///
    /// Uniqueness combines the process id, a process-wide counter and a
    /// nanosecond timestamp, so concurrent test binaries do not collide.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{n}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consume the guard without deleting the directory (for debugging).
    pub fn into_path(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let t = TempDir::new("tdl-test").unwrap();
        let p = t.path().to_path_buf();
        assert!(p.is_dir());
        std::fs::write(p.join("f.txt"), b"x").unwrap();
        drop(t);
        assert!(!p.exists());
    }

    #[test]
    fn two_dirs_are_distinct() {
        let a = TempDir::new("tdl").unwrap();
        let b = TempDir::new("tdl").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn into_path_keeps_dir() {
        let t = TempDir::new("tdl-keep").unwrap();
        let p = t.into_path();
        assert!(p.is_dir());
        std::fs::remove_dir_all(&p).unwrap();
    }
}
