//! The incremental analysis cache under `target/ramp-lint-cache/`.
//!
//! One entry per source file, keyed by the FNV-1a digest of the file's
//! workspace-relative path (the entry's filename) and guarded by the
//! FNV-1a digest of its *contents* (the entry's header). An unchanged
//! file deserializes its [`FileSummary`] instead of re-lexing,
//! re-parsing, and re-running the local rules; a changed file, a
//! malformed entry, or a version bump is simply a miss. Entries are
//! written via temp-file + rename so a crashed run never leaves a
//! torn entry behind.
//!
//! Soundness: summaries contain only file-local facts (see
//! [`crate::summary`]), so the cross-file pass — which also consumes
//! the baseline and the hot-path manifest — is recomputed on every run
//! from summaries alone. Nothing outside the file's bytes can change
//! what the cache stores, which is why the content digest is a
//! sufficient key.

use crate::summary::FileSummary;
use ramp_core::fnv1a_hex;
use std::path::PathBuf;

/// Bump when the summary format or any extraction rule changes, so
/// stale-format entries miss instead of misparse.
const CACHE_VERSION: &str = "ramp-lint-cache v4";

/// Handle to one run's cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: Option<PathBuf>,
}

impl Cache {
    /// A cache rooted at `dir` (conventionally
    /// `<root>/target/ramp-lint-cache`). Creates the directory lazily on
    /// first store.
    #[must_use]
    pub fn at(dir: PathBuf) -> Cache {
        Cache { dir: Some(dir) }
    }

    /// A disabled cache: every load misses, stores are dropped.
    #[must_use]
    pub fn disabled() -> Cache {
        Cache { dir: None }
    }

    /// The entry path for a workspace-relative source path.
    fn entry_path(&self, rel_path: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.txt", fnv1a_hex(rel_path))))
    }

    /// Loads the cached summary for `rel_path` if its stored content
    /// digest matches `source`.
    #[must_use]
    pub fn load(&self, rel_path: &str, source: &str) -> Option<FileSummary> {
        let path = self.entry_path(rel_path)?;
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.splitn(3, '\n');
        if lines.next()? != CACHE_VERSION {
            return None;
        }
        if lines.next()? != format!("digest {}", fnv1a_hex(source)) {
            return None;
        }
        let summary = FileSummary::from_cache_text(lines.next()?)?;
        // A path collision (two rel_paths with the same digest) must not
        // serve the wrong file's facts.
        (summary.rel_path == rel_path).then_some(summary)
    }

    /// Stores `summary` for `rel_path` with `source`'s digest.
    /// Best-effort: I/O errors are swallowed — a failed store only costs
    /// a future miss.
    pub fn store(&self, rel_path: &str, source: &str, summary: &FileSummary) {
        let Some(path) = self.entry_path(rel_path) else {
            return;
        };
        let Some(dir) = self.dir.as_ref() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let payload = format!(
            "{CACHE_VERSION}\ndigest {}\n{}",
            fnv1a_hex(source),
            summary.to_cache_text()
        );
        // Unique temp name per entry: concurrent writers of *different*
        // entries never collide, and same-entry writers converge on the
        // same bytes anyway.
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, payload).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileContext, FileKind};
    use crate::summary::summarize;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ramp-lint-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn load_after_store_roundtrips_and_detects_edits() {
        let dir = tmp_dir("roundtrip");
        let cache = Cache::at(dir.clone());
        let src = "pub fn api(xs: &[u32]) -> u32 { xs[0] }\n";
        let rel = "crates/core/src/x.rs";
        let summary = summarize(&FileContext::new("core", FileKind::Lib, rel, src));
        assert!(cache.load(rel, src).is_none(), "cold cache misses");
        cache.store(rel, src, &summary);
        let hit = cache.load(rel, src).expect("warm cache hits");
        assert_eq!(hit.fns.len(), summary.fns.len());
        assert_eq!(hit.fns[0].panics, summary.fns[0].panics);
        // Any content change invalidates.
        assert!(cache.load(rel, "pub fn api() {}\n").is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_entries_and_version_bumps_miss() {
        let dir = tmp_dir("corrupt");
        let cache = Cache::at(dir.clone());
        let src = "fn f() {}\n";
        let rel = "crates/core/src/y.rs";
        cache.store(rel, src, &summarize(&FileContext::new("core", FileKind::Lib, rel, src)));
        let entry = dir.join(format!("{}.txt", fnv1a_hex(rel)));
        std::fs::write(&entry, "ramp-lint-cache v0\ndigest nope\n").unwrap();
        assert!(cache.load(rel, src).is_none());
        std::fs::write(&entry, "garbage").unwrap();
        assert!(cache.load(rel, src).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = Cache::disabled();
        let src = "fn f() {}\n";
        let rel = "crates/core/src/z.rs";
        cache.store(rel, src, &summarize(&FileContext::new("core", FileKind::Lib, rel, src)));
        assert!(cache.load(rel, src).is_none());
    }
}
