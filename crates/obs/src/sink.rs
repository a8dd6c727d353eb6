//! Output sinks: JSONL appenders, atomic single-file writes and a
//! stdout writer that ends quietly when its reader has gone.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` atomically **and durably**: the bytes go
/// to a `.tmp` sibling first, are fsynced, renamed over the target, and
/// then the parent directory is fsynced too. Without the final
/// directory fsync a crash shortly after the rename can surface the old
/// file, an empty file, or no file at all on journaling filesystems —
/// the rename itself lives in the directory's metadata, which has its
/// own writeback schedule.
///
/// # Errors
///
/// Propagates the underlying filesystem error; on failure the partial
/// temporary file is removed (best-effort) and `path` is untouched.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        fsync_dir(parent_dir(path))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The directory holding `path` (`.` when the path has no parent
/// component, e.g. a bare relative filename).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Fsyncs a directory, making its entries (newly created files,
/// renames) durable against power loss. On platforms where directories
/// cannot be opened for syncing (non-unix), this is a no-op.
///
/// # Errors
///
/// Propagates the underlying filesystem error (unix only).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// The `.tmp` sibling path used by [`write_atomic`] (exposed so callers
/// doing streaming writes can use the same write-then-rename protocol).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `args` to stdout, the target of [`crate::outln!`] and
/// [`crate::out!`]. When stdout is a pipe whose reader has gone
/// (`placesim-cli suite | head -1`), the process ends quietly with
/// status 0, as a reader that stopped reading expects; `println!` would
/// panic and exit with 101. Any other write error ends it with status 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// An append-only JSON-lines sink: one complete JSON document per line.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the sink file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Appends one JSON document as a line. Interior newlines are not
    /// checked — callers emit single-line JSON (the [`crate::json`]
    /// writer never emits newlines).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn append(&mut self, json: &str) -> io::Result<()> {
        self.out.write_all(json.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flush error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("placesim-obs-test-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_roundtrip() {
        let path = tmp_dir().join("atomic.json");
        write_atomic(&path, b"{\"a\": 1}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\": 1}");
        assert!(!tmp_sibling(&path).exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tmp_sibling_appends_suffix() {
        let p = Path::new("/x/y/out.json");
        assert_eq!(tmp_sibling(p), Path::new("/x/y/out.json.tmp"));
    }

    #[test]
    fn parent_dir_handles_bare_filenames() {
        assert_eq!(parent_dir(Path::new("/x/y/out.json")), Path::new("/x/y"));
        assert_eq!(parent_dir(Path::new("out.json")), Path::new("."));
        assert_eq!(parent_dir(Path::new("/")), Path::new("."));
    }

    #[test]
    fn fsync_dir_syncs_real_directories() {
        fsync_dir(&tmp_dir()).unwrap();
        #[cfg(unix)]
        assert!(fsync_dir(Path::new("/nonexistent-placesim-dir")).is_err());
    }

    /// Regression test for the durability fix: `write_atomic` must
    /// succeed for a target given as a bare relative filename (the
    /// parent-directory fsync has to resolve to `.`, not to an empty
    /// path), and must leave neither a temp sibling nor a torn target.
    #[test]
    fn atomic_write_fsyncs_parent_of_bare_filename() {
        let dir = tmp_dir();
        let prev = std::env::current_dir().unwrap();
        // Serialize with other tests mutating cwd (there are none today,
        // but keep the window tiny regardless).
        std::env::set_current_dir(&dir).unwrap();
        let result = write_atomic(Path::new("bare.json"), b"{}");
        std::env::set_current_dir(prev).unwrap();
        result.unwrap();
        assert_eq!(fs::read_to_string(dir.join("bare.json")).unwrap(), "{}");
        assert!(!dir.join("bare.json.tmp").exists());
        fs::remove_file(dir.join("bare.json")).ok();
    }

    #[test]
    fn jsonl_appends_lines() {
        let path = tmp_dir().join("log.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.append("{\"n\": 1}").unwrap();
        sink.append("{\"n\": 2}").unwrap();
        sink.flush().unwrap();
        drop(sink);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(crate::json::balanced));
        fs::remove_file(&path).unwrap();
    }
}
