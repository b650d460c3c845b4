//! [`FilesystemStorage`]: one file per key under a root directory.

#![allow(
    clippy::disallowed_methods,
    reason = "this backend IS the storage boundary: it owns every std::fs call the data path makes"
)]

use super::{validate_key, ByteRange, Storage};
use eblcio_codec::{CodecError, Result};
#[allow(clippy::disallowed_types, reason = "the storage boundary opens its files here")]
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counter making concurrent temp-file names unique within a process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Prefix of the sibling files [`FilesystemStorage::set`] stages before
/// renaming over the target; [`FilesystemStorage::list`] hides them so
/// a crash mid-`set` can never invent a key.
const TMP_PREFIX: &str = ".tmp-";

/// Filesystem-backed storage rooted at one directory. Keys map to
/// relative paths (`a/b` becomes `<root>/a/b`); [`validate_key`]
/// guarantees no key can escape the root. `set` is atomic — the bytes
/// are staged in a sibling temp file and renamed over the target, so a
/// crash mid-write never leaves a torn object under a live key.
#[derive(Debug)]
pub struct FilesystemStorage {
    root: PathBuf,
}

/// Maps an I/O error on `key` to the typed storage error vocabulary.
fn io_err(op: &'static str, key: &str, e: &std::io::Error) -> CodecError {
    if e.kind() == std::io::ErrorKind::NotFound {
        CodecError::NoSuchKey { key: key.to_string() }
    } else {
        CodecError::StorageIo { op, detail: format!("{key}: {e}") }
    }
}

impl FilesystemStorage {
    /// Opens (creating if needed) a backend rooted at `root`.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| CodecError::StorageIo {
            op: "create root",
            detail: format!("{}: {e}", root.display()),
        })?;
        Ok(Self { root })
    }

    /// The root directory keys resolve under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: &str) -> Result<PathBuf> {
        validate_key(key)?;
        Ok(self.root.join(key))
    }

    /// Opens the file under `key`, mapping "not found" to
    /// [`CodecError::NoSuchKey`].
    #[allow(clippy::disallowed_types, reason = "the storage boundary opens its files here")]
    fn open_file(&self, op: &'static str, key: &str, opts: &OpenOptions) -> Result<File> {
        let path = self.path_of(key)?;
        opts.open(&path).map_err(|e| io_err(op, key, &e))
    }

    fn walk(&self, dir: &Path, prefix: &str, out: &mut Vec<String>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let key = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            };
            let ty = entry.file_type()?;
            if ty.is_dir() {
                self.walk(&entry.path(), &key, out)?;
            } else if ty.is_file() && !name.starts_with(TMP_PREFIX) {
                out.push(key);
            }
        }
        Ok(())
    }
}

impl Storage for FilesystemStorage {
    fn kind(&self) -> &'static str {
        "fs"
    }

    fn get(&self, key: &str) -> Result<Arc<[u8]>> {
        let path = self.path_of(key)?;
        fs::read(&path)
            .map(Arc::from)
            .map_err(|e| io_err("get", key, &e))
    }

    #[allow(clippy::disallowed_types, reason = "the storage boundary opens its files here")]
    fn get_range(&self, key: &str, range: ByteRange) -> Result<Vec<u8>> {
        let mut f = self.open_file("get_range", key, OpenOptions::new().read(true))?;
        let size = f
            .metadata()
            .map_err(|e| io_err("get_range", key, &e))?
            .len();
        let r = range.resolve(size)?;
        f.seek(SeekFrom::Start(r.start as u64))
            .map_err(|e| io_err("get_range", key, &e))?;
        let mut out = vec![0u8; r.len()];
        f.read_exact(&mut out)
            .map_err(|e| io_err("get_range", key, &e))?;
        Ok(out)
    }

    fn set(&self, key: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("set", key, &e))?;
        }
        // Atomic replace: stage a uniquely named sibling, then rename
        // over the target. The temp name starts with a dot so `list`
        // never surfaces a half-written object.
        let tmp = path.with_file_name(format!(
            "{TMP_PREFIX}{}-{}-{}",
            path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, bytes).map_err(|e| io_err("set", key, &e))?;
        fs::rename(&tmp, &path).map_err(|e| {
            fs::remove_file(&tmp).ok();
            io_err("set", key, &e)
        })
    }

    #[allow(clippy::disallowed_types, reason = "the storage boundary opens its files here")]
    fn append(&self, key: &str, bytes: &[u8]) -> Result<u64> {
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("append", key, &e))?;
        }
        let mut f = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err("append", key, &e))?;
        f.write_all(bytes).map_err(|e| io_err("append", key, &e))?;
        f.metadata()
            .map(|m| m.len())
            .map_err(|e| io_err("append", key, &e))
    }

    #[allow(clippy::disallowed_types, reason = "the storage boundary opens its files here")]
    fn write_at(&self, key: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        let mut f = self.open_file("write_at", key, OpenOptions::new().read(true).write(true))?;
        let size = f.metadata().map_err(|e| io_err("write_at", key, &e))?.len();
        ByteRange::Bounded { offset, len: bytes.len() as u64 }.resolve(size)?;
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("write_at", key, &e))?;
        f.write_all(bytes).map_err(|e| io_err("write_at", key, &e))
    }

    fn size(&self, key: &str) -> Result<u64> {
        let path = self.path_of(key)?;
        let meta = fs::metadata(&path).map_err(|e| io_err("size", key, &e))?;
        if meta.is_file() {
            Ok(meta.len())
        } else {
            Err(CodecError::NoSuchKey { key: key.to_string() })
        }
    }

    fn erase(&self, key: &str) -> Result<()> {
        let path = self.path_of(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("erase", key, &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        self.walk(&self.root, "", &mut out)
            .map_err(|e| CodecError::StorageIo {
                op: "list",
                detail: format!("{}: {e}", self.root.display()),
            })?;
        out.sort();
        Ok(out)
    }
}
