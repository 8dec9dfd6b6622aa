#![warn(missing_docs)]

//! `artifacts` — a content-addressed on-disk store for compiled modules,
//! plus the binary wire primitives the module codecs are written against.
//!
//! The store is the persistence tier of the compile service
//! (`tiramisu::service`): compiled bytecode, disassembly, and compile
//! traces are serialized into one file per [`ArtifactKey`] and survive
//! process restart. The serialization format is hand-rolled (the workspace
//! is std only), following the same policy as the hand-written JSON in
//! `BENCH_figures.json`.
//!
//! Design points:
//!
//! - **Content addressing.** Files are named by the key — a structural
//!   fingerprint of the source plus a hash of backend kind and compile
//!   options — so CPU/GPU/distributed artifacts of the same function
//!   never collide ([`ArtifactKey`]).
//! - **Atomic writes.** [`ArtifactStore::put`] writes to a temp file in
//!   the same directory and `rename`s it into place, so readers never see
//!   a half-written artifact and concurrent writers of the same key
//!   settle on one complete file.
//! - **Versioned header + checksum.** Every file starts with a magic
//!   string carrying [`FORMAT_VERSION`] and ends with an FNV-1a checksum
//!   of everything before it. A version bump, a truncated write, or bit
//!   rot all surface as a *miss* (never an error, never a panic), and the
//!   next successful compile overwrites the stale file.

pub mod wire;

pub use wire::{Reader, WireError, Writer};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bumped whenever the on-disk layout or any module codec changes shape.
/// Old files then read back as misses and are overwritten on the next
/// compile — there is no migration machinery by design.
pub const FORMAT_VERSION: u32 = 3;

/// File magic: `TIRART` + format version, little-endian.
const MAGIC: &[u8; 6] = b"TIRART";

/// Extension of artifact files.
const EXT: &str = "tirart";

/// Environment variable naming the persistent cache directory used by the
/// process-global compile service.
pub const CACHE_DIR_ENV: &str = "TIRAMISU_CACHE_DIR";

/// Identity of one compiled artifact: *what* was compiled and *how*.
///
/// `source` fingerprints the program being compiled (for the compile
/// service, `tiramisu::Function::fingerprint` folded with the parameter
/// bindings); `config` hashes the backend kind plus every
/// codegen-relevant compile option. Both halves appear in the file name,
/// so artifacts for different backends or options of the same source are
/// distinct files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey {
    /// Structural fingerprint of the compiled source (program + params).
    pub source: u64,
    /// Hash of backend kind + compile options.
    pub config: u64,
}

impl ArtifactKey {
    /// A key from its two halves.
    pub fn new(source: u64, config: u64) -> ArtifactKey {
        ArtifactKey { source, config }
    }

    /// The file stem the key addresses (32 hex digits).
    pub fn file_stem(&self) -> String {
        format!("{:016x}-{:016x}", self.source, self.config)
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.file_stem())
    }
}

/// A deserialized artifact: named byte sections (module payload,
/// disassembly, compile-trace text, ...).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The key the artifact was stored under.
    pub key: ArtifactKey,
    sections: Vec<(String, Vec<u8>)>,
}

impl Artifact {
    /// A section's payload by name.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, b)| b.as_slice())
    }

    /// All section names, in stored order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }
}

/// Counters describing what a store instance observed (monotonic,
/// process-local). `corrupt` counts files rejected for a bad magic,
/// version, checksum, or malformed body — each of those reads also counts
/// as a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful artifact reads.
    pub hits: u64,
    /// Lookups that found no (usable) file.
    pub misses: u64,
    /// Artifacts written.
    pub writes: u64,
    /// Files rejected as corrupt/truncated/stale-format.
    pub corrupt: u64,
}

/// FNV-1a over a byte slice: the integrity checksum trailing every
/// artifact file. Not cryptographic — it guards against truncation and
/// bit rot, not adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A directory of content-addressed artifact files.
///
/// The store is safe to share across threads (`&self` methods only) and
/// across processes: writes are atomic renames, reads validate the
/// checksum, and a lost race simply rewrites the same content under the
/// same name.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    tmp_counter: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// Opens the store named by the `TIRAMISU_CACHE_DIR` environment
    /// variable, or `None` when it is unset/empty or the directory cannot
    /// be created.
    pub fn from_env() -> Option<ArtifactStore> {
        let dir = std::env::var(CACHE_DIR_ENV).ok().filter(|d| !d.is_empty())?;
        ArtifactStore::open(dir).ok()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters observed by this instance.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    fn path_of(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}.{EXT}", key.file_stem()))
    }

    /// Whether a (possibly stale) file exists for `key`. Cheaper than
    /// [`ArtifactStore::get`]; does not validate contents.
    pub fn contains(&self, key: ArtifactKey) -> bool {
        self.path_of(key).exists()
    }

    /// Number of artifact files currently in the store directory.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| {
                        e.path().extension().map(|x| x == EXT).unwrap_or(false)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store directory holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes and atomically writes an artifact.
    ///
    /// # Errors
    ///
    /// I/O errors writing or renaming the temp file. Callers treating the
    /// store as a cache can ignore the error (the artifact is then simply
    /// recompiled next time).
    pub fn put(&self, key: ArtifactKey, sections: &[(&str, &[u8])]) -> io::Result<()> {
        let mut w = Writer::new();
        w.bytes_raw(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(key.source);
        w.u64(key.config);
        w.u32(sections.len() as u32);
        for (name, payload) in sections {
            w.str(name);
            w.bytes(payload);
        }
        let mut buf = w.into_vec();
        let sum = fnv64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());

        // Unique temp name in the same directory (rename must not cross
        // filesystems), then the atomic publish.
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{}.{}.{n}.tmp", key.file_stem(), std::process::id()));
        fs::write(&tmp, &buf)?;
        let dst = self.path_of(key);
        let r = fs::rename(&tmp, &dst);
        if r.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        r?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        telemetry::instant("artifacts", "disk write");
        Ok(())
    }

    /// Reads and validates the artifact stored under `key`.
    ///
    /// Returns `None` on a true miss *and* on any unusable file — wrong
    /// magic, stale [`FORMAT_VERSION`], checksum mismatch (truncation/bit
    /// rot), or malformed body. Corruption is counted in
    /// [`StoreStats::corrupt`] but never surfaces as an error: the caller
    /// falls back to a clean compile, whose `put` overwrites the bad
    /// file.
    pub fn get(&self, key: ArtifactKey) -> Option<Artifact> {
        let bytes = match fs::read(self.path_of(key)) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match self.parse(key, &bytes) {
            Some(a) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::instant("artifacts", "disk hit");
                Some(a)
            }
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                telemetry::instant("artifacts", "corrupt artifact");
                None
            }
        }
    }

    /// Strict parse of one artifact file; any deviation is `None`.
    fn parse(&self, key: ArtifactKey, bytes: &[u8]) -> Option<Artifact> {
        // Trailing checksum first: it covers the whole header + body.
        if bytes.len() < 8 {
            return None;
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().ok()?);
        if fnv64(body) != stored {
            return None;
        }
        let mut r = Reader::new(body);
        if r.bytes_raw(MAGIC.len()).ok()? != MAGIC {
            return None;
        }
        if r.u32().ok()? != FORMAT_VERSION {
            return None;
        }
        let (source, config) = (r.u64().ok()?, r.u64().ok()?);
        if source != key.source || config != key.config {
            return None;
        }
        let n = r.u32().ok()? as usize;
        // Cap to the remaining bytes: a section needs >= 8 bytes of
        // framing, so any n that passes this check is honest.
        if n > r.remaining() / 8 {
            return None;
        }
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str().ok()?;
            let payload = r.bytes().ok()?.to_vec();
            sections.push((name, payload));
        }
        if !r.is_empty() {
            return None;
        }
        Some(Artifact { key, sections })
    }

    /// Removes the artifact stored under `key`, if present.
    pub fn remove(&self, key: ArtifactKey) {
        let _ = fs::remove_file(self.path_of(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tirart-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_and_restart() {
        let dir = tmpdir("roundtrip");
        let key = ArtifactKey::new(0xdead_beef, 42);
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.get(key).is_none());
            store
                .put(key, &[("module", b"payload"), ("disasm", b"; text")])
                .unwrap();
            let a = store.get(key).unwrap();
            assert_eq!(a.section("module"), Some(&b"payload"[..]));
            assert_eq!(a.section("disasm"), Some(&b"; text"[..]));
            assert_eq!(a.section("nope"), None);
        }
        // A fresh store over the same directory still serves the artifact
        // (process-restart survival).
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let a = store.get(key).unwrap();
        assert_eq!(a.section("module"), Some(&b"payload"[..]));
        assert_eq!(store.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_do_not_collide_across_config() {
        let dir = tmpdir("collide");
        let store = ArtifactStore::open(&dir).unwrap();
        let a = ArtifactKey::new(7, 1);
        let b = ArtifactKey::new(7, 2);
        store.put(a, &[("module", b"cpu")]).unwrap();
        store.put(b, &[("module", b"gpu")]).unwrap();
        assert_eq!(store.get(a).unwrap().section("module"), Some(&b"cpu"[..]));
        assert_eq!(store.get(b).unwrap().section("module"), Some(&b"gpu"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupted_files_read_as_misses() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = ArtifactKey::new(1, 1);
        store.put(key, &[("module", &vec![7u8; 256])]).unwrap();
        let path = store.path_of(key);
        let full = fs::read(&path).unwrap();

        // Truncation.
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.get(key).is_none());
        // Bit flip in the body.
        let mut flipped = full.clone();
        flipped[40] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(store.get(key).is_none());
        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(store.get(key).is_none());
        assert_eq!(store.stats().corrupt, 3);

        // Rewriting heals the entry.
        store.put(key, &[("module", &vec![7u8; 256])]).unwrap();
        assert!(store.get(key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_is_a_miss() {
        let dir = tmpdir("version");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = ArtifactKey::new(3, 3);
        store.put(key, &[("module", b"x")]).unwrap();
        // Patch the version field and fix the checksum up so only the
        // version check can reject it.
        let path = store.path_of(key);
        let bytes = fs::read(&path).unwrap();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[6] = 0xfe; // first byte of the little-endian version
        let sum = fnv64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        fs::write(&path, &body).unwrap();
        assert!(store.get(key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
