#![warn(missing_docs)]

//! `artifacts` — a content-addressed on-disk store for compiled modules,
//! plus the binary wire primitives the module codecs are written against.
//!
//! The store is the persistence tier of the compile service
//! (`tiramisu::service`): each compiled module is encoded into one payload
//! and written to one file per [`ArtifactKey`], which survives process
//! restart. The serialization format is hand-rolled (the workspace is std
//! only), following the same policy as the hand-written JSON in
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
//! - **Versioned header + checksum.** Every file is a magic string, the
//!   [`FORMAT_VERSION`], the key, the payload, and an FNV-1a checksum of
//!   everything before it. A version bump, a truncated write, bit rot, or
//!   a file under the wrong name all surface as a *miss* (never an error,
//!   never a panic), and the next successful compile overwrites the stale
//!   file.

pub mod wire;

pub use wire::{Reader, WireError, Writer};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bumped whenever the on-disk layout or any module codec changes shape.
/// Old files then read back as misses and are overwritten on the next
/// compile — there is no migration machinery by design.
pub const FORMAT_VERSION: u32 = 4;

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

/// What every file stored under `key` starts with: the magic, the
/// format version, and the key's two halves.
fn header(key: ArtifactKey) -> Writer {
    let mut w = Writer::new();
    w.bytes_raw(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(key.source);
    w.u64(key.config);
    w
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
        Ok(ArtifactStore { dir, tmp_counter: AtomicU64::new(0) })
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

    /// Atomically writes `key`'s payload.
    ///
    /// The payload comes as a one-entry list, `&[("module", bytes)]`, the
    /// shape of the section list artifacts had before format 4; the
    /// benchmark package still calls it that way. The name is not stored.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a list of any other length; I/O errors writing
    /// or renaming the temp file. Callers treating the store as a cache
    /// can ignore the error (the artifact is then simply recompiled next
    /// time).
    pub fn put(&self, key: ArtifactKey, payload: &[(&str, &[u8])]) -> io::Result<()> {
        let [(_, payload)] = payload else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "an artifact holds exactly one payload",
            ));
        };
        let mut w = header(key);
        w.bytes_raw(payload);
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
        telemetry::instant("artifacts", "disk write");
        Ok(())
    }

    /// Reads, validates, and returns the payload stored under `key`.
    ///
    /// Returns `None` on a true miss *and* on any unusable file — wrong
    /// magic, stale [`FORMAT_VERSION`], checksum mismatch (truncation/bit
    /// rot), or a key that does not match the file's name. Corruption
    /// never surfaces as an error: the unusable file is deleted and the
    /// caller falls back to a clean compile, whose `put` writes it anew.
    pub fn get(&self, key: ArtifactKey) -> Option<Vec<u8>> {
        let mut bytes = fs::read(self.path_of(key)).ok()?;
        let head = header(key).into_vec();
        let body = bytes.len().saturating_sub(8);
        if body >= head.len()
            && bytes.starts_with(&head)
            && bytes[body..] == fnv64(&bytes[..body]).to_le_bytes()
        {
            telemetry::instant("artifacts", "disk hit");
            bytes.truncate(body);
            bytes.drain(..head.len());
            Some(bytes)
        } else {
            telemetry::instant("artifacts", "corrupt artifact");
            self.remove(key);
            None
        }
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
            store.put(key, &[("module", b"payload")]).unwrap();
            assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
            // The file is the header, the payload, and the checksum.
            let file = fs::read(store.path_of(key)).unwrap();
            assert_eq!(file.len(), header(key).into_vec().len() + b"payload".len() + 8);
            // An artifact is one payload: a section list is refused.
            let two = store.put(key, &[("module", b"a"), ("disasm", b"b")]);
            assert_eq!(two.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
        // A fresh store over the same directory still serves the artifact
        // (process-restart survival).
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
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
        assert_eq!(store.get(a).as_deref(), Some(&b"cpu"[..]));
        assert_eq!(store.get(b).as_deref(), Some(&b"gpu"[..]));
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

        // Truncation, down to less than a header.
        for cut in [full.len() / 2, 10, 0] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(store.get(key).is_none(), "cut at {cut}");
        }
        // Bit flip in the payload.
        let mut flipped = full.clone();
        flipped[40] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(store.get(key).is_none());
        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(store.get(key).is_none());
        // A whole, checksum-valid file under another key's name: the key
        // echo in the header rejects it.
        let other = ArtifactKey::new(1, 2);
        fs::write(store.path_of(other), &full).unwrap();
        assert!(store.get(other).is_none());

        // Rewriting heals the entry.
        store.put(key, &[("module", &vec![7u8; 256])]).unwrap();
        assert_eq!(store.get(key), Some(vec![7u8; 256]));
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

    /// Whole-file mutations: a stored artifact is flipped, truncated,
    /// extended or spliced on disk, `TIRAMISU_DIFF_CASES` times (else
    /// 256). `get` returns the original payload or `None`, never panics,
    /// and deletes every file it rejects.
    #[test]
    fn mutated_files_read_as_the_payload_or_a_miss() {
        let cases = std::env::var("TIRAMISU_DIFF_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256u32);
        // splitmix64: a fixed seed, so a failing case reproduces.
        let mut state = 0x7469_7261_6d69_7375_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        };
        let dir = tmpdir("mutate");
        let store = ArtifactStore::open(&dir).unwrap();
        for case in 0..cases {
            let key = ArtifactKey::new(next(usize::MAX) as u64, u64::from(case));
            let payload: Vec<u8> = (0..next(300)).map(|_| next(256) as u8).collect();
            store.put(key, &[("module", &payload)]).unwrap();
            let path = store.path_of(key);
            let mut file = fs::read(&path).unwrap();
            let (n, a, b) = (file.len(), next(file.len()), next(file.len()));
            let edit = match next(4) {
                0 => {
                    file[a] ^= 1 + next(255) as u8;
                    "flip"
                }
                1 => {
                    file.truncate(a);
                    "truncate"
                }
                2 => {
                    file.extend((0..1 + next(16)).map(|_| next(256) as u8));
                    "extend"
                }
                _ => {
                    let len = (1 + next(16)).min(n - a).min(n - b);
                    file.copy_within(b..b + len, a);
                    "splice"
                }
            };
            fs::write(&path, &file).unwrap();
            match store.get(key) {
                Some(got) => assert_eq!(got, payload, "case {case}: {edit} at {a}"),
                None => assert!(!path.exists(), "case {case}: rejected file kept ({edit})"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
