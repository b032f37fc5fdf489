//! Persistent tuning cache.
//!
//! Tuning a convolution costs a full space sweep; results are stable
//! for a given (convolution, device) pair, so the framework caches
//! them — mirroring the recipe database of §3.1.2 at the tuning layer.
//! The cache serializes to JSON so deployments can ship pre-tuned
//! parameter sets per platform.
//!
//! ## Checked on-disk format
//!
//! A cache file a deployment ships around is exactly the kind of
//! input that rots: truncated copies, partial writes, edits by hand,
//! files from an older build. The on-disk envelope therefore carries
//! a format version and an FNV-1a checksum of the canonical entry
//! serialization, and every entry is sanity-checked on load
//! (finite positive time, plausible blocking parameters). The loaders
//! ([`TuningCache::from_json`], [`TuningCache::load`]) are strict: a
//! damaged or stale file is a [`CacheLoadError`], never parameters
//! that were not tuned. Nothing on the serving path loads a cache.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use wino_codegen::{PlanVariant, Unroll};
use wino_tensor::ConvDesc;

use crate::space::TuningPoint;
use crate::tuner::Evaluation;

/// Version tag of the on-disk envelope. Bump on any change to
/// [`CacheEntry`]'s semantics; older files are then refused rather
/// than deserialized into wrong meanings.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Serializable form of one cached tuning result.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct CacheEntry {
    /// Variant tag: `"direct"`, `"im2col"`, `"nonfused"`, `"fused"`.
    pub variant: String,
    /// Winograd output tile size (0 for baselines).
    pub m: usize,
    /// Unroll factor (0 encodes ∞).
    pub unroll: usize,
    /// Register blocking.
    pub mnt: usize,
    /// Thread blocking.
    pub mnb: usize,
    /// Modelled runtime in milliseconds.
    pub time_ms: f64,
}

impl CacheEntry {
    /// Converts an evaluation into its serializable form.
    pub fn from_evaluation(e: &Evaluation) -> Self {
        let (variant, m) = match e.point.variant {
            PlanVariant::Direct => ("direct", 0),
            PlanVariant::Im2col => ("im2col", 0),
            PlanVariant::WinogradNonFused { m } => ("nonfused", m),
            PlanVariant::WinogradFused { m } => ("fused", m),
        };
        CacheEntry {
            variant: variant.to_string(),
            m,
            unroll: match e.point.unroll {
                Unroll::Factor(f) => f,
                Unroll::Full => 0,
            },
            mnt: e.point.mnt,
            mnb: e.point.mnb,
            time_ms: e.time_ms,
        }
    }

    /// Whether the entry's numbers are plausible: finite positive
    /// time, non-zero blocking, tile size within the α ≤ 16 pruning
    /// bound. Entries failing this are dropped on load — a bit-flip
    /// that survives JSON parsing must not become a selected plan.
    pub fn is_sane(&self) -> bool {
        self.time_ms.is_finite()
            && self.time_ms > 0.0
            && (1..=64).contains(&self.mnt)
            && (1..=256).contains(&self.mnb)
            && self.m <= 16
            && self.unroll <= 64
    }

    /// Reconstructs the evaluation; `None` for unknown variant tags
    /// (forward compatibility).
    pub fn to_evaluation(&self) -> Option<Evaluation> {
        let variant = match self.variant.as_str() {
            "direct" => PlanVariant::Direct,
            "im2col" => PlanVariant::Im2col,
            "nonfused" => PlanVariant::WinogradNonFused { m: self.m },
            "fused" => PlanVariant::WinogradFused { m: self.m },
            _ => return None,
        };
        Some(Evaluation {
            point: TuningPoint {
                variant,
                unroll: if self.unroll == 0 {
                    Unroll::Full
                } else {
                    Unroll::Factor(self.unroll)
                },
                mnt: self.mnt,
                mnb: self.mnb,
            },
            time_ms: self.time_ms,
        })
    }
}

/// Stable string key for a (convolution, device) pair.
pub fn cache_key(desc: &ConvDesc, device_name: &str) -> String {
    format!(
        "{device_name}|k{}s{}p{}oc{}b{}h{}w{}c{}",
        desc.ksz, desc.stride, desc.pad, desc.out_ch, desc.batch, desc.in_h, desc.in_w, desc.in_ch
    )
}

/// Thread-safe tuning cache with JSON persistence.
#[derive(Default)]
pub struct TuningCache {
    entries: RwLock<BTreeMap<String, CacheEntry>>,
}

impl TuningCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached result.
    pub fn get(&self, desc: &ConvDesc, device_name: &str) -> Option<Evaluation> {
        self.entries
            .read()
            .get(&cache_key(desc, device_name))
            .and_then(CacheEntry::to_evaluation)
    }

    /// Stores a result.
    pub fn put(&self, desc: &ConvDesc, device_name: &str, eval: &Evaluation) {
        self.entries.write().insert(
            cache_key(desc, device_name),
            CacheEntry::from_evaluation(eval),
        );
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Serializes to the versioned, checksummed envelope (pretty
    /// JSON).
    ///
    /// # Errors
    /// Serialization failures (effectively unreachable for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let entries = self.entries.read();
        let file = CacheFile {
            version: CACHE_FORMAT_VERSION,
            checksum: entries_checksum(&entries)?,
            entries: entries.clone(),
        };
        serde_json::to_string_pretty(&file)
    }

    /// Parses and validates the versioned envelope.
    ///
    /// Individual entries that parse but fail [`CacheEntry::is_sane`]
    /// are dropped with a `probe::diag` note rather than failing the
    /// load: one damaged row should not discard a whole device's
    /// tuning results.
    ///
    /// # Errors
    /// [`CacheLoadError`] for malformed JSON, a version mismatch, or a
    /// checksum mismatch.
    pub fn from_json(json: &str) -> Result<Self, CacheLoadError> {
        let file: CacheFile = serde_json::from_str(json).map_err(CacheLoadError::Parse)?;
        if file.version != CACHE_FORMAT_VERSION {
            return Err(CacheLoadError::VersionMismatch {
                found: file.version,
                expected: CACHE_FORMAT_VERSION,
            });
        }
        let recomputed = entries_checksum(&file.entries).map_err(CacheLoadError::Parse)?;
        if recomputed != file.checksum {
            return Err(CacheLoadError::ChecksumMismatch {
                stored: file.checksum,
                recomputed,
            });
        }
        let mut entries = file.entries;
        entries.retain(|key, entry| {
            let sane = entry.is_sane();
            if !sane {
                wino_probe::diag(format!(
                    "tuning cache: dropping implausible entry {key:?}: {entry:?}"
                ));
            }
            sane
        });
        Ok(TuningCache {
            entries: RwLock::new(entries),
        })
    }

    /// Writes the cache to a file.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = self.to_json().map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Reads a cache from a file (strict: validation failures are
    /// errors).
    ///
    /// # Errors
    /// I/O or validation failures.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(io::Error::other)
    }
}

/// On-disk envelope: entries plus integrity metadata.
#[derive(Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    checksum: String,
    entries: BTreeMap<String, CacheEntry>,
}

/// FNV-1a over the canonical (compact, sorted — `BTreeMap` iteration
/// order) serialization of the entries, rendered as 16 hex digits.
fn entries_checksum(entries: &BTreeMap<String, CacheEntry>) -> Result<String, serde_json::Error> {
    let canonical = serde_json::to_string(entries)?;
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in canonical.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    Ok(format!("{hash:016x}"))
}

/// Why a strict cache load was refused.
#[derive(Debug)]
pub enum CacheLoadError {
    /// The JSON failed to parse (truncation, corruption, hand edits).
    Parse(serde_json::Error),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version tag found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The entries do not match the stored checksum (bit rot or
    /// partial modification that still parses as JSON).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: String,
        /// Checksum recomputed from the parsed entries.
        recomputed: String,
    },
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Parse(e) => write!(f, "parse error: {e}"),
            CacheLoadError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            CacheLoadError::ChecksumMismatch { stored, recomputed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored}, recomputed {recomputed}"
                )
            }
        }
    }
}

impl std::error::Error for CacheLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheLoadError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_eval() -> Evaluation {
        Evaluation {
            point: TuningPoint {
                variant: PlanVariant::WinogradFused { m: 4 },
                unroll: Unroll::Full,
                mnt: 4,
                mnb: 16,
            },
            time_ms: 0.123,
        }
    }

    fn sample_desc() -> ConvDesc {
        ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32)
    }

    #[test]
    fn put_get_round_trip() {
        let cache = TuningCache::new();
        assert!(cache.get(&sample_desc(), "dev").is_none());
        cache.put(&sample_desc(), "dev", &sample_eval());
        let got = cache.get(&sample_desc(), "dev").unwrap();
        assert_eq!(got.point, sample_eval().point);
        assert_eq!(got.time_ms, 0.123);
    }

    #[test]
    fn keys_distinguish_device_and_shape() {
        let cache = TuningCache::new();
        cache.put(&sample_desc(), "devA", &sample_eval());
        assert!(cache.get(&sample_desc(), "devB").is_none());
        let mut other = sample_desc();
        other.batch = 5;
        assert!(cache.get(&other, "devA").is_none());
    }

    #[test]
    fn json_round_trip() {
        let cache = TuningCache::new();
        cache.put(&sample_desc(), "dev", &sample_eval());
        let json = cache.to_json().unwrap();
        let loaded = TuningCache::from_json(&json).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded.get(&sample_desc(), "dev").unwrap().point,
            sample_eval().point
        );
    }

    #[test]
    fn file_round_trip() {
        let cache = TuningCache::new();
        cache.put(&sample_desc(), "dev", &sample_eval());
        let dir = std::env::temp_dir().join("wino_tuner_test_cache.json");
        cache.save(&dir).unwrap();
        let loaded = TuningCache::load(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn unroll_encoding() {
        let mut e = sample_eval();
        e.point.unroll = Unroll::Factor(6);
        let entry = CacheEntry::from_evaluation(&e);
        assert_eq!(entry.unroll, 6);
        assert_eq!(
            entry.to_evaluation().unwrap().point.unroll,
            Unroll::Factor(6)
        );
        e.point.unroll = Unroll::Full;
        let entry = CacheEntry::from_evaluation(&e);
        assert_eq!(entry.unroll, 0);
        assert_eq!(entry.to_evaluation().unwrap().point.unroll, Unroll::Full);
    }

    #[test]
    fn unknown_variant_tag_ignored() {
        let entry = CacheEntry {
            variant: "quantum".into(),
            m: 2,
            unroll: 1,
            mnt: 1,
            mnb: 8,
            time_ms: 1.0,
        };
        assert!(entry.to_evaluation().is_none());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            TuningCache::from_json("not json"),
            Err(CacheLoadError::Parse(_))
        ));
    }

    #[test]
    fn envelope_carries_version_and_checksum() {
        let cache = TuningCache::new();
        cache.put(&sample_desc(), "dev", &sample_eval());
        let json = cache.to_json().unwrap();
        assert!(json.contains("\"version\""));
        assert!(json.contains("\"checksum\""));
    }

    #[test]
    fn version_mismatch_rejected() {
        let entries: BTreeMap<String, CacheEntry> = BTreeMap::new();
        let file = CacheFile {
            version: CACHE_FORMAT_VERSION + 1,
            checksum: entries_checksum(&entries).unwrap(),
            entries,
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        assert!(matches!(
            TuningCache::from_json(&json),
            Err(CacheLoadError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn checksum_mismatch_rejected() {
        let cache = TuningCache::new();
        cache.put(&sample_desc(), "dev", &sample_eval());
        // Alter an entry value without touching the stored checksum.
        let json = cache
            .to_json()
            .unwrap()
            .replace("\"mnb\": 16", "\"mnb\": 17");
        assert!(matches!(
            TuningCache::from_json(&json),
            Err(CacheLoadError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn insane_entry_dropped_on_load() {
        let mut entries = BTreeMap::new();
        let mut bad = CacheEntry::from_evaluation(&sample_eval());
        bad.mnt = 0; // no kernel has zero register blocking
        entries.insert("bad".to_string(), bad);
        entries.insert(
            "good".to_string(),
            CacheEntry::from_evaluation(&sample_eval()),
        );
        let file = CacheFile {
            version: CACHE_FORMAT_VERSION,
            checksum: entries_checksum(&entries).unwrap(),
            entries,
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let cache = TuningCache::from_json(&json).unwrap();
        assert_eq!(cache.len(), 1, "insane entry should be dropped");
    }

    #[test]
    fn sanity_predicate() {
        let good = CacheEntry::from_evaluation(&sample_eval());
        assert!(good.is_sane());
        for mutate in [
            |e: &mut CacheEntry| e.time_ms = f64::NAN,
            |e: &mut CacheEntry| e.time_ms = -1.0,
            |e: &mut CacheEntry| e.mnt = 0,
            |e: &mut CacheEntry| e.mnb = 100_000,
            |e: &mut CacheEntry| e.m = 99,
        ] {
            let mut e = good.clone();
            mutate(&mut e);
            assert!(!e.is_sane(), "mutated entry should be insane: {e:?}");
        }
    }
}
