//! Regression tests for the strict cache loader: an intact file
//! round-trips, and a file another format version wrote is refused,
//! never read into today's meanings.

use std::path::PathBuf;

use wino_codegen::{PlanVariant, Unroll};
use wino_tensor::ConvDesc;
use wino_tuner::{CacheLoadError, Evaluation, TuningCache, TuningPoint, CACHE_FORMAT_VERSION};

fn sample_desc() -> ConvDesc {
    ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32)
}

fn populated_cache() -> TuningCache {
    let cache = TuningCache::new();
    cache.put(
        &sample_desc(),
        "dev",
        &Evaluation {
            point: TuningPoint {
                variant: PlanVariant::WinogradFused { m: 4 },
                unroll: Unroll::Full,
                mnt: 4,
                mnb: 16,
            },
            time_ms: 0.123,
        },
    );
    cache
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wino_cache_hardening_{name}.json"))
}

#[test]
fn intact_file_round_trips() {
    let path = temp_path("intact");
    populated_cache().save(&path).unwrap();
    let loaded = TuningCache::load(&path).unwrap();
    assert_eq!(loaded.len(), 1);
    assert!(loaded.get(&sample_desc(), "dev").is_some());
    let _ = std::fs::remove_file(&path);
}

/// A cache file as the previous format version wrote it (`examples/autotune`
/// at version 2, whose entries carried a `threads` field).
const VERSION_2_FILE: &str = r#"{
  "version": 2,
  "checksum": "b612e518b95a1edc",
  "entries": {
    "AMD Radeon RX 580|k3s1p1oc256b1h14w14c128": {
      "variant": "fused",
      "m": 2,
      "unroll": 1,
      "mnt": 4,
      "mnb": 32,
      "threads": 1,
      "time_ms": 0.06338
    },
    "ARM Mali-G71 MP8|k3s1p1oc256b1h14w14c128": {
      "variant": "fused",
      "m": 2,
      "unroll": 1,
      "mnt": 4,
      "mnb": 8,
      "threads": 1,
      "time_ms": 1.1340363636363635
    },
    "NVIDIA GTX 1080 Ti|k3s1p1oc256b1h14w14c128": {
      "variant": "fused",
      "m": 2,
      "unroll": 1,
      "mnt": 8,
      "mnb": 32,
      "threads": 1,
      "time_ms": 0.03108396694214876
    }
  }
}"#;

#[test]
fn previous_version_file_is_refused() {
    match TuningCache::from_json(VERSION_2_FILE) {
        Err(CacheLoadError::VersionMismatch { found, expected }) => {
            assert_eq!((found, expected), (2, CACHE_FORMAT_VERSION));
        }
        Err(other) => panic!("expected a version mismatch, got {other}"),
        Ok(_) => panic!("a version-2 file must not load"),
    }
}
