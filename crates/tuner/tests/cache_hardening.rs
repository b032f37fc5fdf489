//! Regression tests for the hardened cache loader: damaged files must
//! degrade to a rebuild (empty cache + diagnostic), never unwrap or
//! serve corrupted parameters.

use std::path::PathBuf;

use wino_codegen::{PlanVariant, Unroll};
use wino_tensor::ConvDesc;
use wino_tuner::{Evaluation, TuningCache, TuningPoint};

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

/// `tuner.cache.rebuilt` is process-wide: the tests that rebuild take
/// turns, so the one that reads the counter sees its own rebuild only.
static REBUILDS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wino_cache_hardening_{name}.json"))
}

#[test]
fn intact_file_round_trips() {
    let path = temp_path("intact");
    populated_cache().save(&path).unwrap();
    let loaded = TuningCache::load_or_rebuild(&path);
    assert_eq!(loaded.len(), 1);
    assert!(loaded.get(&sample_desc(), "dev").is_some());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_an_empty_cache() {
    let path = temp_path("missing");
    let _ = std::fs::remove_file(&path);
    let loaded = TuningCache::load_or_rebuild(&path);
    assert!(loaded.is_empty());
}

#[test]
fn truncated_file_rebuilds() {
    let _serial = REBUILDS.lock().unwrap();
    let path = temp_path("truncated");
    populated_cache().save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let loaded = TuningCache::load_or_rebuild(&path);
    assert!(loaded.is_empty(), "truncated cache must rebuild empty");
    let diags = wino_probe::take_diagnostics();
    assert!(
        diags.iter().any(|d| d.contains("rebuilding")),
        "expected a rebuild diagnostic, got {diags:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_value_rebuilds() {
    let _serial = REBUILDS.lock().unwrap();
    let path = temp_path("bitflip");
    populated_cache().save(&path).unwrap();
    // Flip one payload bit inside an entry value: the JSON still
    // parses but the checksum no longer matches.
    let json = std::fs::read_to_string(&path).unwrap();
    let flipped = json.replace("\"mnb\": 16", "\"mnb\": 48");
    assert_ne!(json, flipped, "fixture must actually contain mnb: 16");
    std::fs::write(&path, flipped).unwrap();
    let loaded = TuningCache::load_or_rebuild(&path);
    assert!(loaded.is_empty(), "bit-flipped cache must rebuild empty");
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
fn previous_version_file_rebuilds() {
    let _serial = REBUILDS.lock().unwrap();
    let path = temp_path("stale");
    std::fs::write(&path, VERSION_2_FILE).unwrap();
    let rebuilt = wino_probe::counter("tuner.cache.rebuilt");
    let before = rebuilt.get();
    wino_probe::set_telemetry(true);
    let loaded = TuningCache::load_or_rebuild(&path);
    wino_probe::set_telemetry(false);
    assert!(loaded.is_empty(), "stale-version cache must rebuild empty");
    assert_eq!(rebuilt.get(), before + 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_cache_corruption_rebuilds() {
    let _scope = wino_guard::fault::scoped("cache:corrupt");
    let _serial = REBUILDS.lock().unwrap();
    let path = temp_path("injected");
    populated_cache().save(&path).unwrap();
    let loaded = TuningCache::load_or_rebuild(&path);
    assert!(
        loaded.is_empty(),
        "fault-corrupted cache must rebuild empty"
    );
    let _ = std::fs::remove_file(&path);
}
