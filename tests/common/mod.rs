//! Shared by the integration tests; each binary uses part of it.
#![allow(dead_code)]

use std::sync::{Mutex, PoisonError};

/// Cases per randomized property: `TIRAMISU_DIFF_CASES`, else 256. CI
/// pins the variable, so every suite that takes its count from here is
/// raised (or, under a tight timeout, shrunk) together.
pub fn diff_cases() -> u32 {
    std::env::var("TIRAMISU_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Runs `f`, which provokes a flight-recorder dump on purpose, with dumps
/// sent to a directory of its own, and asserts that it wrote one `reason`
/// dump. The dump directory is process-wide, so calls in one test binary
/// take turns. A suite run under `TIRAMISU_DUMP_DIR` then finds there
/// only the dumps of failures no test asked for.
pub fn dumps_once<R>(reason: &str, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("tiramisu-dumps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::flight::set_dump_dir(Some(Some(dir.clone())));
    let out = f();
    telemetry::flight::set_dump_dir(None);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .map(|d| d.filter_map(|e| e.ok()?.file_name().into_string().ok()).collect())
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(names.len(), 1, "{names:?}");
    assert!(names[0].starts_with(&format!("tiramisu-dump-{reason}-")), "{names:?}");
    out
}
