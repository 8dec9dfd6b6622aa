//! Shared by the randomized integration tests.

/// Cases per randomized property: `TIRAMISU_DIFF_CASES`, else 256. CI
/// pins the variable, so every suite that takes its count from here is
/// raised (or, under a tight timeout, shrunk) together.
pub fn diff_cases() -> u32 {
    std::env::var("TIRAMISU_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}
