//! The perf-regression gate behind `figures -- check`.
//!
//! The deterministic sections of the committed `BENCH_figures.json`
//! (modeled cycles, instruction counts, cache event counts) are
//! recomputed fresh and compared exactly (to float-formatting
//! precision). Any drift is a real behavior change — a scheduling,
//! cost-model, or executor regression — and fails the gate outright.
//!
//! Wall-clock regressions are not this gate's job: `benchmark/`
//! re-measures the same paths per PR in parent/change pairs against the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;

/// Relative tolerance for "equal" deterministic numbers: both sides are
/// `{:.6}`-formatted doubles, so anything beyond rounding is real drift.
const DET_REL_TOL: f64 = 1e-9;

/// Deep-compares two parsed snapshots. Returns one message per
/// difference, each naming the JSON path, so a failed gate says exactly
/// which figure drifted.
#[must_use]
pub fn compare_deterministic(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    match (committed.as_obj(), fresh.as_obj()) {
        (Some(c), Some(f)) => {
            for (k, cv) in c {
                match fresh.get(k) {
                    Some(fv) => diff_value(cv, fv, k, &mut out),
                    None => out.push(format!("`{k}`: present in committed, missing fresh")),
                }
            }
            for (k, _) in f {
                if committed.get(k).is_none() {
                    out.push(format!(
                        "`{k}`: new section not in committed snapshot (regenerate with `figures -- all`)"
                    ));
                }
            }
        }
        _ => out.push("snapshot root is not an object".to_string()),
    }
    out
}

fn num_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= DET_REL_TOL * a.abs().max(b.abs())
}

fn diff_value(c: &Json, f: &Json, path: &str, out: &mut Vec<String>) {
    match (c, f) {
        (Json::Num(a), Json::Num(b)) => {
            if !num_eq(*a, *b) {
                out.push(format!("`{path}`: committed {a} vs fresh {b}"));
            }
        }
        (Json::Obj(cm), Json::Obj(_)) => {
            for (k, cv) in cm {
                let p = format!("{path}.{k}");
                match f.get(k) {
                    Some(fv) => diff_value(cv, fv, &p, out),
                    None => out.push(format!("`{p}`: missing in fresh run")),
                }
            }
            for (k, _) in f.as_obj().unwrap_or(&[]) {
                if c.get(k).is_none() {
                    out.push(format!("`{path}.{k}`: new member not in committed snapshot"));
                }
            }
        }
        (Json::Arr(ca), Json::Arr(fa)) => {
            if ca.len() != fa.len() {
                out.push(format!(
                    "`{path}`: length {} vs {} in fresh run",
                    ca.len(),
                    fa.len()
                ));
                return;
            }
            for (i, (cv, fv)) in ca.iter().zip(fa).enumerate() {
                diff_value(cv, fv, &format!("{path}[{i}]"), out);
            }
        }
        _ => {
            if c != f {
                out.push(format!("`{path}`: committed {c:?} vs fresh {f:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn identical_snapshots_pass() {
        let j = parse(r#"{"a": {"x": 1.5}, "b": [1, 2]}"#).unwrap();
        assert!(compare_deterministic(&j, &j).is_empty());
    }

    #[test]
    fn drifted_number_names_its_path() {
        let c = parse(r#"{"a": {"x": 1.5}}"#).unwrap();
        let f = parse(r#"{"a": {"x": 2.5}}"#).unwrap();
        let d = compare_deterministic(&c, &f);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("`a.x`"), "{d:?}");
    }

    #[test]
    fn missing_and_extra_members_are_reported() {
        let c = parse(r#"{"a": {"x": 1, "y": 2}}"#).unwrap();
        let f = parse(r#"{"a": {"x": 1, "z": 3}}"#).unwrap();
        let d = compare_deterministic(&c, &f);
        assert!(d.iter().any(|m| m.contains("`a.y`")), "{d:?}");
        assert!(d.iter().any(|m| m.contains("`a.z`")), "{d:?}");
    }
}
