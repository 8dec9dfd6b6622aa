//! The oracle's budget, counted. The counters are process-wide, so this
//! binary holds a single test: no other test can ask the oracle while it
//! reads them.

use polyhedral::solve::{counters, rows_decide, rows_feasible, Feasibility, Row};

fn ineq(c: &[i128]) -> Row {
    Row { c: c.to_vec(), eq: false }
}

#[test]
fn a_spent_budget_is_counted_never_silent() {
    // Fourteen dense rows over five unknowns, coefficients of both
    // signs: no elimination is exact and few combinations are
    // parallel, so the real shadows outgrow `MAX_ROWS` before anything
    // is decided. The origin satisfies every row, so "feasible" is
    // also the truth; what matters is that the spent budget shows.
    let mut seed = 0x2545_f491_u64;
    let mut coeff = || {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((seed >> 33) % 9) as i128 - 4
    };
    let rows: Vec<Row> = (0..14)
        .map(|_| {
            let mut c: Vec<i128> = (0..5).map(|_| coeff()).collect();
            c.push(50);
            ineq(&c)
        })
        .collect();
    let before = counters();
    assert_eq!(rows_feasible(&rows, 5), Feasibility::Feasible);
    assert!(counters().exhausted > before.exhausted, "the probe no longer spends the budget");
    // The uncounted entry says so instead of guessing.
    let before = counters();
    assert_eq!(rows_decide(&rows, 5), None);
    assert_eq!(counters().since(before).solves, 0);
}
