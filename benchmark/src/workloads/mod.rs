//! The five workloads. Each stresses different layers; see the table in
//! `benchmark/README.md` for why each exists.

mod exec;
mod figures;
mod replay;
mod sweep;

use crate::harness::{run_workload, Ctx, Outcome, Workload};

/// Runs the named workload under the shared measurement loop.
///
/// # Panics
///
/// On a name that is not one of `report::WORKLOADS` (checked at parse time).
pub fn run(name: &str, ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    match name {
        exec::ExecSgemm::NAME => run_workload::<exec::ExecSgemm>(ctx, seconds, traced),
        exec::ExecImage::NAME => run_workload::<exec::ExecImage>(ctx, seconds, traced),
        sweep::CompileSweep::NAME => run_workload::<sweep::CompileSweep>(ctx, seconds, traced),
        replay::ServiceReplay::NAME => run_workload::<replay::ServiceReplay>(ctx, seconds, traced),
        figures::FiguresModeled::NAME => {
            run_workload::<figures::FiguresModeled>(ctx, seconds, traced)
        }
        other => panic!("unknown workload {other}"),
    }
}
