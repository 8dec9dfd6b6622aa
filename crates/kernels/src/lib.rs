#![warn(missing_docs)]

//! `kernels` — every benchmark of the paper's evaluation (§VI), each in
//! all the variants the figures compare.
//!
//! | Module | Paper benchmarks | Figures |
//! |---|---|---|
//! | [`sgemm`] | generalized matrix multiplication | Fig. 1 (CPU + GPU), Fig. 5 |
//! | [`dnn`] | Conv, VGG block | Fig. 5 |
//! | [`algebra`] | HPCG kernels, Baryon contraction | Fig. 5 |
//! | [`image`] | edgeDetector, cvtColor, conv2D, warpAffine, gaussian, nb, ticket #2373 | Fig. 6 (all three architectures), Fig. 7 |
//!
//! Every variant lowers to the shared `loopvm`/`gpusim`/`mpisim`
//! substrates, so the *relative* numbers the figures report are produced
//! by the schedules alone. Inputs are filled deterministically
//! ([`fill_buffer`], a seeded splitmix64 stream), and every scheduled
//! variant is checked against a naive reference in the test suite.

pub mod algebra;
pub mod dnn;
pub mod image;
pub mod image_dist;
pub mod image_gpu;
pub mod sgemm;

use loopvm::{BufId, Machine, Program, RunStats};
use std::time::{Duration, Instant};

/// A compiled CPU benchmark variant ready to execute.
pub struct Prepared {
    /// Human-readable variant name (e.g. `"Tiramisu"`, `"Intel MKL"`).
    pub name: String,
    /// The VM program.
    pub program: Program,
    /// Buffers to fill with deterministic data before running.
    pub inputs: Vec<BufId>,
    /// The buffer holding the result (for checksums/correctness).
    pub output: BufId,
}

impl Prepared {
    /// Creates a machine with deterministically-filled inputs.
    pub fn machine(&self) -> Machine {
        let mut m = Machine::new(&self.program);
        for (k, b) in self.inputs.iter().enumerate() {
            fill_buffer(m.buffer_mut(*b), 0x5EED + k as u64);
        }
        m
    }

    /// Runs under the cost model, returning modeled statistics.
    ///
    /// # Errors
    ///
    /// VM runtime errors.
    pub fn run_modeled(&self) -> loopvm::Result<RunStats> {
        let mut m = self.machine();
        m.run_with_stats(&self.program)
    }

    /// Runs for wall-clock time (no stats overhead).
    ///
    /// # Errors
    ///
    /// VM runtime errors.
    pub fn run_wall(&self) -> loopvm::Result<(Duration, Vec<f32>)> {
        let mut m = self.machine();
        let t = Instant::now();
        m.run(&self.program)?;
        let el = t.elapsed();
        Ok((el, m.buffer(self.output).to_vec()))
    }

    /// Runs and returns the output buffer (for correctness checks).
    ///
    /// # Errors
    ///
    /// VM runtime errors.
    pub fn run_output(&self) -> loopvm::Result<Vec<f32>> {
        Ok(self.run_wall()?.1)
    }
}

/// Fills a buffer with reproducible pseudo-random values in `[0, 1)`: a
/// splitmix64 stream whose seed is pre-mixed (and one draw discarded) so
/// small seeds diverge at once, 24 high bits per value.
pub fn fill_buffer(buf: &mut [f32], seed: u64) {
    let mut state = seed ^ 0x5DEE_CE66_D1CE_B00B;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    next();
    for v in buf.iter_mut() {
        *v = (next() >> 40) as f32 / (1u32 << 24) as f32;
    }
}

/// Asserts two float slices agree within `tol` (helper for variant
/// cross-checks).
///
/// # Panics
///
/// Panics with the first mismatching index on disagreement.
pub fn assert_close(got: &[f32], expect: &[f32], tol: f32) {
    assert_eq!(got.len(), expect.len(), "length mismatch");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g - e).abs() <= tol * (1.0 + e.abs()),
            "mismatch at {i}: got {g}, expected {e}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::fill_buffer;

    /// The input stream is part of every figure's data: modeled cycles do
    /// not depend on values and exec references are built from the same
    /// inputs, so nothing else would notice a changed stream.
    #[test]
    fn fill_buffer_stream_is_pinned() {
        let want: [(u64, [u32; 8]); 3] = [
            (
                0,
                [
                    0x3F0DB5D0, 0x3F754F75, 0x3E20B5E0, 0x3F0C70D9, 0x3F404631, 0x3EAE0E1A,
                    0x3E0E4AF0, 0x3F669F1C,
                ],
            ),
            (
                1,
                [
                    0x3F3E858F, 0x3F64BCED, 0x3DD646D0, 0x3DD9C1A0, 0x3F1AA6AE, 0x3F073553,
                    0x3ED69A22, 0x3F703529,
                ],
            ),
            (
                42,
                [
                    0x3F655096, 0x3F67E827, 0x3F2E8F59, 0x3E85626E, 0x3EF1709C, 0x3EF2B41E,
                    0x3F5B65FE, 0x3F0D5F0E,
                ],
            ),
        ];
        for (seed, bits) in want {
            let mut buf = [0f32; 8];
            fill_buffer(&mut buf, seed);
            assert_eq!(buf.map(f32::to_bits), bits, "seed {seed}");
        }
    }
}
