//! The native roofline of Figure 1's sgemm schedule: the loop order and
//! packed panel of [`kernels::sgemm::tiramisu_best`] written in plain Rust
//! and compiled by rustc, with no FMA. It is what the JIT's code for that
//! schedule could at best become on one thread, so the ratio of the two
//! times measures what the native tier leaves on the table.

/// `C = Cin + A·B` for `n × n` row-major matrices, in `tiramisu_best(n,
/// tile)`'s order: per `tile`-wide panel of columns `j0`, the panel of `B`
/// is packed into `packed[k][j1]`, then for each `tile`-high block of rows
/// `i0`, `for k { for i1 { for j1 { c[i][j] += a[i][k] ·
/// packed[k][j1] } } }`. Every element of `C` adds its products in
/// increasing `k`, each rounded by its own multiply and add, as every tier
/// of the VM does, so the result is bit-identical to theirs.
///
/// # Panics
///
/// When a slice is not `n × n` long or `tile` is 0.
pub fn sgemm(n: usize, tile: usize, a: &[f32], b: &[f32], cin: &[f32]) -> Vec<f32> {
    assert!(a.len() == n * n && b.len() == n * n && cin.len() == n * n && tile > 0);
    let mut c = cin.to_vec();
    let mut packed = vec![0f32; n * tile];
    for j0 in (0..n).step_by(tile) {
        let w = tile.min(n - j0);
        for k in 0..n {
            packed[k * tile..][..w].copy_from_slice(&b[k * n + j0..][..w]);
        }
        for i0 in (0..n).step_by(tile) {
            for k in 0..n {
                let panel = &packed[k * tile..][..w];
                for i in i0..(i0 + tile).min(n) {
                    let aik = a[i * n + k];
                    for (cij, &bkj) in c[i * n + j0..][..w].iter_mut().zip(panel) {
                        *cij += aik * bkj;
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    /// The JIT's sgemm at n = 64, tile 32 and the roofline agree bit for
    /// bit on the same inputs.
    #[test]
    fn the_jit_matches_the_roofline_bit_for_bit() {
        let (n, tile) = (64, 32);
        let prep = kernels::sgemm::tiramisu_best(n as i64, tile as i64).unwrap();
        let mut m = prep.machine();
        m.set_threads(1);
        let ins: Vec<Vec<f32>> = prep.inputs.iter().map(|&b| m.buffer(b).to_vec()).collect();
        m.run(&prep.program).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = super::sgemm(n, tile, &ins[0], &ins[1], &ins[2]);
        assert_eq!(bits(m.buffer(prep.output)), bits(&want));
    }

    /// Partial panels and blocks (`n` not a multiple of `tile`) still add
    /// every product once, in increasing `k`.
    #[test]
    fn partial_tiles_match_the_textbook_order() {
        let n = 13;
        let fill = |s: u64| {
            let mut v = vec![0f32; n * n];
            kernels::fill_buffer(&mut v, s);
            v
        };
        let (a, b, cin) = (fill(1), fill(2), fill(3));
        let mut want = cin.clone();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    want[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        assert_eq!(super::sgemm(n, 4, &a, &b, &cin), want);
    }
}
