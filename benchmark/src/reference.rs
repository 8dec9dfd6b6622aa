//! Reference outputs that do not come from the compiler: plain-Rust
//! implementations of the seven image kernels (and the few other kernels
//! `kernels` ships no plain reference for), written from the kernels'
//! mathematical definitions. Computed once in set-up; every request's
//! output is compared against them with [`close`].

/// `kernels::assert_close`'s tolerance rule as a predicate: every element
/// within `tol * (1 + |expected|)`.
pub fn close(got: &[f32], expect: &[f32], tol: f32) -> bool {
    got.len() == expect.len()
        && got
            .iter()
            .zip(expect)
            .all(|(g, e)| (g - e).abs() <= tol * (1.0 + e.abs()))
}

/// Deterministic inputs for a kernel: buffer `k` is filled from
/// `seed + k`, the way `kernels::Prepared::machine` fills from `0x5EED + k`.
pub fn inputs(seed: u64, sizes: &[usize]) -> Vec<Vec<f32>> {
    sizes
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let mut v = vec![0f32; n];
            kernels::fill_buffer(&mut v, seed.wrapping_add(k as u64));
            v
        })
        .collect()
}

/// The seed `kernels` itself fills inputs with.
pub const KERNELS_SEED: u64 = 0x5EED;

/// Element counts of a kernel's input buffers, in the order the
/// `kernels::image` variants list them.
pub fn image_input_sizes(kernel: &str, h: usize, w: usize) -> Vec<usize> {
    match kernel {
        "edgeDetector" | "warpAffine" | "nb" => vec![h * w],
        "cvtColor" => vec![h * w * 3],
        "conv2D" => vec![h * w, 9],
        "gaussian" => vec![h * w, 5],
        "ticket #2373" => vec![h * h],
        other => panic!("unknown image kernel {other}"),
    }
}

/// Plain-Rust result of a Figure 6 image kernel on `ins`.
pub fn image(kernel: &str, h: usize, w: usize, ins: &[Vec<f32>]) -> Vec<f32> {
    let img = &ins[0];
    match kernel {
        "edgeDetector" => edge_detector(h, w, img),
        "cvtColor" => (0..h * w)
            .map(|p| 0.299 * img[p * 3] + 0.587 * img[p * 3 + 1] + 0.114 * img[p * 3 + 2])
            .collect(),
        "conv2D" => conv2d(h, w, img, &ins[1]),
        "warpAffine" => warp_affine(h, w, img),
        "gaussian" => gaussian(h, w, img, &ins[1]),
        "nb" => img
            .iter()
            .map(|&v| 0.5 * (((255.0 - v) + (1.5 * v).min(255.0)) / 2.0) + 0.5 * v)
            .collect(),
        "ticket #2373" => {
            let mut out = vec![0f32; h * h];
            for i in 0..h {
                for j in 0..=i {
                    out[i * h + j] = img[i * h + (i - j)] * 2.0;
                }
            }
            out
        }
        other => panic!("unknown image kernel {other}"),
    }
}

/// Ring blur `R`, then the Roberts filter written back into the image.
fn edge_detector(h: usize, w: usize, img: &[f32]) -> Vec<f32> {
    let at = |i: usize, j: usize| img[i * w + j];
    let mut r = vec![0f32; h * w];
    for i in 1..h - 2 {
        for j in 1..w - 2 {
            r[i * w + j] = (at(i - 1, j - 1)
                + at(i - 1, j)
                + at(i - 1, j + 1)
                + at(i, j - 1)
                + at(i, j + 1)
                + at(i + 1, j - 1)
                + at(i + 1, j)
                + at(i + 1, j + 1))
                / 8.0;
        }
    }
    let mut out = img.to_vec();
    for i in 1..h - 3 {
        for j in 2..w - 3 {
            out[i * w + j] = (r[i * w + j] - r[(i + 1) * w + j - 1]).abs()
                + (r[(i + 1) * w + j] - r[i * w + j - 1]).abs();
        }
    }
    out
}

fn conv2d(h: usize, w: usize, img: &[f32], k: &[f32]) -> Vec<f32> {
    let clamp = |v: i64, n: usize| v.clamp(0, n as i64 - 1) as usize;
    let mut out = vec![0f32; h * w];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0f32;
            for ky in -1i64..=1 {
                for kx in -1i64..=1 {
                    acc += img[clamp(y as i64 + ky, h) * w + clamp(x as i64 + kx, w)]
                        * k[((ky + 1) * 3 + kx + 1) as usize];
                }
            }
            out[y * w + x] = acc;
        }
    }
    out
}

/// Bilinear sampling at the affine-warped source coordinates.
fn warp_affine(h: usize, w: usize, img: &[f32]) -> Vec<f32> {
    let cy = |v: i64| v.clamp(0, h as i64 - 1) as usize;
    let cx = |v: i64| v.clamp(0, w as i64 - 1) as usize;
    let mut out = vec![0f32; h * w];
    for i in 0..h {
        for j in 0..w {
            let sy = 0.9f32 * i as f32 + 0.1f32 * j as f32;
            let sx = 0.8f32 * j as f32 + 0.05f32 * i as f32;
            let (y0, x0) = (sy as i64, sx as i64);
            let (fy, fx) = (sy - y0 as f32, sx - x0 as f32);
            let p = |dy: i64, dx: i64| img[cy(y0 + dy) * w + cx(x0 + dx)];
            out[i * w + j] = p(0, 0) * (1.0 - fy) * (1.0 - fx)
                + p(0, 1) * (1.0 - fy) * fx
                + p(1, 0) * fy * (1.0 - fx)
                + p(1, 1) * fy * fx;
        }
    }
    out
}

fn gaussian(h: usize, w: usize, img: &[f32], g: &[f32]) -> Vec<f32> {
    let wo = w - 4;
    let mut gx = vec![0f32; h * wo];
    for y in 0..h {
        for x in 0..wo {
            gx[y * wo + x] = (0..5).fold(0f32, |a, k| a + img[y * w + x + k] * g[k]);
        }
    }
    let mut gy = vec![0f32; (h - 4) * wo];
    for y in 0..h - 4 {
        for x in 0..wo {
            gy[y * wo + x] = (0..5).fold(0f32, |a, k| a + gx[(y + k) * wo + x] * g[k]);
        }
    }
    gy
}

/// `C = Cin + A * B` on `n x n` row-major matrices (`ins` = A, B, Cin).
pub fn sgemm(n: usize, ins: &[Vec<f32>]) -> Vec<f32> {
    let (a, b) = (&ins[0], &ins[1]);
    let mut out = ins[2].clone();
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            let (row, brow) = (&mut out[i * n..(i + 1) * n], &b[k * n..(k + 1) * n]);
            for (c, bkj) in row.iter_mut().zip(brow) {
                *c += aik * bkj;
            }
        }
    }
    out
}

/// The VGG block of `kernels::dnn::vgg`: conv1 over the padded input,
/// ReLU, conv2 (inputs filled with [`KERNELS_SEED`] like the kernel's).
pub fn vgg(s: kernels::dnn::ConvSize) -> Vec<f32> {
    let (bn, f, y, k) = (
        s.batch as usize,
        s.feat as usize,
        s.img as usize,
        s.k as usize,
    );
    let (yin, y1) = (y + 8, y + 2);
    let ins = inputs(
        KERNELS_SEED,
        &[bn * f * yin * yin, f * f * k * k, f * f * k * k],
    );
    let conv = |src: &[f32], sdim: usize, wt: &[f32], odim: usize, relu: bool| {
        let mut out = vec![0f32; bn * f * odim * odim];
        for b in 0..bn {
            for fo in 0..f {
                for yy in 0..odim {
                    for xx in 0..odim {
                        let mut acc = 0f32;
                        for c in 0..f {
                            for ky in 0..k {
                                for kx in 0..k {
                                    acc += src[((b * f + c) * sdim + yy + ky) * sdim + xx + kx]
                                        * wt[((fo * f + c) * k + ky) * k + kx];
                                }
                            }
                        }
                        out[((b * f + fo) * odim + yy) * odim + xx] =
                            if relu { acc.max(0.0) } else { acc };
                    }
                }
            }
        }
        out
    };
    let c1 = conv(&ins[0], yin, &ins[1], y1, true);
    conv(&c1, y1, &ins[2], y, false)
}

/// `w = alpha * x + beta * y`.
pub fn waxpby(n: usize, alpha: f32, beta: f32) -> Vec<f32> {
    let ins = inputs(KERNELS_SEED, &[n, n]);
    ins[0]
        .iter()
        .zip(&ins[1])
        .map(|(x, y)| alpha * x + beta * y)
        .collect()
}

/// `sum_i x[i] * y[i]`, accumulated left to right like the kernel.
pub fn dot(n: usize) -> Vec<f32> {
    let ins = inputs(KERNELS_SEED, &[n, n]);
    vec![ins[0].iter().zip(&ins[1]).fold(0f32, |a, (x, y)| a + x * y)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_follows_the_kernels_tolerance_rule() {
        assert!(close(&[1.0, 100.0], &[1.0001, 100.01], 1e-3));
        assert!(!close(&[1.0], &[1.01], 1e-3));
        assert!(!close(&[1.0], &[1.0, 2.0], 1e-3));
    }

    #[test]
    fn sgemm_matches_the_kernels_plain_reference() {
        let n = 24;
        let got = sgemm(n, &inputs(KERNELS_SEED, &[n * n; 3]));
        assert!(close(
            &got,
            &kernels::sgemm::reference_result(n as i64),
            1e-4
        ));
    }

    #[test]
    fn ticket_fills_the_lower_triangle_only() {
        let h = 8;
        let ins = inputs(1, &image_input_sizes("ticket #2373", h, 12));
        let out = image("ticket #2373", h, 12, &ins);
        assert_eq!(out[h + 3], 0.0);
        assert_eq!(out[3 * h + 1], ins[0][3 * h + 2] * 2.0);
    }

    #[test]
    fn inputs_depend_on_the_seed() {
        assert_eq!(inputs(5, &[16]), inputs(5, &[16]));
        assert_ne!(inputs(5, &[16]), inputs(6, &[16]));
    }
}
