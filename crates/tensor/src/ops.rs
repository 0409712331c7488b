//! Small elementwise / rowwise helpers shared by the layer kernels.

use crate::tensor::Tensor;

/// SiLU (swish): `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Derivative of SiLU w.r.t. its input.
#[inline]
pub fn silu_grad(x: f32) -> f32 {
    let s = 1.0 / (1.0 + (-x).exp());
    s * (1.0 + x * (1.0 - s))
}

// ---- exp(x − m) row kernel ----

/// Lanes of the row kernel's sum: element `i` accumulates into lane
/// `i % 16` and the lanes are reduced in lane order, on every path.
const EXP_LANES: usize = 16;

/// Argument clamp window. At `EXP_LO` the result is already below the
/// normal range (flushed to zero anyway); at `EXP_HI` it has already
/// overflowed to `+inf`. Clamping keeps `n` in `[-127, 128]`, where the
/// portable path scales exactly.
const EXP_LO: f32 = -88.0;
const EXP_HI: f32 = 89.0;

/// Cody–Waite split of ln 2: `LN2_HI` has 9 significant bits, so
/// `n · LN2_HI` is exact for every `|n| ≤ 128`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp(r) ≈ 1 + r·(c1 + r·(c2 + … + r·c6))`, the degree-6 minimax fit on
/// `|r| ≤ ln2 / 2` (relative error 2.6e-9 before rounding), listed
/// `c6 … c1`. The constant term is exactly 1, so `exp(0) = 1` exactly.
const EXP_POLY: [f32; 6] =
    [1.406_142_3e-3, 8.379_059e-3, 4.166_477e-2, 1.666_636_5e-1, 5.000_000_6e-1, 1.0];

/// `row[i] = exp(row[i] − m)` in place; returns `Σ row[i]`.
///
/// The one `exp` under every O(rows × columns) softmax loop (attention
/// forward/backward, cross-entropy). Arithmetic, identical on both paths:
/// clamp to `[EXP_LO, EXP_HI]`, `n = round_ties_even(x · log2 e)`,
/// `r = (x − n·LN2_HI) − n·LN2_LO`, a Horner polynomial in explicit
/// `mul` + `add` (never FMA — the rule `micro_kernel16_avx512` follows),
/// an exact scale by `2ⁿ`, and a flush of every result below
/// `f32::MIN_POSITIVE` to `0.0`. So `exp(0) = 1`, `-inf` → `0`, NaN → NaN,
/// and the relative error against `f64::exp` stays within 2e-7 over the
/// normal range. The AVX-512 path and the portable path produce the same
/// bits, sum included, so results depend neither on the host's SIMD width
/// nor on the thread count. Dispatch is by runtime feature detection.
pub fn exp_sub_row(row: &mut [f32], m: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // Safety: avx512f detected above.
        return unsafe { exp_sub_row_avx512(row, m) };
    }
    exp_sub_row_portable(row, m)
}

/// Lane-ordered reduction shared by both paths.
#[inline(always)]
fn sum_lanes(lanes: &[f32; EXP_LANES]) -> f32 {
    lanes.iter().fold(0.0, |s, l| s + l)
}

/// `2ⁿ · y` for integer `n ∈ [-127, 128]` (NaN `n` leaves `y`), with
/// `_mm512_scalef_ps`'s single correctly rounded result: outside the
/// normal exponents one factor is exact and the second rounds once.
#[inline(always)]
fn scale_pow2(y: f32, n: f32) -> f32 {
    let pow2 = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
    match n as i32 {
        128.. => y * pow2(127) * 2.0,
        ..=-127 => y * pow2(-126) * 0.5,
        e => y * pow2(e),
    }
}

/// One lane of the kernel — the portable path's arithmetic.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    // Clamp with `vmaxps`/`vminps` operand order: NaN passes through.
    let x = if EXP_LO > x { EXP_LO } else { x };
    let x = if EXP_HI < x { EXP_HI } else { x };
    let n = (x * std::f32::consts::LOG2_E).round_ties_even();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = scale_pow2(p * r + 1.0, n);
    if y < f32::MIN_POSITIVE {
        0.0
    } else {
        y
    }
}

fn exp_sub_row_portable(row: &mut [f32], m: f32) -> f32 {
    let mut lanes = [0.0f32; EXP_LANES];
    for chunk in row.chunks_mut(EXP_LANES) {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *v = exp_lane(*v - m);
            *lane += *v;
        }
    }
    sum_lanes(&lanes)
}

/// The AVX-512 path of [`exp_sub_row`].
///
/// # Safety
/// The host must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn exp_sub_row_avx512(row: &mut [f32], m: f32) -> f32 {
    use std::arch::x86_64::*;
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn exp16(x: __m512) -> __m512 {
        let x = _mm512_max_ps(_mm512_set1_ps(EXP_LO), x);
        let x = _mm512_min_ps(_mm512_set1_ps(EXP_HI), x);
        let t = _mm512_mul_ps(x, _mm512_set1_ps(std::f32::consts::LOG2_E));
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
        let r = _mm512_sub_ps(
            _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(LN2_HI))),
            _mm512_mul_ps(n, _mm512_set1_ps(LN2_LO)),
        );
        let mut p = _mm512_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(c));
        }
        let one = _mm512_set1_ps(1.0);
        let y = _mm512_scalef_ps(_mm512_add_ps(_mm512_mul_ps(p, r), one), n);
        let tiny = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(y, _mm512_set1_ps(f32::MIN_POSITIVE));
        _mm512_mask_mov_ps(y, tiny, _mm512_setzero_ps())
    }
    let mv = _mm512_set1_ps(m);
    let mut acc = _mm512_setzero_ps();
    let (len, ptr) = (row.len(), row.as_mut_ptr());
    let mut i = 0;
    // Safety: every load/store covers `[i, i + 16)` with `i + 16 <= len`,
    // or the masked tail `[i, len)`.
    while i + EXP_LANES <= len {
        let y = exp16(_mm512_sub_ps(_mm512_loadu_ps(ptr.add(i)), mv));
        _mm512_storeu_ps(ptr.add(i), y);
        acc = _mm512_add_ps(acc, y);
        i += EXP_LANES;
    }
    if i < len {
        let k: __mmask16 = ((1u32 << (len - i)) - 1) as __mmask16;
        let y = exp16(_mm512_sub_ps(_mm512_maskz_loadu_ps(k, ptr.add(i)), mv));
        _mm512_mask_storeu_ps(ptr.add(i), k, y);
        acc = _mm512_mask_add_ps(acc, k, acc, y);
    }
    let mut lanes = [0.0f32; EXP_LANES];
    _mm512_storeu_ps(lanes.as_mut_ptr(), acc);
    sum_lanes(&lanes)
}

/// `out[r] = Σ_c a[r,c] * b[r,c]` — the `D = rowsum(dO ∘ O)` term of the
/// flash-attention backward.
pub fn rowwise_dot(a: &Tensor, b: &Tensor) -> Vec<f32> {
    assert_eq!(a.shape(), b.shape(), "rowwise_dot shape mismatch");
    (0..a.rows())
        .map(|r| a.row(r).iter().zip(b.row(r)).map(|(x, y)| x * y).sum())
        .collect()
}

/// Elementwise sum of two tensors into a pooled tensor.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = a.copy_pooled();
    out.add_assign(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silu_matches_finite_difference() {
        for &x in &[-3.0f32, -0.5, 0.0, 0.7, 2.5] {
            let eps = 1e-3;
            let fd = (silu(x + eps) - silu(x - eps)) / (2.0 * eps);
            assert!((fd - silu_grad(x)).abs() < 1e-3, "x={x}");
        }
    }

    /// Apply the kernel to a copy of `xs` at `m = 0`; returns the results
    /// and the sum.
    fn exp_of(xs: &[f32], kernel: fn(&mut [f32], f32) -> f32) -> (Vec<f32>, f32) {
        let mut row = xs.to_vec();
        let sum = kernel(&mut row, 0.0);
        (row, sum)
    }

    fn sweep(lo: f32, hi: f32, n: usize) -> Vec<f32> {
        (0..=n).map(|i| lo + (hi - lo) * (i as f32 / n as f32)).collect()
    }

    #[test]
    fn exp_relative_error_within_2e7_over_the_normal_range() {
        let xs = sweep(-87.3, 88.7, 1 << 20);
        // Dense sweep across the range-reduction boundaries near zero.
        let near = sweep(-4.0, 4.0, 1 << 18);
        for kernel in [exp_sub_row as fn(&mut [f32], f32) -> f32, exp_sub_row_portable] {
            for xs in [&xs, &near] {
                let (got, _) = exp_of(xs, kernel);
                for (&x, &y) in xs.iter().zip(&got) {
                    let want = (x as f64).exp();
                    let rel = ((y as f64 - want) / want).abs();
                    assert!(rel <= 2e-7, "exp({x}) = {y}, want {want}, rel {rel:e}");
                }
            }
        }
    }

    #[test]
    fn exp_of_zero_is_exactly_one() {
        let mut row = vec![3.5f32; 37];
        assert_eq!(exp_sub_row(&mut row, 3.5), 37.0);
        assert!(row.iter().all(|&y| y == 1.0));
    }

    #[test]
    fn exp_flushes_below_the_normal_range_and_keeps_nan_and_inf() {
        let low = [f32::NEG_INFINITY, f32::MIN, -1e30, -104.0, -88.0, -87.34, -87.337];
        let (got, sum) = exp_of(&low, exp_sub_row);
        assert!(got.iter().all(|y| y.to_bits() == 0), "{got:?}");
        assert_eq!(sum.to_bits(), 0);
        // Every result near the edge is either flushed or normal.
        let (edge, _) = exp_of(&sweep(-87.5, -87.0, 1 << 16), exp_sub_row);
        assert!(edge.iter().all(|&y| y == 0.0 || y.is_normal()));
        let (got, sum) = exp_of(&[1.0, f32::NAN, 2.0], exp_sub_row);
        assert!(got[1].is_nan() && sum.is_nan());
        assert_eq!(got[0], exp_sub_row(&mut [1.0], 0.0));
        let (got, _) = exp_of(&[88.8, 1e30, f32::INFINITY], exp_sub_row);
        assert!(got.iter().all(|&y| y == f32::INFINITY));
    }

    /// The AVX-512 path and the portable path agree bit for bit — values
    /// and sum — on every length 0..=70 (full vectors plus every tail).
    #[test]
    fn exp_paths_are_bit_identical_on_ragged_rows() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let specials = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, -87.4, 88.72, 0.0];
            let mut state = 0x2545_f491_u32;
            for len in 0..=70usize {
                let xs: Vec<f32> = (0..len)
                    .map(|i| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        if i % 23 == 22 {
                            specials[(state >> 28) as usize % specials.len()]
                        } else {
                            (state >> 8) as f32 / (1u32 << 24) as f32 * 180.0 - 92.0
                        }
                    })
                    .collect();
                for m in [0.0f32, -3.25, 41.0] {
                    let (mut a, mut b) = (xs.clone(), xs.clone());
                    // Safety: avx512f detected above.
                    let sa = unsafe { exp_sub_row_avx512(&mut a, m) };
                    let sb = exp_sub_row_portable(&mut b, m);
                    assert_eq!(sa.to_bits(), sb.to_bits(), "sum, len {len}, m {m}");
                    for (i, (ya, yb)) in a.iter().zip(&b).enumerate() {
                        assert_eq!(ya.to_bits(), yb.to_bits(), "len {len}, m {m}, i {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rowwise_dot_simple() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 2, vec![5., 6., 7., 8.]);
        assert_eq!(rowwise_dot(&a, &b), vec![17., 53.]);
    }
}
