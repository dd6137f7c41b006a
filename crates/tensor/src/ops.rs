//! Numerical operations used by the transformer simulator: softmax,
//! RMS normalisation and activation functions.

/// Numerically stable softmax over a slice, in place.
///
/// An empty slice is a no-op. All-`-inf` inputs produce a uniform
/// distribution to avoid NaN propagation.
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::ops::softmax_in_place;
/// let mut v = vec![1.0_f32, 2.0, 3.0];
/// softmax_in_place(&mut v);
/// assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(v[2] > v[1] && v[1] > v[0]);
/// ```
pub fn softmax_in_place(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        let uniform = 1.0 / v.len() as f32;
        v.iter_mut().for_each(|x| *x = uniform);
        return;
    }
    let mut sum = 0.0f32;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Softmax returning a new vector; see [`softmax_in_place`].
pub fn softmax(v: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Scaled-dot-product attention weights: `softmax(q·Kᵀ / sqrt(d))`.
///
/// `keys` is an iterator of key vectors; `q.len()` must equal every key's
/// length. The scale is `1/sqrt(q.len())` as in the paper's formulation.
pub fn attention_weights<'a, I>(q: &[f32], keys: I) -> Vec<f32>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let scale = 1.0 / (q.len() as f32).sqrt();
    let mut logits: Vec<f32> = keys
        .into_iter()
        .map(|k| crate::vector::dot(q, k) * scale)
        .collect();
    softmax_in_place(&mut logits);
    logits
}

/// RMS normalisation (`x / rms(x) * weight`), the normalisation used by
/// Llama-family models.
///
/// # Panics
///
/// Panics if `x.len() != weight.len()`.
pub fn rms_norm(x: &[f32], weight: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(x.len(), weight.len(), "rms_norm: length mismatch");
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len().max(1) as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    x.iter().zip(weight).map(|(v, w)| v * inv * w).collect()
}

/// SiLU (sigmoid-weighted linear unit) activation, `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// GELU activation (tanh approximation).
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((0.797_884_6) * (x + 0.044_715 * x * x * x)).tanh())
}

/// Weighted sum of value vectors: `Σ w_i · v_i`.
///
/// Used to compute the attention output `softmax(qKᵀ/√d)·V` once the weights
/// have been computed. Returns a zero vector of length `dim` when there are
/// no values.
///
/// # Panics
///
/// Panics if a value vector's length differs from `dim` or the number of
/// weights differs from the number of values.
pub fn weighted_sum<'a, I>(weights: &[f32], values: I, dim: usize) -> Vec<f32>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut out = vec![0.0f32; dim];
    let mut n = 0usize;
    for (w, v) in weights.iter().zip(values) {
        assert_eq!(v.len(), dim, "weighted_sum: value dim mismatch");
        crate::vector::axpy(&mut out, *w, v);
        n += 1;
    }
    assert_eq!(
        n,
        weights.len(),
        "weighted_sum: weight/value count mismatch"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one() {
        let v = softmax(&[0.5, -1.0, 3.0, 2.0]);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_of_all_neg_infinity_is_uniform() {
        let v = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_eq!(v, vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_weights_prefer_aligned_key() {
        let q = [1.0, 0.0];
        let keys: Vec<Vec<f32>> = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]];
        let w = attention_weights(&q, keys.iter().map(|k| k.as_slice()));
        assert_eq!(w.len(), 3);
        assert!(w[0] > w[1] && w[1] > w[2]);
    }

    #[test]
    fn rms_norm_unit_weight_has_unit_rms() {
        let x = vec![1.0f32, 2.0, 3.0, 4.0];
        let w = vec![1.0f32; 4];
        let y = rms_norm(&x, &w, 1e-6);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn silu_and_gelu_are_monotone_near_zero() {
        assert!(silu(1.0) > silu(0.0));
        assert!(gelu(1.0) > gelu(0.0));
        assert!(silu(0.0).abs() < 1e-6);
        assert!(gelu(0.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_known_value() {
        let values: Vec<Vec<f32>> = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let out = weighted_sum(&[0.25, 0.75], values.iter().map(|v| v.as_slice()), 2);
        assert_eq!(out, vec![0.25, 0.75]);
    }

    #[test]
    fn weighted_sum_of_nothing_is_zero() {
        let out = weighted_sum(&[], std::iter::empty::<&[f32]>(), 3);
        assert_eq!(out, vec![0.0, 0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn softmax_outputs_are_probabilities(v in proptest::collection::vec(-20.0f32..20.0, 1..64)) {
            let s = softmax(&v);
            let sum: f32 = s.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for x in s {
                prop_assert!((0.0..=1.0 + 1e-6).contains(&x));
            }
        }

        #[test]
        fn softmax_preserves_ordering(v in proptest::collection::vec(-20.0f32..20.0, 2..32)) {
            let s = softmax(&v);
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if v[i] > v[j] {
                        prop_assert!(s[i] >= s[j] - 1e-6);
                    }
                }
            }
        }

        #[test]
        fn attention_weights_sum_to_one(
            q in proptest::collection::vec(-3.0f32..3.0, 4),
            keys in proptest::collection::vec(proptest::collection::vec(-3.0f32..3.0, 4), 1..16),
        ) {
            let w = attention_weights(&q, keys.iter().map(|k| k.as_slice()));
            prop_assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }
}
