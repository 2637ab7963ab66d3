//! Dense vector operations on `f64` slices.
//!
//! These free functions implement the handful of BLAS-level-1 primitives the
//! AMP iteration and the score bookkeeping need. All functions panic on
//! mismatched lengths — in this workspace a length mismatch is always a
//! programming error, never a data error.

/// Resets `buf` to exactly `len` copies of `value`, reusing its capacity.
///
/// The canonical workspace-buffer reset: `clear` + `resize` never shrinks
/// the allocation, so repeated decodes on same-shaped problems stay off
/// the allocator (shared by the greedy, BP and AMP workspaces).
pub fn resize_fill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// # Examples
///
/// ```
/// let x = [1.0, 2.0, 3.0];
/// let y = [4.0, 5.0, 6.0];
/// assert_eq!(npd_numerics::vector::dot(&x, &y), 32.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place `y ← y + alpha * x` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
///
/// Uses a scaled accumulation so intermediate squares cannot overflow for
/// inputs whose absolute values are representable.
///
/// # Examples
///
/// ```
/// assert_eq!(npd_numerics::vector::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return max;
    }
    let sum: f64 = x.iter().map(|v| (v / max) * (v / max)).sum();
    max * sum.sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
pub fn norm2_sq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

/// Element-wise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Element-wise sum `x + y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Maximum absolute difference `‖x − y‖∞`, useful as a convergence check.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

/// Indices of the `k` largest entries of `x`, ties broken toward the smaller
/// index (deterministic). NaN entries rank after every number.
///
/// This is the rank-selection step of the greedy decoder: the `k` agents with
/// the highest neighborhood scores are declared to hold bit one.
///
/// # Panics
///
/// Panics if `k > x.len()`.
///
/// # Examples
///
/// ```
/// let idx = npd_numerics::vector::top_k_indices(&[0.5, 2.0, 1.5, 2.0], 2);
/// assert_eq!(idx, vec![1, 3]);
/// ```
pub fn top_k_indices(x: &[f64], k: usize) -> Vec<usize> {
    assert!(k <= x.len(), "top_k_indices: k={} > len={}", k, x.len());
    let mut order: Vec<usize> = (0..x.len()).collect();
    order.sort_by(|&a, &b| rank_order(x, a, b));
    let mut out: Vec<usize> = order.into_iter().take(k).collect();
    out.sort_unstable();
    out
}

/// The ranking [`top_k_indices`] selects by, as a comparator on indices of
/// `x`: numbers first (descending), then NaNs, ties toward the smaller
/// index.
pub fn rank_order(x: &[f64], a: usize, b: usize) -> std::cmp::Ordering {
    // `partial_cmp` is total on the numbers and two NaNs compare equal,
    // so this is a total order.
    x[a].is_nan()
        .cmp(&x[b].is_nan())
        .then_with(|| x[b].partial_cmp(&x[a]).unwrap_or(std::cmp::Ordering::Equal))
        .then(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, -2.0], &[3.0, 4.0]), -5.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norm2_is_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn norm2_handles_large_values_without_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_of_empty_and_zero() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_sq_matches_norm2() {
        let x = [1.0, 2.0, 2.0];
        assert!((norm2_sq(&x) - norm2(&x).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0];
        let y = vec![0.5, -0.5];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn max_abs_diff_finds_worst_coordinate() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
    }

    #[test]
    fn top_k_selects_largest_and_sorts_indices() {
        let x = [0.1, 9.0, -1.0, 3.0, 8.0];
        assert_eq!(top_k_indices(&x, 3), vec![1, 3, 4]);
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let x = [2.0, 2.0, 2.0];
        assert_eq!(top_k_indices(&x, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_zero_and_full() {
        let x = [1.0, 2.0];
        assert!(top_k_indices(&x, 0).is_empty());
        assert_eq!(top_k_indices(&x, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_ranks_nan_after_every_number() {
        // Long enough that the standard sort leaves insertion sort and
        // checks the comparator's total order.
        let x: Vec<f64> = (0..64)
            .map(|i| if i % 3 == 0 { f64::NAN } else { f64::from(i) })
            .collect();
        assert_eq!(top_k_indices(&x, 3), vec![59, 61, 62]);
        let numbers = x.iter().filter(|v| !v.is_nan()).count();
        let top = top_k_indices(&x, numbers);
        assert!(
            top.iter().all(|&i| !x[i].is_nan()),
            "a NaN outranked a number"
        );
        assert_eq!(top_k_indices(&x, x.len()).len(), x.len());
        assert_eq!(top_k_indices(&[f64::NAN, 1.0, f64::NAN], 2), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "top_k_indices")]
    fn top_k_too_large_panics() {
        top_k_indices(&[1.0], 2);
    }
}
