//! A pinning test that fingerprints a `HashMap` by iterating it: the
//! fold order follows the per-process hash seed, so the pin can pass on
//! one run and fail on the next. The workspace walk checks test files
//! for the harness subset, so the `HashMap` is a finding; the `unwrap`
//! is not, because a panic is how a broken test fails.

#[test]
fn tally_fingerprint_is_pinned() {
    let mut counts: std::collections::HashMap<u32, u64> = Default::default();
    for x in [3u32, 1, 4, 1, 5] {
        *counts.entry(x).or_default() += 1;
    }
    let fp = counts.iter().fold(0u64, |h, (k, v)| h.wrapping_mul(31) ^ u64::from(*k) ^ v);
    assert_ne!(Some(fp).unwrap(), 0);
}
