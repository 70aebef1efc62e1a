//! Property tests for the durable-ID watermark (`seqtrack`).
//!
//! `SequenceTracker` is what lets Persist workers publish out of commit
//! order: whatever order IDs (or whole group ranges) are marked in, the
//! watermark is the largest complete prefix and nothing more. Stated here
//! as properties over *arbitrary completion permutations*, not hand-picked
//! interleavings.

use proptest::prelude::*;

use dudetm::SequenceTracker;

/// Decodes `entropy` into a permutation of `0..n` (Fisher–Yates driven by
/// the raw words, so the proptest shim needs no shuffle strategy).
fn permutation(n: usize, entropy: &[u64]) -> Vec<u64> {
    let mut perm: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let r = entropy[i % entropy.len().max(1)] as usize % (i + 1);
        perm.swap(i, r);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SequenceTracker::starting_at` behaves like a fresh tracker shifted
    /// by `start`: marking groups of `group` consecutive IDs as ranges in
    /// any order — how parallel Persist workers publish; `group = 1` is
    /// the ungrouped pipeline — the watermark matches the naive
    /// largest-complete-prefix model after every step.
    #[test]
    fn tracker_offset_start_matches_model(
        start in 0u64..1_000_000,
        group in 1u64..9,
        n in 1usize..64,
        entropy in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let perm = permutation(n, &entropy);
        let tracker = SequenceTracker::starting_at(start);
        let mut done = std::collections::HashSet::new();
        for &g in &perm {
            let lo = start + 1 + g * group;
            tracker.mark_range(lo, lo + group - 1);
            done.insert(g);
            let model = (0..).take_while(|g| done.contains(g)).count() as u64;
            prop_assert_eq!(tracker.watermark(), start + model * group);
            prop_assert_eq!(
                tracker.pending_len() as u64,
                (done.len() as u64 - model) * group
            );
        }
        prop_assert_eq!(tracker.watermark(), start + n as u64 * group);
    }
}
