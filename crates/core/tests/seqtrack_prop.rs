//! Property tests for the dense order buffer (`seqtrack`).
//!
//! `DenseReorder` is what lets Persist workers publish out of commit
//! order: whatever order IDs (or whole group ranges) are pushed in, items
//! pop strictly ascending and gap-free, and the completed prefix is the
//! largest contiguous one and nothing more. Stated here as properties over
//! *arbitrary completion permutations*, not hand-picked interleavings.

use proptest::prelude::*;

use dudetm::DenseReorder;

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

    /// `DenseReorder::starting_at` behaves like a fresh buffer shifted by
    /// `start`: pushing ranges of 1–8 consecutive IDs in any order — how
    /// parallel Persist workers publish groups; width 1 is the ungrouped
    /// pipeline — and popping whatever is poppable after every push, the
    /// pops come out strictly ascending and gap-free, the completed prefix
    /// matches the naive largest-complete-prefix model after every step,
    /// and exactly the blocked *ranges* stay pending.
    #[test]
    fn reorder_offset_start_matches_model(
        start in 0u64..1_000_000,
        widths in proptest::collection::vec(1u64..9, 1..64),
        entropy in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        // Range `g` covers `bounds[g] + 1..=bounds[g + 1]`.
        let mut bounds = vec![start];
        for w in &widths {
            bounds.push(bounds[bounds.len() - 1] + w);
        }
        let mut order = DenseReorder::starting_at(start);
        let mut done = std::collections::HashSet::new();
        let mut popped = start;
        for g in permutation(widths.len(), &entropy) {
            let g = g as usize;
            order.push(bounds[g] + 1, bounds[g + 1], g);
            done.insert(g);
            while let Some((first, last, item)) = order.pop() {
                prop_assert_eq!(first, popped + 1);
                prop_assert_eq!((first, last), (bounds[item] + 1, bounds[item + 1]));
                popped = last;
            }
            let model = (0..).take_while(|g| done.contains(g)).count();
            prop_assert_eq!(order.complete(), bounds[model]);
            prop_assert_eq!(popped, order.complete());
            prop_assert_eq!(order.pending_len(), done.len() - model);
        }
        prop_assert_eq!(order.complete(), bounds[widths.len()]);
    }
}
