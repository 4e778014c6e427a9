//! Loser tree (tournament tree) merge cursor.
//!
//! A loser tree over `k` runs yields the next smallest key with exactly
//! `⌈log₂ k⌉` comparisons: each internal node stores the *loser* of the
//! comparison between its subtrees and the winner propagates to the root.
//! Replaying a leaf after consuming the winner touches only the path from
//! that leaf to the root. This is the structure behind
//! `gnu_parallel::multiway_merge` (paper Section 5.3), which beats heap-based
//! merging (`2·log k` comparisons) on memory-bandwidth-bound merges.
//!
//! Every node holds one [`RadixImage::Word`]: the head's radix image in the
//! high half and a 32-bit tag in the low half. The tag is the run index,
//! with an `EXHAUSTED` bit set once the run is empty; an exhausted run's
//! image is the maximal one, and the padding leaves that round `k` up to a
//! power of two are exhausted from the start. Word order is therefore the merge
//! order — smaller image first, then a live run before an exhausted one,
//! then the lower run index (stability) — and a replay step is one `max`
//! kept at the node and one `min` carried up, with no branch on the keys.

use msort_data::keys::RadixImage;
use msort_data::SortKey;

/// Tag bit of a run with no head left.
const EXHAUSTED: u32 = 1 << 31;

/// Merge cursor over `k` sorted runs.
///
/// ```
/// use msort_cpu::LoserTree;
/// let a = [1u32, 4, 7];
/// let b = [2u32, 5, 8];
/// let c = [3u32, 6, 9];
/// let mut tree = LoserTree::new(&[&a[..], &b[..], &c[..]]);
/// let merged: Vec<u32> = std::iter::from_fn(|| tree.pop()).collect();
/// assert_eq!(merged, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
/// ```
pub struct LoserTree<'a, K: SortKey> {
    /// The unconsumed tail of each input run.
    runs: Vec<&'a [K]>,
    /// Internal nodes `1..leaves`: the losing word at each node; `tree[0]`
    /// holds the overall winner.
    tree: Vec<<K::Radix as RadixImage>::Word>,
    /// Number of leaves (k rounded up to a power of two).
    leaves: usize,
    /// Remaining elements across all runs.
    remaining: usize,
}

impl<'a, K: SortKey> LoserTree<'a, K> {
    /// Build a loser tree over `runs`; `O(k)` time.
    ///
    /// # Panics
    /// Panics if there are `2³¹` runs or more (the tag's run-index bits).
    #[must_use]
    pub fn new(runs: &[&'a [K]]) -> Self {
        assert!(
            runs.len() < EXHAUSTED as usize,
            "a loser tree merges fewer than 2^31 runs"
        );
        let leaves = runs.len().max(1).next_power_of_two();
        // Play the tournament bottom-up over the virtual complete binary
        // tree: `winners[i]` is node i's winner, `tree[i]` keeps its loser.
        let mut winners = vec![head_word::<K>(None, 0); 2 * leaves];
        for leaf in 0..leaves {
            winners[leaves + leaf] = head_word(runs.get(leaf).copied(), leaf);
        }
        let mut tree = vec![winners[1]; leaves];
        for node in (1..leaves).rev() {
            let (l, r) = (winners[2 * node], winners[2 * node + 1]);
            winners[node] = l.min(r);
            tree[node] = l.max(r);
        }
        tree[0] = winners[1];
        Self {
            runs: runs.to_vec(),
            tree,
            leaves,
            remaining: runs.iter().map(|r| r.len()).sum(),
        }
    }

    /// Number of keys not yet popped.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Pop the next smallest key, or `None` when all runs are exhausted.
    /// Stable across runs: ties resolve to the lower run index.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The winner is live while keys remain: its tag is its run index.
        let r = K::Radix::unpack(self.tree[0]).1 as usize;
        let (&key, rest) = self.runs[r]
            .split_first()
            .expect("a live winner has a head");
        self.runs[r] = rest;
        // Replay r's leaf-to-root path with its new head.
        let mut up = head_word(Some(rest), r);
        let mut node = (self.leaves + r) / 2;
        while node >= 1 {
            let held = self.tree[node];
            self.tree[node] = held.max(up);
            up = held.min(up);
            node /= 2;
        }
        self.tree[0] = up;
        Some(key)
    }
}

/// The word of run `r` whose unconsumed tail is `run`: its head's image
/// tagged with `r`, or the maximal image tagged exhausted when `run` is
/// empty or absent (a padding leaf).
#[inline]
fn head_word<K: SortKey>(run: Option<&[K]>, r: usize) -> <K::Radix as RadixImage>::Word {
    match run.and_then(<[K]>::first) {
        Some(key) => key.to_radix().pack(r as u32),
        None => K::Radix::max_value().pack(EXHAUSTED | r as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::is_sorted;

    fn drain<K: SortKey>(runs: &[&[K]]) -> Vec<K> {
        let mut tree = LoserTree::new(runs);
        std::iter::from_fn(|| tree.pop()).collect()
    }

    #[test]
    fn merges_two_runs() {
        let out = drain(&[&[1u32, 3, 5][..], &[2u32, 4, 6][..]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn non_power_of_two_runs() {
        let out = drain(&[&[7u32][..], &[2u32, 9][..], &[1u32, 8, 10][..]]);
        assert_eq!(out, vec![1, 2, 7, 8, 9, 10]);
    }

    #[test]
    fn empty_and_unequal_runs() {
        let out = drain(&[&[][..], &[5u32][..], &[][..], &[1u32, 2, 3][..]]);
        assert_eq!(out, vec![1, 2, 3, 5]);
    }

    #[test]
    fn single_run_passthrough() {
        let out = drain(&[&[1u32, 1, 2][..]]);
        assert_eq!(out, vec![1, 1, 2]);
    }

    #[test]
    fn no_runs() {
        let out: Vec<u32> = drain(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn all_duplicates_stable_by_run() {
        // With equal keys everywhere, stability means run 0 drains first.
        let a = [5u32, 5];
        let b = [5u32, 5];
        let mut tree = LoserTree::new(&[&a[..], &b[..]]);
        assert_eq!(tree.pop(), Some(5));
        // Can't observe run ids from keys alone, but ordering must not panic
        // and must drain fully.
        let rest: Vec<u32> = std::iter::from_fn(|| tree.pop()).collect();
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn maximal_images_beat_exhausted_leaves() {
        // Three runs end in the maximal image next to empty runs and a
        // padding leaf: only the tag's exhausted bit orders those heads.
        let out = drain(&[
            &[u32::MAX][..],
            &[][..],
            &[1u32, u32::MAX][..],
            &[][..],
            &[u32::MAX, u32::MAX][..],
        ]);
        assert_eq!(out, vec![1, u32::MAX, u32::MAX, u32::MAX, u32::MAX]);
        let out = drain(&[&[][..], &[u64::MAX][..], &[0u64][..]]);
        assert_eq!(out, vec![0, u64::MAX]);
    }

    #[test]
    fn many_runs_random() {
        let mut rng = msort_data::Rng::seed_from_u64(3);
        let runs: Vec<Vec<u32>> = (0..17)
            .map(|_| {
                let mut v: Vec<u32> = (0..rng.u32_in(0..200)).map(|_| rng.u32()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let views: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let out = drain(&views);
        assert!(is_sorted(&out));
        assert_eq!(out.len(), runs.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn remaining_counts_down() {
        let a = [1u32, 2];
        let b = [3u32];
        let mut tree = LoserTree::new(&[&a[..], &b[..]]);
        assert_eq!(tree.remaining(), 3);
        tree.pop();
        assert_eq!(tree.remaining(), 2);
        tree.pop();
        tree.pop();
        assert_eq!(tree.remaining(), 0);
        assert_eq!(tree.pop(), None);
    }

    #[test]
    fn floats_total_order() {
        let a = [-1.5f32, 0.0, 2.0];
        let b = [-0.5f32, 1.0];
        let out = drain(&[&a[..], &b[..]]);
        assert!(is_sorted(&out));
    }
}
