//! Input data distributions (paper Section 6.3, Figure 16).
//!
//! The paper sorts uniformly distributed keys in most experiments and studies
//! five distributions in Figure 16. We add two more used by our ablations:
//! a duplicate-heavy zipf-like distribution (stresses the leftmost-pivot
//! optimization of Section 5.2) and a constant distribution (the extreme case
//! where no P2P swap is ever necessary).

/// Data distribution of the generated keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Independent uniform keys over the full domain (paper default).
    Uniform,
    /// Gaussian around the domain midpoint; stddev is domain/20 like common
    /// sort benchmarks, clamped to the domain.
    Normal,
    /// Already sorted ascending — minimal P2P swap volume (pivot = 0).
    Sorted,
    /// Sorted descending — maximal P2P swap volume (pivot = n/2 everywhere).
    ReverseSorted,
    /// Sorted ascending, then `swap_fraction` of random adjacent-window
    /// swaps (the paper's "nearly-sorted"); we use 1% of positions perturbed
    /// within a window of 100.
    NearlySorted,
    /// Zipf-like duplicate-heavy distribution over 1024 distinct values,
    /// with skew `s` stored as integer permille, `s × 1000` (to keep
    /// `Eq`-ish semantics and hashing simple); many duplicates make
    /// leftmost-pivot selection matter.
    ZipfDuplicates {
        /// Skew parameter multiplied by 1000 (e.g. `1200` means `s = 1.2`).
        skew_permille: u32,
    },
    /// Every key identical — degenerate case exercised by tests.
    Constant,
}

impl Distribution {
    /// The five distributions evaluated in the paper's Figure 16, in the
    /// order they appear there.
    #[must_use]
    pub const fn paper_set() -> [Distribution; 5] {
        [
            Distribution::Uniform,
            Distribution::Normal,
            Distribution::Sorted,
            Distribution::ReverseSorted,
            Distribution::NearlySorted,
        ]
    }

    /// Short label used in experiment output (matches Figure 16's legend).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Normal => "normal",
            Distribution::Sorted => "sorted",
            Distribution::ReverseSorted => "reverse-sorted",
            Distribution::NearlySorted => "nearly-sorted",
            Distribution::ZipfDuplicates { .. } => "zipf-duplicates",
            Distribution::Constant => "constant",
        }
    }

    /// Expected fraction of each chunk swapped during a pair-wise P2P merge
    /// of two chunks drawn from this distribution (used by the timing-only
    /// pivot model and sanity-checked against measured pivots in tests).
    ///
    /// For independent identically distributed chunks the pivot falls near
    /// the middle (`0.5`); for globally sorted input the chunks are already
    /// ordered (`0.0`); for reverse-sorted input the entire half must move
    /// (`1.0` at the leaf stage, since chunk `i` holds strictly larger keys
    /// than chunk `i + 1`).
    #[must_use]
    pub fn expected_swap_fraction(self) -> f64 {
        match self {
            Distribution::Uniform | Distribution::Normal => 0.5,
            Distribution::Sorted | Distribution::Constant => 0.0,
            Distribution::ReverseSorted => 1.0,
            Distribution::NearlySorted => 0.01,
            Distribution::ZipfDuplicates { .. } => 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_five() {
        assert_eq!(Distribution::paper_set().len(), 5);
        assert_eq!(Distribution::paper_set()[0], Distribution::Uniform);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Distribution::paper_set()
            .iter()
            .map(|d| d.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn swap_fractions_in_unit_interval() {
        for d in Distribution::paper_set() {
            let f = d.expected_swap_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
