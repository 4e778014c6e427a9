//! The five single-node sort families as one tag.
//!
//! The cross-node sort names its inner sort with it (`InnerAlgo`), the
//! serve layer names a job's algorithm with it (`JobAlgo`), and
//! [`Algorithm::placed`](crate::Algorithm::placed) turns it into a
//! configured [`Algorithm`](crate::Algorithm).

use crate::{het, mwms, p2p, rp, sample};

/// Which single-node multi-GPU sort family runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// P2P merge-tree sort ([`crate::p2p`]); needs a power-of-two GPU
    /// count.
    P2p,
    /// Radix-partitioned sort ([`crate::rp`]); any GPU count.
    Rp,
    /// Heterogeneous sort with the CPU multiway merge ([`crate::het`]).
    Het,
    /// GPU sample sort ([`crate::sample`]): splitter partition plus one
    /// all-to-all bucket exchange; any GPU count.
    SampleSort,
    /// Multiway mergesort ([`crate::mwms`]): pairwise merge tree; any GPU
    /// count (odd runs get byes). The final merge transiently needs `2n`
    /// keys on one GPU — the steepest footprint.
    MultiwayMerge,
}

impl Family {
    /// The family's report label (matches [`crate::SortReport::algorithm`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::P2p => "P2P sort",
            Family::Rp => "RP sort",
            Family::Het => "HET sort",
            Family::SampleSort => "Sample sort",
            Family::MultiwayMerge => "Multiway mergesort",
        }
    }

    /// Short tag for composite labels ("Cross-node sort (P2P inner)").
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Family::P2p => "P2P",
            Family::Rp => "RP",
            Family::Het => "HET",
            Family::SampleSort => "sample",
            Family::MultiwayMerge => "mwms",
        }
    }

    /// All five families, in report order.
    #[must_use]
    pub const fn all() -> [Family; 5] {
        [
            Family::P2p,
            Family::Rp,
            Family::Het,
            Family::SampleSort,
            Family::MultiwayMerge,
        ]
    }

    /// Peak device memory of an in-core sort of `keys` keys on `gpus`
    /// GPUs, in **logical keys per GPU** (the unit [`msort_gpu::World`]
    /// accounts in). Each family's formula sits beside the allocations it
    /// describes; `tests/properties.rs` checks it against the drivers'
    /// real allocations.
    #[must_use]
    pub fn device_footprint_keys(self, keys: u64, gpus: usize, scale: u64) -> u64 {
        let g = gpus.max(1) as u64;
        let chunk = keys.div_ceil(g);
        match self {
            Family::P2p => p2p::footprint_keys(chunk),
            Family::Rp => rp::footprint_keys(chunk, g, scale),
            Family::Het => het::footprint_keys(chunk),
            Family::SampleSort => sample::footprint_keys(chunk),
            Family::MultiwayMerge => mwms::footprint_keys(chunk, g),
        }
    }
}

/// Parses a family's command-line spelling: its short tag in lower case
/// (`p2p`, `rp`, `het`, `sample`, `mwms`).
impl std::str::FromStr for Family {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Family::all()
            .into_iter()
            .find(|f| f.tag().to_ascii_lowercase() == s)
            .ok_or_else(|| format!("unknown sort family '{s}' (p2p, rp, het, sample, mwms)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips_through_its_cli_spelling() {
        for (family, cli) in Family::all()
            .into_iter()
            .zip(["p2p", "rp", "het", "sample", "mwms"])
        {
            assert_eq!(cli.parse(), Ok(family));
        }
        assert!("P2P sort".parse::<Family>().is_err());
    }
}
