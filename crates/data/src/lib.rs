//! Sort keys, data distributions, and workload generators.
//!
//! This crate provides the data layer of the multi-GPU sorting reproduction:
//!
//! * [`SortKey`] — the trait implemented by every sortable key type. Radix
//!   sorts operate on an order-preserving unsigned bit image
//!   ([`SortKey::to_radix`]), which is how signed integers and IEEE-754
//!   floats are sorted with the same machinery as unsigned integers
//!   (mirroring how Thrust/CUB handle these types on real GPUs).
//! * [`Distribution`] — the five input distributions studied in the paper's
//!   Section 6.3 (uniform, normal, sorted, reverse-sorted, nearly-sorted)
//!   plus two extras used by ablations (zipf-like duplicate-heavy and
//!   constant).
//! * [`generate`]/[`generate_into`] — deterministic, seedable generators.
//! * [`validate`] — sortedness and permutation checks used by every test.

#![forbid(unsafe_code)]

pub mod dist;
pub mod gen;
pub mod keys;
pub mod pairs;
pub mod rng;
pub mod validate;

pub use dist::Distribution;
pub use gen::{generate, generate_into, DataGenerator};
pub use keys::{DataType, SortKey};
pub use pairs::Pair;
pub use rng::Rng;
pub use validate::{is_sorted, same_multiset, validate_sort, SortValidation};

/// Number of bytes in one gibibyte; used for reporting buffer sizes the way
/// the paper does ("4 GB buffers", "16 GB of keys").
pub const GIB: u64 = 1 << 30;

/// Number of bytes in one gigabyte (decimal); interconnect bandwidths in the
/// paper are quoted in GB/s (decimal), so throughput reporting uses this.
pub const GB: u64 = 1_000_000_000;
