//! Set-associative caches and the on-chip memory hierarchy used by the
//! MLP simulators.
//!
//! The paper's default caches are modelled exactly: 32 KB 4-way L1
//! instruction and data caches and a shared 2 MB 4-way L2, all with
//! 64-byte lines. A miss in the *furthest on-chip cache* (the L2 here —
//! the paper assumes no L3) is an **off-chip access**, the unit the whole
//! MLP study is built around. The paper's 2K-entry TLB is not modelled:
//! the traces carry no page-table walks, so no TLB miss could send an
//! access off chip.
//!
//! The central type is [`Hierarchy`]; simulators ask it to classify each
//! instruction fetch, load, store or prefetch as an [`Access`] outcome and
//! it performs the fills as a side effect. Besides that classification it
//! keeps only each level's hit, miss and eviction counts.
//!
//! # Examples
//!
//! ```
//! use mlp_mem::{Access, Hierarchy, HierarchyConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::default());
//! assert_eq!(mem.load(0x1_0000), Access::OffChip); // cold miss
//! assert_eq!(mem.load(0x1_0000), Access::L1Hit);   // now resident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod mshr;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Access, Hierarchy, HierarchyConfig};
pub use mshr::{Mshr, MshrOutcome};
