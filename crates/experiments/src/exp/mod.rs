//! One module per table/figure of the paper's evaluation.
//!
//! Each module declares its registry entry (a `pub static`
//! [`Experiment`](crate::registry::Experiment)) next to the typed
//! results it renders.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table 1: on-/off-chip CPI components, MLP, Overlap_CM |
//! | [`figure2`] | Figure 2: clustering of off-chip accesses |
//! | [`table3`] | Table 3: MLPsim vs cycle-accurate MLP validation |
//! | [`table4`] | Table 4: estimated vs measured CPI |
//! | [`table5`] | Table 5: in-order MLP (stall-on-miss / stall-on-use) |
//! | [`figure4`] | Figure 4: MLP vs ROB size and issue constraints |
//! | [`figure5`] | Figure 5: factors inhibiting further MLP |
//! | [`figure6`] | Figure 6: decoupling issue window and ROB |
//! | [`figure7`] | Figure 7: impact of L2 cache size |
//! | [`figure8`] | Figure 8: runahead execution |
//! | [`figure9`] | Figure 9 + Table 6: missing-load value prediction |
//! | [`figure10`] | Figure 10: perfect-I/VP/BP limit study |
//! | [`figure11`] | Figure 11: overall performance improvement |
//! | [`extensions`] | store MLP (future work), ablations, fM vs MLP (§6), off-chip L3, SMT, runahead timing |
//! | [`epochs`] | epoch-size distributions (§4.1 queueing-model use) |
//! | [`sweep1000`] | surrogate-explored 3888-point design grid (§5 sweep space) |

pub mod epochs;
pub mod extensions;
pub mod figure10;
pub mod figure11;
pub mod figure2;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod sweep1000;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
