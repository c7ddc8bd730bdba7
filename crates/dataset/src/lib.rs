//! # mtd-dataset — the paper's measurement dataset abstraction
//!
//! Mirrors §3.2–3.3 of the paper: raw per-flow measurements are reduced to
//! privacy-preserving per-(service, BS-group, day) statistics —
//!
//! - per-minute session arrival counts `w_s^{c,m}` (kept per BS,
//!   aggregated over services, for the Fig 3 analysis),
//! - log-binned PDFs of per-session traffic volume `F_s^{c,t}(x)`,
//! - discretized duration–volume pairs `v_s^{c,t}(d)`,
//!
//! and re-aggregated over arbitrary subsets of BSs and days with the
//! weighted-average estimators of Eq. (1) (pairs) and Eq. (2) (PDF
//! mixtures).
//!
//! One deliberate refinement over a naive per-(service, BS, day) store:
//! cells are keyed by *BS group* — the (load-decile, region, city, RAT)
//! combination — because every slice the paper analyzes (§4.4: day type,
//! region, city, RAT; §4.1: load decile) is a union of such groups. This
//! keeps memory bounded while exercising the identical estimators.
//!
//! Building is one pass: BS load deciles depend on total measured
//! traffic, so the engine's observations accumulate into cells keyed per
//! (service, BS, day) while every BS's volume is summed, and once the
//! pass ends the totals rank the BSs into deciles and the per-BS cells
//! sum into their group cells (`accum`). Integer sums do not depend on
//! how they are grouped, so this equals accumulating per group directly.

pub mod accum;
pub mod chunk;
pub mod dataset;
pub mod decile;
pub mod format;
mod json;
pub mod record;
pub mod shares;
pub mod store;

pub use accum::{
    BinnedSum, BsCell, BsCellKey, DenseRow, ExactCell, MinuteEntry, MinuteRowQ, Row, RowIndex,
    ShardAccumulator, SignalEntry, SignalRowQ,
};
pub use dataset::{BsGroups, CellKey, CellMap, Dataset, GroupKey, SignalingPlane, SliceFilter};
pub use record::{CellStats, PairPoint};
pub use shares::SharesAccumulator;
pub mod window;

pub use store::{
    write_atomic, DatasetAssembler, DatasetStream, SignalBlock, StoreError, StoreReport,
    StoreWriter, StreamedChunk,
};
pub use window::{read_window, read_window_from_reader};
