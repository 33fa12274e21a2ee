//! Main-memory interval structures (paper Section 2.1).
//!
//! The paper's related-work survey starts from the classical main-memory
//! structures; this crate keeps the ones the repository uses — brute
//! force, the *Interval Tree* of Edelsbrunner, and HINT — for three
//! purposes:
//!
//! 1. **Correctness oracles** — every relational access method in this
//!    repository (RI-tree, Tile Index, IST, MAP21, Window-List) is checked
//!    against [`NaiveIntervalSet`] on randomized workloads;
//! 2. **Reference semantics** — [`IntervalTree`] is the very structure the
//!    RI-tree virtualizes, so its three-phase query algorithm documents
//!    what Sections 3–4 of the paper translate into SQL.
//! 3. **A hot-tier engine** — [`HintIndex`] brings the survey up to date
//!    with HINT (Christodoulou, Bouros & Mamoulis; see PAPERS.md), the
//!    hierarchical comparison-free index that `ritree-core`'s read-through
//!    `HotTier` runs in front of the paged RI-tree.
//!
//! All three structures share the [`IntervalIndex`] trait and store
//! `(lower, upper, id)` triples of `i64` with closed interval semantics
//! (`lower <= upper`, intersection includes shared endpoints), matching
//! the `Interval` type in `ritree-core`.

pub mod hint;
pub mod index;
pub mod interval_tree;
pub mod naive;

pub use hint::HintIndex;
pub use index::{IntervalIndex, QueryCost};
pub use interval_tree::IntervalTree;
pub use naive::NaiveIntervalSet;
