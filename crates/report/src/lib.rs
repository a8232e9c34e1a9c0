//! Tables and figure series for the nvfs reproductions.
//!
//! Every experiment in `nvfs-experiments` renders its output through these
//! types, so each of the paper's tables and figures has a uniform ASCII and
//! CSV representation.
//!
//! # Examples
//!
//! ```
//! use nvfs_report::{Cell, Figure, Series, Table};
//!
//! let mut t = Table::new("Table 3", &["fs", "% partial"]);
//! t.push_row(vec![Cell::from("/user6"), Cell::Pct(97.0)]);
//! assert!(t.render().contains("97.0%"));
//!
//! let mut fig = Figure::new("Figure 3", "MB NVRAM", "traffic %");
//! fig.push(Series::new("Trace 7", vec![(1.0, 35.0)]));
//! assert_eq!(fig.all_series().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod figure;
mod plot;
mod run;
mod table;

pub use figure::{Figure, Series};
pub use plot::render_plot;
pub use run::catching;
pub use table::{Cell, Table};
