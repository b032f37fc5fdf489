//! # wino-bench — the experiment harness
//!
//! One module per evaluation artefact of the paper; each `table*` /
//! `figure*` binary in `src/bin/` prints the corresponding table or
//! figure series. See EXPERIMENTS.md at the workspace root for the
//! paper-vs-measured record.

#![warn(missing_docs)]

pub mod accuracy_exp;
pub mod network_exp;
pub mod opcount_exp;
pub mod report;
pub mod runtime_exp;
pub mod verification;

pub use accuracy_exp::{figure4_rows, spec_for_alpha, table3_rows, Figure4Row, Table3Row};
pub use network_exp::{estimate_networks, LayerEstimate, NetworkEstimate};
pub use opcount_exp::{figure5_rows, peak_reduction, Figure5Row, StageOps};
pub use report::{fmt_sci, geometric_mean, Report, TablePrinter};
pub use runtime_exp::{
    figure6_desc, figure6_phase_capture, figure6_rows, figure7_rows, figure8_rows, figure9_rows,
    Figure6Row, Figure9Row, VendorCompareRow,
};
pub use verification::{append_stamp, verification_section};
