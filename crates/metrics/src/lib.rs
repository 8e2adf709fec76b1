//! # aqua-metrics — measurement and reporting for the AQUA harness
//!
//! The paper reports two latency metrics throughout §6:
//!
//! * **TTFT** (time to first token) — responsiveness (Figures 1a, 9, 15–17).
//! * **RCT** (request completion time) — throughput (Figures 1b, 8, 11, 13).
//!
//! plus throughput counts (tokens generated in a fixed window, Figures 7,
//! 10b, 18) and free-memory timelines (Figures 2, 10a). This crate provides
//! the recorders, percentile math, time series and plain-text table
//! rendering shared by every figure harness in `aqua-bench`.

pub mod cdf;
pub mod goodput;
pub mod latency;
pub mod requests;
pub mod streaming;
pub mod table;
pub mod timeseries;

pub mod prelude {
    //! Convenience re-exports.
    pub use crate::cdf::Cdf;
    pub use crate::goodput::{GoodputReport, SloSpec};
    pub use crate::latency::Summary;
    pub use crate::requests::{RequestLog, RequestRecord};
    pub use crate::streaming::{StreamLog, TokenStream, TokenTimes};
    pub use crate::table::Table;
    pub use crate::timeseries::TimeSeries;
}

pub use prelude::*;
