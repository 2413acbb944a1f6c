//! # simstats — measurement methodology
//!
//! Statistics utilities shared by the experiment harness:
//!
//! - [`summary::Summary`] — streaming mean / standard deviation (the
//!   error bars on every figure);
//! - [`cdf::Cdf`] — cumulative distributions (Figures 14/15);
//! - [`table`] — plain-text series rendering for figure regeneration;
//! - [`extrapolate`] — stratified estimates with confidence intervals
//!   for sampled simulation.

pub mod cdf;
pub mod extrapolate;
pub mod summary;
pub mod table;

pub use cdf::Cdf;
pub use extrapolate::{stratified, Estimate, Stratum};
pub use summary::Summary;
pub use table::{fbytes, fnum, Table};
