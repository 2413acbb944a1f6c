//! Two-tier co-simulation: the ECperf application server plus the
//! database machine, with the middle tier isolated exactly as the paper
//! isolates it (Section 3.3).
//!
//! Run with: `cargo run --release --example two_tier`

use middlesim::{run_cluster, Effort, ExperimentPlan};

fn main() {
    println!("co-simulating the application-server and database tiers...");
    let report = run_cluster(&ExperimentPlan::new(Effort::Quick), 4);
    println!("\n{}", report.table());
    println!("The paper's observation holds: the middle tier is where the");
    println!("interesting memory behavior lives — the database \"is not overly");
    println!("stressed\" and its working set sits resident in the buffer pool.");
}
