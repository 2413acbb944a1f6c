//! The official SPECjbb2000 run protocol (paper Section 2.1): ramp the
//! warehouse count to the peak n, then score the average of n..2n.
//!
//! Run with: `cargo run --release --example official_score`

use middlesim::{official_run, Effort, ExperimentPlan};

fn main() {
    println!("running the official SPECjbb protocol on 4 processors...");
    let score = official_run(&ExperimentPlan::new(Effort::Quick), 4, 12);
    println!("\n{}", score.table());
    println!(
        "peak at n = {} warehouses; official-style score = {:.0} tx/s",
        score.peak_warehouses, score.score
    );
    println!("(The paper skipped this protocol in simulation — prohibitively");
    println!("many runs — and picked representative warehouse counts instead.)");
}
