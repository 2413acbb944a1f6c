//! Runs one benchmark workload; see the crate documentation.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hostbench::output::main_with(&args));
}
