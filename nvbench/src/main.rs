//! `nvbench`: run a workload, check a metric's steadiness, or compare
//! two result sets. See `README.md` in this package.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nvbench::cli::main(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
