//! `figures <id> [--sf f] [--objects n]`: runs one figure of the paper's
//! evaluation (a row of `smc_bench::figures::FIGURES`), prints its report
//! as pipe tables and exits by its checks — 0 when every claim held, 1 on a
//! failed claim, 2 on a usage error.

use smc_bench::{figures, finish, init_tracing};

fn main() {
    init_tracing();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figure, scale) = figures::parse_args(&args).unwrap_or_else(|e| {
        eprintln!("usage error: {e}\nusage: figures <id> [--sf f] [--objects n]");
        std::process::exit(2)
    });
    let mut report = (figure.run)(&scale);
    print!("{}", figures::render(&report));
    finish(&mut report);
}
