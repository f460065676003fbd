//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`: runs one
//! benchmark workload and prints every metric by name with its unit; the
//! last line of stdout is the JSON result.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match ssr_perfbench::RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-ssr|figures-quick|trace-explain \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = ssr_perfbench::run(&cfg);
    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    println!("{}", result.render_json());
    ExitCode::SUCCESS
}
