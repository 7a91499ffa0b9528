//! Untraced benchmark runs: the end-to-end metrics.

use std::process::ExitCode;

fn main() -> ExitCode {
    perfbench::cli_main(false)
}
