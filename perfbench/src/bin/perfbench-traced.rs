//! Traced benchmark runs: the per-layer metrics. Installs the tracking
//! allocator behind `heap_peak_mb`, which untraced runs leave out.

use std::process::ExitCode;

use venn_metrics::alloc::TrackingAlloc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    perfbench::cli_main(true)
}
