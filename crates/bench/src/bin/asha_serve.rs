//! `asha-serve` — the tuning-as-a-service daemon.
//!
//! Serves an [`asha::store::ExperimentSupervisor`] root to many concurrent
//! clients over a Unix socket and/or TCP, speaking the versioned
//! newline-delimited JSON protocol in [`asha::service::proto`]. Pair with
//! `asha-ctl`.
//!
//! Usage:
//!
//! ```text
//! asha-serve --root DIR [--unix PATH] [--tcp ADDR] [--trace FILE]
//!            [--queue-depth N] [--max-frame BYTES]
//!            [--metrics-addr ADDR] [--slow-log FILE] [--slow-ms MS]
//! ```
//!
//! At least one of `--unix` / `--tcp` is required. `--metrics-addr` adds
//! an HTTP listener answering `GET /metrics` in Prometheus text format;
//! `--slow-log` appends requests slower than `--slow-ms` (default 1000)
//! as JSONL. The daemon runs until SIGTERM/SIGINT or a client `shutdown`
//! request, then drains gracefully: running experiments park behind
//! durable snapshots, the manifest is flushed, and client queues are
//! drained before exit. A malformed command line is a usage error (exit 2)
//! before anything is created; `--help` prints the usage line (exit 0).

use std::sync::atomic::{AtomicBool, Ordering};

use asha::service::{Daemon, ServeOptions};
use asha_bench::cli::Cli;

/// Set from the signal handler; polled by the main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2). The vendored ecosystem has no libc crate, and
        // this binary (unlike the library crates, which forbid unsafe) may
        // declare the one foreign function it needs.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: a single atomic store.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("asha-serve: error: {msg}");
    std::process::exit(1);
}

const CLI: Cli = Cli {
    bin: "asha-serve",
    synopsis: "--root DIR [--unix PATH] [--tcp ADDR] [--trace FILE]\n\
        \x20                 [--queue-depth N] [--max-frame BYTES]\n\
        \x20                 [--metrics-addr ADDR] [--slow-log FILE] [--slow-ms MS]",
    flags: &[
        "--root DIR",
        "--unix PATH",
        "--tcp ADDR",
        "--trace FILE",
        "--queue-depth N",
        "--max-frame BYTES",
        "--metrics-addr ADDR",
        "--slow-log FILE",
        "--slow-ms MS",
    ],
    positionals: 0,
};

fn parse_options() -> ServeOptions {
    let args = CLI.parse();
    let Some(root) = args.value("--root") else {
        args.usage_error("--root is required")
    };
    let mut opts = ServeOptions::new(root);
    opts.unix = args.value("--unix").map(Into::into);
    opts.tcp = args.value("--tcp").map(Into::into);
    opts.trace = args.value("--trace").map(Into::into);
    opts.queue_depth = args.number("--queue-depth").unwrap_or(opts.queue_depth);
    opts.max_frame = args.number("--max-frame").unwrap_or(opts.max_frame);
    opts.metrics_addr = args.value("--metrics-addr").map(Into::into);
    opts.slow_log = args.value("--slow-log").map(Into::into);
    let slow_ms = args.number("--slow-ms");
    opts.slow_threshold = slow_ms.map_or(opts.slow_threshold, std::time::Duration::from_millis);
    if opts.unix.is_none() && opts.tcp.is_none() {
        args.usage_error("at least one of --unix / --tcp is required");
    }
    opts
}

fn main() {
    let opts = parse_options();
    #[cfg(unix)]
    sig::install();

    let daemon = Daemon::start(opts).unwrap_or_else(|e| fail(e));
    if let Some(addr) = daemon.tcp_addr() {
        println!("asha-serve: listening on tcp {addr}");
    }
    if let Some(addr) = daemon.metrics_addr() {
        println!("asha-serve: metrics on http://{addr}/metrics");
    }
    println!("asha-serve: ready (pid {})", std::process::id());

    loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("asha-serve: signal received, shutting down");
            daemon.begin_shutdown();
            break;
        }
        if daemon.shutdown_requested() {
            eprintln!("asha-serve: shutdown requested by client");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    match daemon.wait() {
        Ok(()) => println!("asha-serve: drained, exiting"),
        Err(e) => fail(format!("shutdown: {e}")),
    }
}
