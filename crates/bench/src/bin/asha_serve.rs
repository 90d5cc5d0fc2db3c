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
//! drained before exit.

use std::sync::atomic::{AtomicBool, Ordering};

use asha::service::{Daemon, ServeOptions};

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

fn usage() -> ! {
    eprintln!(
        "usage: asha-serve --root DIR [--unix PATH] [--tcp ADDR] [--trace FILE]\n\
         \x20                 [--queue-depth N] [--max-frame BYTES]\n\
         \x20                 [--metrics-addr ADDR] [--slow-log FILE] [--slow-ms MS]"
    );
    std::process::exit(2);
}

fn parse_options() -> ServeOptions {
    let mut root = None;
    let mut unix = None;
    let mut tcp = None;
    let mut trace = None;
    let mut queue_depth = None;
    let mut max_frame = None;
    let mut metrics_addr = None;
    let mut slow_log = None;
    let mut slow_ms = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--root" => root = Some(value("--root")),
            "--unix" => unix = Some(value("--unix")),
            "--tcp" => tcp = Some(value("--tcp")),
            "--trace" => trace = Some(value("--trace")),
            "--queue-depth" => {
                queue_depth = Some(
                    value("--queue-depth")
                        .parse::<usize>()
                        .unwrap_or_else(|e| fail(format!("--queue-depth: {e}"))),
                )
            }
            "--max-frame" => {
                max_frame = Some(
                    value("--max-frame")
                        .parse::<usize>()
                        .unwrap_or_else(|e| fail(format!("--max-frame: {e}"))),
                )
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--slow-log" => slow_log = Some(value("--slow-log")),
            "--slow-ms" => {
                slow_ms = Some(
                    value("--slow-ms")
                        .parse::<u64>()
                        .unwrap_or_else(|e| fail(format!("--slow-ms: {e}"))),
                )
            }
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument {other:?}")),
        }
    }

    let root = root.unwrap_or_else(|| fail("--root is required"));
    let mut opts = ServeOptions::new(root);
    opts.unix = unix.map(Into::into);
    opts.tcp = tcp;
    opts.trace = trace.map(Into::into);
    if let Some(depth) = queue_depth {
        opts.queue_depth = depth;
    }
    if let Some(limit) = max_frame {
        opts.max_frame = limit;
    }
    opts.metrics_addr = metrics_addr;
    opts.slow_log = slow_log.map(Into::into);
    if let Some(ms) = slow_ms {
        opts.slow_threshold = std::time::Duration::from_millis(ms);
    }
    if opts.unix.is_none() && opts.tcp.is_none() {
        fail("at least one of --unix / --tcp is required");
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
