//! `rpcd` — the OFL-W3 node daemon.
//!
//! Listens on a TCP address (or a Unix socket path) and serves the
//! `ofl-rpc` frame protocol: each connection provisions its own simulated
//! node (chain + IPFS swarm) with a `Provision` frame, then drives the
//! full `EthApi`/`IpfsApi`/backstage surface over the wire. Mount it into
//! a world as one `ShardSpec::Remote` endpoint of the provider pool.
//!
//! ```text
//! rpcd [--tcp 127.0.0.1:8945] [--unix /tmp/rpcd.sock] [--max-conns N]
//!      [--idle-timeout SECS] [--persist]
//! ```
//!
//! With `--max-conns N` the daemon exits after serving N connections
//! (handy in scripts and CI); without it, it serves forever.
//! `--idle-timeout SECS` sets a read deadline on accepted sockets so a
//! client stalled mid-frame frees its worker thread. `--persist` keeps
//! provisioned sessions alive across connections: provision once, hang
//! up, reconnect and `Attach` to the same live backend.

#![forbid(unsafe_code)]
// R1: a worker facing an untrusted peer degrades with a typed error; it
// never panics. Tests may unwrap (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use ofl_rpcd::DaemonOptions;
use std::net::TcpListener;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut options = DaemonOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => {
                tcp = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--tcp needs an address")),
                )
            }
            "--unix" => unix = Some(args.next().unwrap_or_else(|| usage("--unix needs a path"))),
            "--max-conns" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--max-conns needs a count"));
                options.max_connections = Some(n.parse().unwrap_or_else(|_| {
                    usage("--max-conns needs an integer");
                }))
            }
            "--idle-timeout" => {
                let secs = args
                    .next()
                    .unwrap_or_else(|| usage("--idle-timeout needs seconds"));
                let secs: u64 = secs.parse().unwrap_or_else(|_| {
                    usage("--idle-timeout needs an integer second count");
                });
                if secs == 0 {
                    usage("--idle-timeout must be at least 1 second");
                }
                options.idle_timeout = Some(Duration::from_secs(secs));
            }
            "--persist" => options.sessions = Some(ofl_rpcd::new_session_store()),
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    match (tcp, unix) {
        (Some(_), Some(_)) => usage("pick one of --tcp / --unix"),
        (None, Some(path)) => serve_unix(&path, options),
        (tcp, None) => {
            let addr = tcp.unwrap_or_else(|| "127.0.0.1:8945".into());
            let listener = TcpListener::bind(&addr)
                .unwrap_or_else(|e| usage(&format!("cannot bind {addr}: {e}")));
            println!(
                "rpcd: serving the OFL-W3 node API on tcp://{} (protocol v{}{})",
                listener.local_addr().map(|a| a.to_string()).unwrap_or(addr),
                ofl_rpc::PROTOCOL_VERSION,
                if options.sessions.is_some() {
                    ", persistent sessions"
                } else {
                    ""
                }
            );
            let stats = ofl_rpcd::serve_listener_with(listener, options);
            println!(
                "rpcd: served {} connections ({} accept errors, peak {} workers)",
                stats.connections, stats.accept_errors, stats.peak_workers
            );
        }
    }
}

#[cfg(unix)]
fn serve_unix(path: &str, options: DaemonOptions) {
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .unwrap_or_else(|e| usage(&format!("cannot bind {path}: {e}")));
    println!(
        "rpcd: serving the OFL-W3 node API on unix://{path} (protocol v{}{})",
        ofl_rpc::PROTOCOL_VERSION,
        if options.sessions.is_some() {
            ", persistent sessions"
        } else {
            ""
        }
    );
    let stats = ofl_rpcd::serve_unix_listener_with(listener, options);
    println!(
        "rpcd: served {} connections ({} accept errors, peak {} workers)",
        stats.connections, stats.accept_errors, stats.peak_workers
    );
}

#[cfg(not(unix))]
fn serve_unix(_path: &str, _options: DaemonOptions) {
    usage("--unix is only available on unix platforms");
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("rpcd: {error}");
    }
    eprintln!(
        "usage: rpcd [--tcp ADDR] [--unix PATH] [--max-conns N] \
         [--idle-timeout SECS] [--persist]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
