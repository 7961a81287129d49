//! `sac-http` — the HTTP/1.1 SAC serving front end: a hand-rolled
//! `std::net::TcpListener` server that is a thin shell around the shared
//! [`sac_live::SacService`], speaking the same `sac-proto` protocol as
//! `sac-serve` (payloads are byte-identical).
//!
//! ```text
//! sac-http [OPTIONS]
//!
//! Graph source, serving, durability and replication options: identical to
//! sac-serve (including `--wal-dir`/`--wal-sync`/`--checkpoint-every`,
//! `--ship-addr`/`--replicate-from`/`--staleness-ms`/`--fault-inject` and
//! the failover flags `--lease-ms`/`--replica-id`/`--advertise`/
//! `--failover-dir`/`--peer`), plus
//!   --addr <host:port>   listener address (default: 127.0.0.1:7878)
//!
//! Routes:
//!   POST /api            body = one protocol JSON document
//!   GET  /stats          shorthand for {"cmd":"stats"}
//!   GET  /metrics        Prometheus text exposition of the whole stack
//!   GET  /healthz        liveness probe (epoch, uptime, WAL and
//!                        replication state; "degraded" on a stale replica)
//!
//! With `--wal-dir`, SIGINT/SIGTERM flush the log and write a
//! clean-shutdown marker before the process exits.
//!
//! Example:
//!   $ sac-http --preset brightkite --scale 0.02 --warm 4 &
//!   $ curl -s -d '{"q":17,"k":4,"ratio":1.5}' http://127.0.0.1:7878/api
//! ```

use sac_live::{cli, http};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse_args(&args, true) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sac-http: {message}");
            }
            eprintln!("{}", cli::usage("sac-http", true));
            return ExitCode::from(2);
        }
    };
    let service = match opts.build_service() {
        Ok(service) => Arc::new(service),
        Err(message) => {
            eprintln!("sac-http: {message}");
            return ExitCode::FAILURE;
        }
    };
    if opts.wal_dir.is_some() {
        let flush = Arc::clone(&service);
        sac_wal::signals::on_shutdown(Box::new(move || match flush.live().shutdown_flush() {
            Ok(true) => eprintln!("sac-http: WAL flushed, clean-shutdown marker written"),
            Ok(false) => {}
            Err(e) => eprintln!("sac-http: WAL flush failed on shutdown: {e}"),
        }));
    }
    // A promotion-capable replica watches its lease; the handle keeps the
    // watchdog alive for the life of the process.
    let _failover = opts
        .failover_config()
        .and_then(|config| sac_live::failover::arm(Arc::clone(&service), config));
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("sac-http: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sac-http: listening on http://{}", opts.addr);
    match http::serve_http_with(service, listener, opts.http_config()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sac-http: io error: {e}");
            ExitCode::FAILURE
        }
    }
}
