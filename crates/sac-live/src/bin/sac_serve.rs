//! `sac-serve` — the line-delimited-JSON SAC serving front end over
//! stdin/stdout: a thin shell around the shared [`sac_live::SacService`],
//! speaking the `sac-proto` protocol.
//!
//! ```text
//! sac-serve [OPTIONS]
//!
//! Graph source (pick one):
//!   --preset <name>      surrogate dataset: brightkite, gowalla, flickr,
//!                        foursquare, syn1, syn2          (default: brightkite)
//!   --scale <f>          preset scale factor in (0, 1]   (default: 0.02)
//!   --seed <n>           preset generator seed
//!   --edges <file> --locations <file>
//!                        load a SNAP-style edge list + location file
//!
//! Serving:
//!   --threads <n>        worker threads for batched requests (default: 4)
//!   --warm <k1,k2,...>   pre-build the k-core indexes for these k
//!   --slow-query-micros <n>
//!                        slow-query log threshold (default: 10000; 0 = off)
//!   --no-members         omit member lists from responses (ids/sizes only)
//!   --no-timing          omit wall-clock fields (deterministic output)
//!
//! Durability:
//!   --wal-dir <dir>      write-ahead log directory; when it already holds
//!                        WAL state, boot recovers from it instead of
//!                        building the dataset graph
//!   --wal-sync <p>       fsync policy: always | never | N (every N commits)
//!   --checkpoint-every <n>
//!                        snapshot checkpoint cadence in commits
//!                        (default: 64; 0 = manual `checkpoint` command only)
//!
//! Replication:
//!   --ship-addr <host:port>
//!                        ship the WAL to read replicas on this address
//!                        (requires --wal-dir)
//!   --replicate-from <host:port>
//!                        boot as a read replica of this primary: bootstrap
//!                        from its snapshot, tail its log, serve reads at
//!                        the applied epoch (mutations get a redirect;
//!                        conflicts with --wal-dir)
//!   --staleness-ms <n>   degrade health after this long without primary
//!                        contact (default: 3000)
//!   --lease-ms <n>       leadership lease stamped into shipped heartbeats
//!                        (default: 1000; must stay below --staleness-ms)
//!   --replica-id <n> --advertise <host:port> --failover-dir <dir>
//!                        stand for promotion: when the lease expires, the
//!                        lowest connected id promotes itself in place
//!   --peer <host:port>   probe this peer before serving writes; a peer
//!                        leading at a higher term demotes this restarted
//!                        primary to its replica (repeatable)
//!   --fault-inject <spec>
//!                        inject replication-link faults, e.g.
//!                        seed=7,drop=0.1,dup=0.05,corrupt=0.05,
//!                        truncate=0.02,delay=0.1:5 (testing)
//!
//! Protocol: one JSON document per input line (see the `sac-proto` crate
//! docs); every non-blank input line produces exactly one output line.
//! Mutations maintain the k-core structure incrementally; `commit` swaps in a
//! new snapshot epoch while in-flight queries finish on the old one.  The
//! same protocol is served over HTTP by the `sac-http` binary.  With
//! `--wal-dir`, SIGINT/SIGTERM (and end of input) flush the log and leave a
//! clean-shutdown marker so the next boot skips torn-tail scanning.
//! ```

use sac_live::{cli, ldjson};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse_args(&args, false) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sac-serve: {message}");
            }
            eprintln!("{}", cli::usage("sac-serve", false));
            return ExitCode::from(2);
        }
    };
    let service = match opts.build_service() {
        Ok(service) => Arc::new(service),
        Err(message) => {
            eprintln!("sac-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    if opts.wal_dir.is_some() {
        let flush = Arc::clone(&service);
        sac_wal::signals::on_shutdown(Box::new(move || match flush.live().shutdown_flush() {
            Ok(true) => eprintln!("sac-serve: WAL flushed, clean-shutdown marker written"),
            Ok(false) => {}
            Err(e) => eprintln!("sac-serve: WAL flush failed on shutdown: {e}"),
        }));
    }
    // A promotion-capable replica watches its lease; the handle keeps the
    // watchdog alive for the life of the process.
    let _failover = opts
        .failover_config()
        .and_then(|config| sac_live::failover::arm(Arc::clone(&service), config));
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout();
    let out = std::io::BufWriter::new(stdout.lock());
    let served = ldjson::serve(service.as_ref(), stdin, out);
    // End of input (or `quit`) is also an orderly exit: seal the log.
    if let Err(e) = service.live().shutdown_flush() {
        eprintln!("sac-serve: WAL flush failed on exit: {e}");
        return ExitCode::FAILURE;
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sac-serve: io error: {e}");
            ExitCode::FAILURE
        }
    }
}
