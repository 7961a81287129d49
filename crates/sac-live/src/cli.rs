//! Shared command-line plumbing for the serving binaries (`sac-serve`,
//! `sac-http`): graph-source selection, service tunables, and the listener
//! address for the HTTP front end.

use crate::failover::{find_superseding_primary, FailoverConfig};
use crate::http::HttpConfig;
use crate::replication::{spawn_shipper, Replica, ReplicaConfig, ShipConfig};
use crate::{Durability, FaultPlan, LiveEngine, SacService, ServiceConfig, SyncPolicy};
use sac_data::{DatasetKind, DatasetSpec};
use sac_engine::{EngineConfig, SacEngine};
use sac_graph::io::load_spatial_graph;
use sac_graph::SpatialGraph;
use sac_proto::EncodeOptions;
use std::sync::Arc;
use std::time::Duration;

/// Parsed options shared by the serving binaries.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Surrogate dataset preset (ignored when `edges`/`locations` are set).
    pub preset: DatasetKind,
    /// Preset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Preset generator seed.
    pub seed: Option<u64>,
    /// SNAP-style edge-list path (paired with `locations`).
    pub edges: Option<String>,
    /// Location-file path (paired with `edges`).
    pub locations: Option<String>,
    /// Worker threads for batched requests.
    pub threads: usize,
    /// Pre-build the k-core indexes for these `k`.
    pub warm: Vec<u32>,
    /// Include member lists in responses.
    pub members: bool,
    /// Include timing fields in responses (disable for deterministic,
    /// byte-comparable output).
    pub timing: bool,
    /// Slow-query capture threshold in microseconds (`Some(0)` disables the
    /// slow log; `None` keeps the engine default).
    pub slow_query_micros: Option<u64>,
    /// Slow-query ring capacity (`None` keeps the engine default).
    pub slowlog_capacity: Option<usize>,
    /// Head-sample a trace tree every N queries (`Some(0)` disables
    /// sampling; `None` keeps the engine default).
    pub trace_sample_every: Option<u64>,
    /// Write-ahead-log directory (`None` = no durability).  When the
    /// directory already holds WAL state, boot *recovers* from it instead of
    /// building the dataset graph.
    pub wal_dir: Option<String>,
    /// WAL fsync policy (`always`, `never`, or every N commits).
    pub wal_sync: SyncPolicy,
    /// Automatic checkpoint cadence in commits (`0` = manual only).
    pub checkpoint_every: u64,
    /// Boot as a read replica of this primary shipping address
    /// (conflicts with `--wal-dir`: a replica has no local WAL).
    pub replicate_from: Option<String>,
    /// Address the primary ships its WAL on (requires `--wal-dir`).
    pub ship_addr: Option<String>,
    /// Replica staleness threshold in milliseconds: without primary
    /// contact for longer, `/healthz` reports `degraded`.
    pub staleness_ms: u64,
    /// Leadership lease stamped into shipped heartbeats, in milliseconds
    /// (must stay below `staleness_ms`: a replica should degrade only
    /// *after* it had the chance to fail over).
    pub lease_ms: u64,
    /// Stable promotion-candidate id announced to the primary
    /// (with `--advertise` and `--failover-dir`; replicas only).
    pub replica_id: Option<u64>,
    /// Address this replica would ship from if promoted.
    pub advertise: Option<String>,
    /// Directory a promotion seeds the fresh primary WAL into.
    pub failover_dir: Option<String>,
    /// Peer shipping addresses a restarting primary probes before serving:
    /// a peer leading at a higher term demotes this node to its replica.
    pub peers: Vec<String>,
    /// Replication-link fault injection plan (testing; also settable via
    /// the `SAC_REPL_FAULTS` environment variable).
    pub faults: Option<FaultPlan>,
    /// Listener address (`sac-http` only).
    pub addr: String,
    /// Largest HTTP request body accepted, in bytes (`sac-http` only).
    pub max_body_bytes: usize,
    /// Per-request HTTP read timeout in milliseconds; `0` disables it
    /// (`sac-http` only).
    pub read_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            preset: DatasetKind::Brightkite,
            scale: 0.02,
            seed: None,
            edges: None,
            locations: None,
            threads: 4,
            warm: Vec::new(),
            members: true,
            timing: true,
            slow_query_micros: None,
            slowlog_capacity: None,
            trace_sample_every: None,
            wal_dir: None,
            wal_sync: SyncPolicy::Always,
            checkpoint_every: 64,
            replicate_from: None,
            ship_addr: None,
            staleness_ms: 3000,
            lease_ms: 1000,
            replica_id: None,
            advertise: None,
            failover_dir: None,
            peers: Vec::new(),
            faults: None,
            addr: "127.0.0.1:7878".to_string(),
            max_body_bytes: HttpConfig::default().max_body_bytes,
            read_timeout_ms: HttpConfig::default()
                .read_timeout
                .map_or(0, |t| t.as_millis() as u64),
        }
    }
}

fn parse_preset(name: &str) -> Option<DatasetKind> {
    match name.to_ascii_lowercase().as_str() {
        "brightkite" => Some(DatasetKind::Brightkite),
        "gowalla" => Some(DatasetKind::Gowalla),
        "flickr" => Some(DatasetKind::Flickr),
        "foursquare" => Some(DatasetKind::Foursquare),
        "syn1" => Some(DatasetKind::Syn1),
        "syn2" => Some(DatasetKind::Syn2),
        _ => None,
    }
}

/// The usage line for `binary` (the HTTP-only options are shown only when
/// accepted).
pub fn usage(binary: &str, with_addr: bool) -> String {
    let addr = if with_addr {
        " [--addr HOST:PORT] [--max-body BYTES] [--read-timeout-ms N]"
    } else {
        ""
    };
    format!(
        "usage: {binary} [--preset NAME] [--scale F] [--seed N] \
         [--edges FILE --locations FILE] [--threads N] [--warm K1,K2] \
         [--slow-query-micros N] [--slowlog-capacity N] \
         [--trace-sample-every N] [--wal-dir DIR] [--wal-sync always|never|N] \
         [--checkpoint-every N] [--ship-addr HOST:PORT] \
         [--replicate-from HOST:PORT] [--staleness-ms N] [--lease-ms N] \
         [--replica-id N --advertise HOST:PORT --failover-dir DIR] \
         [--peer HOST:PORT]... [--fault-inject SPEC] \
         [--no-members] [--no-timing]{addr}"
    )
}

/// Parses the shared serving options; `with_addr` additionally accepts
/// `--addr` (the HTTP listener).  An empty error message means "help was
/// requested".
pub fn parse_args(args: &[String], with_addr: bool) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--preset" => {
                let name = value("--preset")?;
                opts.preset =
                    parse_preset(&name).ok_or_else(|| format!("unknown preset '{name}'"))?;
            }
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or("--scale must be in (0, 1]")?;
            }
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer")?,
                );
            }
            "--edges" => opts.edges = Some(value("--edges")?),
            "--locations" => opts.locations = Some(value("--locations")?),
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse::<usize>()
                    .ok()
                    .filter(|t| *t >= 1)
                    .ok_or("--threads must be a positive integer")?;
            }
            "--warm" => {
                for part in value("--warm")?.split(',') {
                    opts.warm.push(
                        part.trim()
                            .parse()
                            .map_err(|_| format!("bad --warm value '{part}'"))?,
                    );
                }
            }
            "--no-members" => opts.members = false,
            "--no-timing" => opts.timing = false,
            "--slow-query-micros" => {
                opts.slow_query_micros = Some(
                    value("--slow-query-micros")?
                        .parse::<u64>()
                        .map_err(|_| "--slow-query-micros must be a non-negative integer")?,
                );
            }
            "--slowlog-capacity" => {
                opts.slowlog_capacity = Some(
                    value("--slowlog-capacity")?
                        .parse::<usize>()
                        .ok()
                        .filter(|c| *c >= 1)
                        .ok_or("--slowlog-capacity must be a positive integer")?,
                );
            }
            "--trace-sample-every" => {
                opts.trace_sample_every = Some(
                    value("--trace-sample-every")?
                        .parse::<u64>()
                        .map_err(|_| "--trace-sample-every must be a non-negative integer")?,
                );
            }
            "--wal-dir" => opts.wal_dir = Some(value("--wal-dir")?),
            "--wal-sync" => {
                let policy = value("--wal-sync")?;
                opts.wal_sync = SyncPolicy::parse(&policy)
                    .ok_or_else(|| format!("bad --wal-sync value '{policy}'"))?;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse::<u64>()
                    .map_err(|_| "--checkpoint-every must be a non-negative integer")?;
            }
            "--replicate-from" => opts.replicate_from = Some(value("--replicate-from")?),
            "--ship-addr" => opts.ship_addr = Some(value("--ship-addr")?),
            "--staleness-ms" => {
                opts.staleness_ms = value("--staleness-ms")?
                    .parse::<u64>()
                    .ok()
                    .filter(|ms| *ms >= 1)
                    .ok_or("--staleness-ms must be a positive integer")?;
            }
            "--lease-ms" => {
                opts.lease_ms = value("--lease-ms")?
                    .parse::<u64>()
                    .ok()
                    .filter(|ms| *ms >= 1)
                    .ok_or("--lease-ms must be a positive integer (a zero lease never expires)")?;
            }
            "--replica-id" => {
                opts.replica_id = Some(
                    value("--replica-id")?
                        .parse::<u64>()
                        .map_err(|_| "--replica-id must be a non-negative integer")?,
                );
            }
            "--advertise" => opts.advertise = Some(value("--advertise")?),
            "--failover-dir" => opts.failover_dir = Some(value("--failover-dir")?),
            "--peer" => opts.peers.push(value("--peer")?),
            "--fault-inject" => {
                let spec = value("--fault-inject")?;
                opts.faults =
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("bad --fault-inject: {e}"))?);
            }
            "--addr" if with_addr => opts.addr = value("--addr")?,
            "--max-body" if with_addr => {
                opts.max_body_bytes = value("--max-body")?
                    .parse::<usize>()
                    .ok()
                    .filter(|b| *b >= 1)
                    .ok_or("--max-body must be a positive byte count")?;
            }
            "--read-timeout-ms" if with_addr => {
                opts.read_timeout_ms = value("--read-timeout-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--read-timeout-ms must be a non-negative integer")?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.edges.is_some() != opts.locations.is_some() {
        return Err("--edges and --locations must be given together".into());
    }
    if opts.replicate_from.is_some() && opts.wal_dir.is_some() {
        return Err(
            "--replicate-from conflicts with --wal-dir: a replica tails the \
                    primary's log instead of keeping its own"
                .into(),
        );
    }
    if opts.ship_addr.is_some() && opts.wal_dir.is_none() {
        return Err("--ship-addr requires --wal-dir (the shipped log)".into());
    }
    if opts.lease_ms >= opts.staleness_ms {
        return Err(format!(
            "--lease-ms ({}) must be below --staleness-ms ({}): a replica must get the \
             chance to fail over before it reports itself degraded",
            opts.lease_ms, opts.staleness_ms
        ));
    }
    let promotion_flags = [
        opts.replica_id.is_some(),
        opts.advertise.is_some(),
        opts.failover_dir.is_some(),
    ];
    if promotion_flags.iter().any(|&f| f) {
        if !promotion_flags.iter().all(|&f| f) {
            return Err(
                "--replica-id, --advertise and --failover-dir must be given together \
                 (the failover identity is all three)"
                    .into(),
            );
        }
        if opts.replicate_from.is_none() {
            return Err(
                "--replica-id/--advertise/--failover-dir require --replicate-from \
                 (only a replica can stand for promotion)"
                    .into(),
            );
        }
    }
    if !opts.peers.is_empty() && opts.wal_dir.is_none() {
        return Err("--peer requires --wal-dir (the probe fences a restarting primary)".into());
    }
    Ok(opts)
}

impl ServeOptions {
    /// Builds the snapshot graph these options describe.
    pub fn build_graph(&self) -> Result<SpatialGraph, String> {
        if let (Some(edges), Some(locations)) = (&self.edges, &self.locations) {
            return load_spatial_graph(edges, locations)
                .map_err(|e| format!("failed to load graph: {e}"));
        }
        let mut spec = DatasetSpec::scaled(self.preset, self.scale);
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        Ok(spec.generate())
    }

    /// The service configuration these options describe.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            threads: self.threads,
            encode: EncodeOptions {
                members: self.members,
                timing: self.timing,
            },
        }
    }

    /// The HTTP transport limits these options describe (`sac-http` only).
    pub fn http_config(&self) -> HttpConfig {
        HttpConfig {
            max_body_bytes: self.max_body_bytes,
            read_timeout: (self.read_timeout_ms > 0)
                .then(|| Duration::from_millis(self.read_timeout_ms)),
        }
    }

    /// The engine configuration these options describe.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::default();
        if let Some(threshold) = self.slow_query_micros {
            config.slow_query_micros = threshold;
        }
        if let Some(capacity) = self.slowlog_capacity {
            config.slowlog_capacity = capacity;
        }
        if let Some(every) = self.trace_sample_every {
            config.trace_sample_every = every;
        }
        config
    }

    /// The durability configuration these options describe (`None` without
    /// `--wal-dir`).
    pub fn durability(&self) -> Option<Durability> {
        self.wal_dir.as_ref().map(|dir| Durability {
            dir: dir.into(),
            sync: self.wal_sync,
            checkpoint_every: self.checkpoint_every,
        })
    }

    /// The replication fault plan: the `--fault-inject` flag, falling back
    /// to the `SAC_REPL_FAULTS` environment variable.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.or_else(FaultPlan::from_env)
    }

    /// The failover identity these options describe (`None` unless the
    /// promotion trio `--replica-id`/`--advertise`/`--failover-dir` is set).
    pub fn failover_config(&self) -> Option<FailoverConfig> {
        let mut config = FailoverConfig::new(
            self.replica_id?,
            self.advertise.clone()?,
            self.failover_dir.clone()?,
        );
        config.ship = ShipConfig {
            lease_ms: self.lease_ms,
            faults: self.fault_plan(),
            ..ShipConfig::default()
        };
        Some(config)
    }

    /// Boots a read replica of `primary` and fronts it with a service.
    fn boot_replica(&self, primary: &str) -> Result<SacService, String> {
        let mut replica_config = ReplicaConfig::new(primary);
        replica_config.staleness = Duration::from_millis(self.staleness_ms);
        replica_config.engine = self.engine_config();
        replica_config.faults = self.fault_plan();
        replica_config.replica_id = self.replica_id;
        replica_config.advertise = self.advertise.clone();
        let replica = Replica::boot(replica_config)
            .map_err(|e| format!("replica bootstrap from {primary} failed: {e}"))?;
        eprintln!(
            "replica bootstrapped from {primary} at epoch {}",
            replica.status().applied_epoch()
        );
        if !self.warm.is_empty() {
            replica.engine().warm(&self.warm);
            eprintln!("warmed k-core indexes for k = {:?}", self.warm);
        }
        Ok(SacService::for_replica(replica, self.service_config()))
    }

    /// Builds the graph (or recovers it from the WAL directory), warms the
    /// requested indexes and stands up the protocol service.  With
    /// `--replicate-from` the service fronts a read replica instead; with
    /// `--ship-addr` the WAL-shipping endpoint is spawned alongside.  With
    /// `--peer`, a restarting primary first probes its peers and — when one
    /// leads at a higher term — demotes itself to that leader's replica
    /// instead of forking history from its stale WAL.
    pub fn build_service(&self) -> Result<SacService, String> {
        let config = self.engine_config();
        if let Some(primary) = &self.replicate_from {
            return self.boot_replica(primary);
        }
        let live = match self.durability() {
            Some(durability) if sac_wal::has_state(&durability.dir) => {
                // Prior WAL state wins over the dataset flags: boot replays
                // snapshot + log back to the pre-crash epoch.
                let (live, report) = LiveEngine::recover(durability, config)
                    .map_err(|e| format!("WAL recovery failed: {e}"))?;
                eprintln!(
                    "recovered epoch {} from WAL (snapshot epoch {}, {} records / {} \
                     mutations replayed, {} torn bytes truncated, clean_shutdown={}) \
                     in {}us",
                    report.epoch,
                    report.snapshot_epoch,
                    report.records_replayed,
                    report.mutations_replayed,
                    report.truncated_bytes,
                    report.clean_shutdown,
                    report.micros
                );
                live
            }
            durability => {
                let graph = self.build_graph()?;
                eprintln!(
                    "snapshot ready ({} vertices, {} edges), {} worker threads",
                    graph.num_vertices(),
                    graph.num_edges(),
                    self.threads
                );
                let engine = Arc::new(SacEngine::with_config(Arc::new(graph), config));
                match durability {
                    None => LiveEngine::new(engine),
                    Some(durability) => {
                        let dir = durability.dir.clone();
                        let live = LiveEngine::with_durability(engine, durability)
                            .map_err(|e| format!("failed to open WAL: {e}"))?;
                        eprintln!("WAL enabled under {}", dir.display());
                        live
                    }
                }
            }
        };
        if !self.peers.is_empty() {
            // Zombie fencing: a primary that was deposed while down finds a
            // peer leading at a higher term and rejoins as its replica (the
            // stale WAL tail is discarded by the snapshot bootstrap).
            let local_term = live.engine().term();
            if let Some((leader, term)) =
                find_superseding_primary(&self.peers, local_term, Duration::from_secs(2))
            {
                eprintln!(
                    "superseded: peer {leader} leads at term {term} (local term \
                     {local_term}); demoting to its replica"
                );
                drop(live);
                return self.boot_replica(&leader);
            }
        }
        let engine = live.engine();
        if !self.warm.is_empty() {
            engine.warm(&self.warm);
            eprintln!("warmed k-core indexes for k = {:?}", self.warm);
        }
        if let Some(ship_addr) = &self.ship_addr {
            let durability = self
                .durability()
                .expect("parse_args enforces --ship-addr requires --wal-dir");
            let listener = std::net::TcpListener::bind(ship_addr)
                .map_err(|e| format!("cannot bind shipping address {ship_addr}: {e}"))?;
            let ship_config = ShipConfig {
                lease_ms: self.lease_ms,
                faults: self.fault_plan(),
                ..ShipConfig::default()
            };
            let handle = spawn_shipper(listener, durability.dir, Arc::clone(engine), ship_config)
                .map_err(|e| format!("cannot start WAL shipper: {e}"))?;
            eprintln!("shipping WAL to replicas on {}", handle.addr());
        }
        Ok(SacService::with_live(live, self.service_config()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_shared_and_http_options() {
        let opts = parse_args(
            &args(&[
                "--preset",
                "syn1",
                "--scale",
                "0.5",
                "--seed",
                "7",
                "--threads",
                "2",
                "--warm",
                "2,4",
                "--slow-query-micros",
                "2500",
                "--slowlog-capacity",
                "32",
                "--trace-sample-every",
                "16",
                "--no-members",
                "--no-timing",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(opts.preset, DatasetKind::Syn1);
        assert_eq!(opts.scale, 0.5);
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.warm, vec![2, 4]);
        assert_eq!(opts.slow_query_micros, Some(2500));
        assert_eq!(opts.slowlog_capacity, Some(32));
        assert_eq!(opts.trace_sample_every, Some(16));
        assert!(!opts.members && !opts.timing);
        let config = opts.service_config();
        assert!(!config.encode.members && !config.encode.timing);

        let opts = parse_args(
            &args(&[
                "--addr",
                "0.0.0.0:9000",
                "--max-body",
                "4096",
                "--read-timeout-ms",
                "250",
            ]),
            true,
        )
        .unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9000");
        let http = opts.http_config();
        assert_eq!(http.max_body_bytes, 4096);
        assert_eq!(http.read_timeout, Some(Duration::from_millis(250)));
        // Timeout 0 disables the read deadline.
        let opts = parse_args(&args(&["--read-timeout-ms", "0"]), true).unwrap();
        assert_eq!(opts.http_config().read_timeout, None);
        // --addr (and the other HTTP-only limits) are rejected where they
        // make no sense (the LDJSON binary).
        assert!(parse_args(&args(&["--addr", "x"]), false).is_err());
        assert!(parse_args(&args(&["--max-body", "10"]), false).is_err());
        assert!(parse_args(&args(&["--max-body", "0"]), true).is_err());
        assert!(parse_args(&args(&["--slow-query-micros", "x"]), false).is_err());
        assert!(parse_args(&args(&["--slowlog-capacity", "0"]), false).is_err());
        assert!(parse_args(&args(&["--trace-sample-every", "x"]), false).is_err());
        assert!(parse_args(&args(&["--scale", "2"]), false).is_err());
        // Durability flags parse on both binaries.
        let opts = parse_args(
            &args(&[
                "--wal-dir",
                "/tmp/wal",
                "--wal-sync",
                "8",
                "--checkpoint-every",
                "100",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(opts.wal_dir.as_deref(), Some("/tmp/wal"));
        assert_eq!(opts.wal_sync, SyncPolicy::EveryN(8));
        assert_eq!(opts.checkpoint_every, 100);
        let durability = opts.durability().unwrap();
        assert_eq!(durability.sync, SyncPolicy::EveryN(8));
        assert_eq!(durability.checkpoint_every, 100);
        let opts = parse_args(&args(&["--wal-sync", "never"]), true).unwrap();
        assert_eq!(opts.wal_sync, SyncPolicy::Never);
        assert!(opts.durability().is_none(), "no --wal-dir, no durability");
        assert!(parse_args(&args(&["--wal-sync", "sometimes"]), false).is_err());
        assert!(parse_args(&args(&["--checkpoint-every", "x"]), false).is_err());
        assert!(parse_args(&args(&["--edges", "a.txt"]), false).is_err());
        // Replication flags.
        let opts = parse_args(
            &args(&[
                "--wal-dir",
                "/tmp/wal",
                "--ship-addr",
                "127.0.0.1:7900",
                "--fault-inject",
                "seed=3,drop=0.1",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(opts.ship_addr.as_deref(), Some("127.0.0.1:7900"));
        assert_eq!(opts.fault_plan().unwrap().drop, 0.1);
        let opts = parse_args(
            &args(&[
                "--replicate-from",
                "127.0.0.1:7900",
                "--staleness-ms",
                "500",
                "--lease-ms",
                "200",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(opts.replicate_from.as_deref(), Some("127.0.0.1:7900"));
        assert_eq!(opts.staleness_ms, 500);
        assert_eq!(opts.lease_ms, 200);
        // A replica keeps no local WAL; a shipper needs one.
        assert!(parse_args(
            &args(&["--replicate-from", "a:1", "--wal-dir", "/tmp/w"]),
            false
        )
        .is_err());
        assert!(parse_args(&args(&["--ship-addr", "a:1"]), false).is_err());
        assert!(parse_args(&args(&["--staleness-ms", "0"]), false).is_err());
        assert!(parse_args(&args(&["--fault-inject", "nope=1"]), false).is_err());
        // Failover flags: zero leases and lease >= staleness are rejected at
        // parse time with explicit messages, not discovered at runtime.
        assert!(parse_args(&args(&["--lease-ms", "0"]), false)
            .unwrap_err()
            .contains("--lease-ms"));
        let err = parse_args(
            &args(&["--staleness-ms", "1000", "--lease-ms", "1000"]),
            false,
        )
        .unwrap_err();
        assert!(err.contains("below --staleness-ms"), "got: {err}");
        // The promotion identity is all-or-none and replica-only.
        assert!(parse_args(&args(&["--replica-id", "1"]), false)
            .unwrap_err()
            .contains("given together"));
        let trio = [
            "--replica-id",
            "1",
            "--advertise",
            "127.0.0.1:7901",
            "--failover-dir",
            "/tmp/f",
        ];
        assert!(parse_args(&args(&trio), false)
            .unwrap_err()
            .contains("--replicate-from"));
        let full: Vec<&str> = ["--replicate-from", "127.0.0.1:7900"]
            .iter()
            .chain(trio.iter())
            .copied()
            .collect();
        let opts = parse_args(&args(&full), false).unwrap();
        assert_eq!(opts.replica_id, Some(1));
        let failover = opts.failover_config().unwrap();
        assert_eq!(failover.replica_id, 1);
        assert_eq!(failover.advertise, "127.0.0.1:7901");
        assert_eq!(failover.ship.lease_ms, 1000);
        // Probing peers is a primary-side (WAL-holding) concern.
        assert!(parse_args(&args(&["--peer", "a:1"]), false)
            .unwrap_err()
            .contains("--wal-dir"));
        let opts = parse_args(
            &args(&["--wal-dir", "/tmp/w", "--peer", "a:1", "--peer", "b:2"]),
            false,
        )
        .unwrap();
        assert_eq!(opts.peers, vec!["a:1", "b:2"]);
        assert!(opts.failover_config().is_none(), "no trio, no failover");
        assert_eq!(parse_args(&args(&["--help"]), false).unwrap_err(), "");
        assert!(usage("sac-http", true).contains("--addr"));
        assert!(!usage("sac-serve", false).contains("--addr"));
    }
}
