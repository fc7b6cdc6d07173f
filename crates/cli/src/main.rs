//! `vl` — command-line front end for the live volume-lease stack.
//!
//! ```text
//! vl serve --addr 127.0.0.1:7400 [--objects 10] [--volume-lease-ms 2000]
//!          [--object-lease-ms 60000] [--write-every-ms 5000] [--best-effort]
//!          [--self-inval [--skew-bound-ms 1000]] [--stable PATH] [--trace-out PATH]
//!          [--chaos-profile off|drops|delays|partitions|havoc] [--chaos-seed N]
//!     Run a lease server over TCP, seeding `--objects` demo objects and
//!     optionally rewriting one of them on a timer so invalidations flow.
//!     With a chaos profile the server's endpoint is wrapped in the
//!     seeded fault injector from `vl-net`, so every connected client
//!     sees drops/delays/resets without any external tooling.
//!
//! vl get --addr 127.0.0.1:7400 --object 3 [--client-id 1] [--watch MS]
//!     Read an object with strong consistency; `--watch` re-reads on an
//!     interval and prints every observed version change.
//!
//! vl demo
//!     Self-contained in-process walkthrough: server, three clients, a
//!     partition, delayed invalidations, and a reconnection.
//!
//! vl gen --out PATH [--preset smoke|medium|paper] [--seed N]
//!     Generate a synthetic web trace and cache it in the `vltrace`
//!     binary format.
//!
//! vl sim --trace PATH --protocol NAME [--t SECS] [--tv SECS] [--d SECS]
//!        [--trace-out PATH]
//!     Replay a cached trace under one consistency algorithm and print
//!     its cost summary. Protocols: poll-each-read, poll, callback,
//!     lease, wait-lease, self-inval, volume, delay (`--skew` sets the
//!     self-inval clock-skew bound ε, seconds). `--trace-out`
//!     additionally writes every protocol event as JSONL for `vl report`.
//!
//! vl sim --chaos-profile off|drops|delays|partitions|havoc [--chaos-seed N]
//!        [--steps N] [--self-inval [--skew-bound-ms N]] [--clock-skew-ms N]
//!     Chaos mode: no trace needed. Runs the deterministic state-machine
//!     fault harness with a profile-derived fault mix and prints the
//!     invariant report; exits non-zero if any invariant was violated.
//!     `--self-inval` switches the machines to self-invalidation with
//!     precise clocks (skew bound ε from `--skew-bound-ms`), and
//!     `--clock-skew-ms` injects real per-client clock error — push it
//!     past ε to watch the protocol's hazard surface as violations.
//!
//! vl report --trace PATH [--top N]
//!     Summarize a JSONL protocol trace (from `--trace-out` here or on
//!     `vl-bench`): per-run message mix, stale reads,
//!     write-delay percentiles, invalidation batches, hottest volumes,
//!     and — when the trace interleaves several servers — a per-server
//!     breakdown.
//!
//! vl rebalance --map FILE --volume N --to ID [--from ID] [--timeout-ms N]
//!     Move a volume between two running servers, live. The coordinator
//!     dials both (addresses from the topology FILE), asks the current
//!     owner for an epoch-bumped handoff manifest, and relays it to the
//!     gaining server; clients re-sync via the ordinary MUST_RENEW_ALL
//!     path. `--from` defaults to the map's rendezvous owner.
//! ```
//!
//! `vl serve --shard-map FILE` loads the same topology file and seeds
//! the server's routing table, so requests for volumes it does not host
//! answer WRONG_SHARD redirects. Topology files are one server per
//! line, `<server-id> <host:port>`, with `#` comments.
//!
//! # Layering
//!
//! Per DESIGN.md §7 the binary holds no protocol logic: `serve`/`get`/
//! `demo` assemble the thin drivers (`vl-server`, `vl-client`) over a
//! transport, `gen`/`sim` call the pure workload and simulator layers,
//! and `report` folds a JSONL trace with the same `vl-metrics`
//! histograms the simulator records into.

mod report;

use bytes::Bytes;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration as StdDuration;
use vl_client::{CacheClient, ClientConfig};
use vl_net::chaos::{ChaosNet, ChaosProfile};
use vl_net::poll::{PollConfig, PollNode, Reactor};
use vl_net::shard::ShardedNode;
use vl_net::{Channel, InMemoryNetwork, NodeId};
use vl_server::{LeaseServer, ServerConfig, WallClock, WriteMode};
use vl_types::{ClientId, ObjectId, ServerId, ShardMap, VolumeId};

fn usage() -> ! {
    eprintln!(
        "usage:\n  vl serve --addr HOST:PORT [--objects N] [--volume-lease-ms N] \
         [--object-lease-ms N] [--write-every-ms N] [--best-effort] \
         [--self-inval [--skew-bound-ms N]] [--stable PATH] \
         [--trace-out PATH] [--chaos-profile off|drops|delays|partitions|havoc] \
         [--chaos-seed N] [--port-file PATH] [--idle-ms N] [--queue-cap N] \
         [--reactors N] [--shard-map FILE]\n  \
         vl get --addr HOST:PORT --object N [--client-id N] [--watch MS] [--self-inval]\n  \
         vl demo\n  \
         vl gen --out PATH [--preset smoke|medium|paper] [--seed N]\n  \
         vl sim --trace PATH --protocol NAME [--t S] [--tv S] [--d S|inf] [--skew S] \
         [--trace-out PATH]\n  \
         vl sim --chaos-profile NAME [--chaos-seed N] [--steps N] \
         [--self-inval [--skew-bound-ms N]] [--clock-skew-ms N]\n  \
         vl report --trace PATH [--top N]\n  \
         vl rebalance --map FILE --volume N --to ID [--from ID] [--timeout-ms N]"
    );
    exit(2)
}

/// Tiny flag parser: `--name value` pairs plus boolean flags.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}: {v}");
                exit(2)
            }),
        }
    }
}

/// Parses `--chaos-profile` / `--chaos-seed`. A seed without a profile
/// implies `havoc`; profile `off` (or neither flag) means no chaos.
fn chaos_opts(args: &Args) -> Option<(ChaosProfile, u64)> {
    let seed: u64 = args.parsed("--chaos-seed", 42);
    let profile = match args.value("--chaos-profile") {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        }),
        None if args.value("--chaos-seed").is_some() => ChaosProfile::Havoc,
        None => ChaosProfile::Off,
    };
    (profile != ChaosProfile::Off).then_some((profile, seed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        usage()
    };
    let args = Args(argv[1..].to_vec());
    match cmd {
        "serve" => serve(&args),
        "get" => get(&args),
        "demo" => demo(),
        "gen" => gen(&args),
        "sim" => sim(&args),
        "report" => report_cmd(&args),
        "rebalance" => rebalance_cmd(&args),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown subcommand '{other}'");
            usage()
        }
    }
}

fn gen(args: &Args) {
    use vl_workload::{TraceGenerator, WorkloadConfig, WorkloadPreset};
    let Some(out) = args.value("--out") else {
        eprintln!("gen needs --out PATH");
        exit(2)
    };
    let preset = match args.value("--preset").unwrap_or("medium") {
        "smoke" => WorkloadPreset::Smoke,
        "medium" => WorkloadPreset::Medium,
        "paper" => WorkloadPreset::Paper,
        other => {
            eprintln!("unknown preset '{other}'");
            exit(2)
        }
    };
    let mut cfg = WorkloadConfig::preset(preset);
    if let Some(seed) = args.value("--seed") {
        cfg.seed = seed.parse().unwrap_or_else(|_| {
            eprintln!("--seed must be an integer");
            exit(2)
        });
    }
    let trace = TraceGenerator::new(cfg).generate();
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1)
    }));
    vl_workload::io::write_trace(&mut file, &trace).unwrap_or_else(|e| {
        eprintln!("write failed: {e}");
        exit(1)
    });
    println!(
        "wrote {out}: {} reads, {} writes, {} objects, {} volumes, {:.1} days",
        trace.read_count(),
        trace.write_count(),
        trace.universe().object_count(),
        trace.universe().volume_count(),
        trace.span().as_secs_f64() / 86_400.0
    );
}

fn sim(args: &Args) {
    use vl_core::{ProtocolKind, SimulationBuilder};
    use vl_types::Duration;
    if let Some((profile, seed)) = chaos_opts(args) {
        return sim_chaos(args, profile, seed);
    }
    let Some(path) = args.value("--trace") else {
        eprintln!("sim needs --trace PATH (create one with `vl gen`)");
        exit(2)
    };
    let Some(protocol) = args.value("--protocol") else {
        eprintln!("sim needs --protocol NAME");
        exit(2)
    };
    let t = Duration::from_secs(args.parsed("--t", 100_000u64));
    let tv = Duration::from_secs(args.parsed("--tv", 10u64));
    let d = match args.value("--d") {
        None | Some("inf") => Duration::MAX,
        Some(v) => Duration::from_secs(v.parse().unwrap_or_else(|_| {
            eprintln!("--d must be an integer or 'inf'");
            exit(2)
        })),
    };
    let kind = match protocol {
        "poll-each-read" => ProtocolKind::PollEachRead,
        "poll" => ProtocolKind::Poll { timeout: t },
        "callback" => ProtocolKind::Callback,
        "lease" => ProtocolKind::Lease { timeout: t },
        "wait-lease" => ProtocolKind::WaitingLease { timeout: t },
        "self-inval" => ProtocolKind::SelfInval {
            timeout: t,
            skew_bound: Duration::from_secs(args.parsed("--skew", 1u64)),
        },
        "volume" => ProtocolKind::VolumeLease {
            volume_timeout: tv,
            object_timeout: t,
        },
        "delay" => ProtocolKind::DelayedInvalidation {
            volume_timeout: tv,
            object_timeout: t,
            inactive_discard: d,
        },
        other => {
            eprintln!(
                "unknown protocol '{other}' (want poll-each-read|poll|callback|lease|                 wait-lease|self-inval|volume|delay)"
            );
            exit(2)
        }
    };
    let mut file = std::io::BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    }));
    let trace = vl_workload::io::read_trace(&mut file).unwrap_or_else(|e| {
        eprintln!("cannot read trace: {e}");
        exit(1)
    });
    let report = match args.value("--trace-out") {
        None => SimulationBuilder::new(kind).run(&trace),
        Some(out) => {
            use vl_metrics::{JsonlSink, TraceSink};
            let file = std::fs::File::create(out).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            });
            let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(file));
            let (report, mut sink) = SimulationBuilder::new(kind).run_traced(&trace, sink);
            sink.flush();
            println!("(protocol trace written to {out} — inspect with `vl report --trace {out}`)");
            report
        }
    };
    println!("protocol:        {kind}");
    println!("reads:           {}", report.summary.reads);
    println!("messages:        {}", report.summary.messages);
    println!("msgs/read:       {:.4}", report.messages_per_read());
    println!("bytes:           {}", report.summary.bytes);
    println!(
        "stale reads:     {} ({:.3}%)",
        report.summary.stale_reads,
        report.summary.stale_fraction * 100.0
    );
    println!(
        "max write delay: {:.1}s",
        report.summary.max_write_delay_secs
    );
}

/// `vl sim --chaos-profile ...`: run the deterministic fault harness
/// with a fault mix derived from the named profile and report whether
/// the consistency invariants held.
fn sim_chaos(args: &Args, profile: ChaosProfile, seed: u64) {
    use vl_core::machine::harness::{run, FaultConfig};
    use vl_types::Duration;
    // The harness expresses faults per workload step rather than per
    // message, so each wire profile maps onto the nearest step mix.
    let mut cfg = match profile {
        ChaosProfile::Off => FaultConfig {
            drop_prob: 0.0,
            client_crash_prob: 0.0,
            server_crash_prob: 0.0,
            partition_prob: 0.0,
            ..FaultConfig::havoc(seed)
        },
        ChaosProfile::Drops => FaultConfig::drops(seed),
        ChaosProfile::Delays => FaultConfig::delays(seed),
        ChaosProfile::Partitions => FaultConfig::partitions(seed),
        ChaosProfile::Havoc => FaultConfig::havoc(seed),
    };
    cfg.steps = args.parsed("--steps", cfg.steps);
    if args.flag("--self-inval") {
        cfg.self_inval = Some(Duration::from_millis(
            args.parsed("--skew-bound-ms", 1_000u64),
        ));
    }
    cfg.clock_skew = Duration::from_millis(args.parsed("--clock-skew-ms", 0u64));
    let report = run(&cfg);
    println!("chaos profile:   {profile} (seed {seed})");
    if let Some(eps) = cfg.self_inval {
        println!(
            "protocol:        self-inval (skew bound {:.2}s, injected skew up to {:.2}s)",
            eps.as_secs_f64(),
            cfg.clock_skew.as_secs_f64()
        );
        println!("invalidations:   {} sent", report.invalidations_sent);
    }
    println!("steps:           {}", report.steps);
    println!(
        "reads:           {} delivered ({} local), {} timed out, {} aborted",
        report.reads_delivered, report.local_reads, report.reads_timed_out, report.reads_aborted
    );
    println!(
        "writes:          {} enqueued, {} completed, {} lost",
        report.writes_enqueued, report.writes_completed, report.writes_lost
    );
    println!(
        "max write delay: {:.2}s",
        report.max_write_delay.as_secs_f64()
    );
    println!(
        "faults:          {} msgs dropped, {} partitions, {} client crashes, {} server crashes",
        report.messages_dropped, report.partitions, report.client_crashes, report.server_crashes
    );
    println!("reconnections:   {}", report.reconnections);
    println!(
        "invariants:      {} checks, {} violations",
        report.invariant_checks,
        report.violations.len()
    );
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        exit(1);
    }
}

fn report_cmd(args: &Args) {
    let Some(path) = args.value("--trace") else {
        eprintln!("report needs --trace PATH (write one with --trace-out)");
        exit(2)
    };
    let top: usize = args.parsed("--top", 3);
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    });
    let (runs, skipped) = report::summarize(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    if runs.is_empty() {
        println!("{path}: no trace events");
        return;
    }
    for run in &runs {
        print!("{}", report::render(run, top));
    }
    if skipped > 0 {
        eprintln!("({skipped} unparseable lines skipped)");
    }
}

/// Parses a shard-topology file: one `<server-id> <host:port>` pair per
/// line, blank lines and `#` comments ignored. Returns `(id, addr)`
/// pairs in file order.
fn read_topology(path: &str) -> Vec<(ServerId, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read topology {path}: {e}");
        exit(1)
    });
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
            eprintln!("{path}:{}: want `<server-id> <host:port>`", lineno + 1);
            exit(2)
        };
        let id: u32 = id.parse().unwrap_or_else(|_| {
            eprintln!("{path}:{}: server id must be an integer", lineno + 1);
            exit(2)
        });
        out.push((ServerId(id), addr.to_owned()));
    }
    if out.is_empty() {
        eprintln!("{path}: no servers listed");
        exit(2)
    }
    out
}

/// `vl rebalance` — coordinator for a live volume handoff: two TCP
/// dials and the two-hop relay from `vl_server::rebalance`.
fn rebalance_cmd(args: &Args) {
    let Some(map_path) = args.value("--map") else {
        eprintln!("rebalance needs --map FILE (the shard topology)");
        exit(2)
    };
    let Some(volume) = args.value("--volume") else {
        eprintln!("rebalance needs --volume N");
        exit(2)
    };
    let volume = VolumeId(volume.parse().unwrap_or_else(|_| {
        eprintln!("--volume must be an integer");
        exit(2)
    }));
    let Some(to) = args.value("--to") else {
        eprintln!("rebalance needs --to SERVER_ID");
        exit(2)
    };
    let to = ServerId(to.parse().unwrap_or_else(|_| {
        eprintln!("--to must be an integer server id");
        exit(2)
    }));
    let topology = read_topology(map_path);
    let map = ShardMap::new(topology.iter().map(|&(id, _)| id).collect());
    let from = match args.value("--from") {
        Some(v) => ServerId(v.parse().unwrap_or_else(|_| {
            eprintln!("--from must be an integer server id");
            exit(2)
        })),
        // Without --from, the rendezvous owner is the presumed holder.
        None => map.owner(volume).expect("topology is non-empty"),
    };
    if from == to {
        eprintln!("volume {volume} is already on server {to}");
        return;
    }
    let addr_of = |id: ServerId| -> std::net::SocketAddr {
        let Some((_, addr)) = topology.iter().find(|&&(s, _)| s == id) else {
            eprintln!("server {id} is not in {map_path}");
            exit(2)
        };
        addr.parse().unwrap_or_else(|e| {
            eprintln!("bad address {addr} for server {id}: {e}");
            exit(2)
        })
    };
    // The coordinator identifies itself as a server outside the fleet's
    // id range so replies route back over these connections.
    let coord = NodeId::Server(ServerId(args.parsed("--coordinator-id", 1000u32)));
    let connect = |id: ServerId| {
        dial(coord, addr_of(id)).unwrap_or_else(|e| {
            eprintln!("cannot connect to server {id}: {e}");
            exit(1)
        })
    };
    let (loser, gainer) = (connect(from), connect(to));
    let timeout = StdDuration::from_millis(args.parsed("--timeout-ms", 5_000u64));
    match vl_server::rebalance(&loser, from, &gainer, to, volume, timeout) {
        Ok(out) => println!(
            "moved {volume} from server {from} to server {to}: epoch {}, \
             {} objects shipped, write gate {}",
            out.epoch, out.objects, out.write_gate
        ),
        Err(e) => {
            eprintln!("rebalance failed: {e}");
            exit(1)
        }
    }
}

/// A node on a reactor of its own, connected to `addr`.
fn dial(id: NodeId, addr: std::net::SocketAddr) -> std::io::Result<PollNode> {
    let node = Reactor::spawn(PollConfig::default())?.node(id);
    node.dial(addr)?;
    Ok(node)
}

fn serve(args: &Args) {
    let Some(addr) = args.value("--addr") else {
        eprintln!("serve needs --addr HOST:PORT");
        exit(2)
    };
    let server_id = ServerId(args.parsed("--server-id", 0u32));
    let objects: u64 = args.parsed("--objects", 10);
    let cfg = ServerConfig {
        volume_lease: StdDuration::from_millis(args.parsed("--volume-lease-ms", 2_000)),
        object_lease: StdDuration::from_millis(args.parsed("--object-lease-ms", 60_000)),
        write_mode: if args.flag("--best-effort") {
            WriteMode::BestEffort
        } else {
            WriteMode::Blocking
        },
        stable_path: args.value("--stable").map(Into::into),
        self_inval: args
            .flag("--self-inval")
            .then(|| StdDuration::from_millis(args.parsed("--skew-bound-ms", 1_000u64))),
        ..ServerConfig::new(server_id)
    };
    let mut poll_cfg = PollConfig::default();
    if let Some(ms) = args.value("--idle-ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| {
            eprintln!("--idle-ms must be an integer (0 disables the idle deadline)");
            exit(2)
        });
        poll_cfg.idle_deadline = (ms > 0).then(|| StdDuration::from_millis(ms));
    }
    poll_cfg.queue_cap = args.parsed("--queue-cap", poll_cfg.queue_cap);
    // The fd set is sharded across N epoll loops via SO_REUSEPORT
    // (DESIGN.md §12); one shard is simply a plain node.
    let reactors: usize = args.parsed("--reactors", 1usize).max(1);
    let node = ShardedNode::listen(NodeId::Server(server_id), addr, reactors, poll_cfg)
        .unwrap_or_else(|e| {
            eprintln!("cannot listen on {addr} with {reactors} reactor(s): {e}");
            exit(1)
        });
    let bound = node.local_addr();
    let node: Arc<dyn Channel> = Arc::new(node);
    // With `--addr 127.0.0.1:0` the kernel picks the port; a parent
    // process (a script, a test harness) learns it from this file.
    if let Some(path) = args.value("--port-file") {
        let tmp = format!("{path}.tmp");
        if let Err(e) = std::fs::write(&tmp, format!("{}\n", bound.port()))
            .and_then(|()| std::fs::rename(&tmp, path))
        {
            eprintln!("cannot write --port-file {path}: {e}");
            exit(1)
        }
    }
    let endpoint: Arc<dyn Channel> = match chaos_opts(args) {
        None => node,
        Some((profile, seed)) => {
            let chaos = ChaosNet::new(profile.config(seed));
            println!("(chaos profile '{profile}' seed {seed} injected on the server endpoint)");
            Arc::new(chaos.wrap(node))
        }
    };
    let clock = WallClock::new();
    let server = match args.value("--trace-out") {
        None => LeaseServer::spawn(cfg, endpoint, clock),
        Some(out) => {
            use vl_metrics::JsonlSink;
            let file = std::fs::File::create(out).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            });
            println!("(tracing protocol events to {out})");
            LeaseServer::spawn_traced(cfg, endpoint, clock, Box::new(JsonlSink::new(file)))
        }
    };
    for i in 0..objects {
        server.create_object(ObjectId(i), Bytes::from(format!("object {i}, version 1")));
    }
    // A topology file turns this server into one shard of a fleet: it
    // learns the membership and redirects volumes it does not host.
    if let Some(path) = args.value("--shard-map") {
        let topology = read_topology(path);
        let map = ShardMap::new(topology.iter().map(|&(id, _)| id).collect());
        println!(
            "(shard map v{} over {} servers loaded from {path})",
            map.version(),
            map.servers().len()
        );
        server.set_shard_map(map);
    }
    println!(
        "vl server {server_id} listening on {bound} with {objects} objects \
         ({reactors} reactor{})",
        if reactors == 1 { "" } else { "s" }
    );

    let write_every = args.parsed("--write-every-ms", 0u64);
    let mut version = 1u64;
    loop {
        std::thread::sleep(StdDuration::from_millis(if write_every > 0 {
            write_every
        } else {
            5_000
        }));
        if write_every > 0 {
            version += 1;
            let target = ObjectId(version % objects);
            let out = server.write(
                target,
                Bytes::from(format!("object {}, version {version}", target.raw())),
            );
            println!(
                "wrote {target} v{version}: {} invalidated, {} queued, {} waited out, {} delay",
                out.invalidations_sent, out.queued, out.waited_out, out.delay
            );
        } else {
            let s = server.stats();
            println!(
                "stats: {} in / {} out msgs, {} writes, {} unreachable, epoch {}",
                s.msgs_in, s.msgs_out, s.writes, s.unreachable, s.epoch
            );
        }
    }
}

fn get(args: &Args) {
    let Some(addr) = args.value("--addr") else {
        eprintln!("get needs --addr HOST:PORT");
        exit(2)
    };
    let Some(object) = args.value("--object") else {
        eprintln!("get needs --object N");
        exit(2)
    };
    let object = ObjectId(object.parse().unwrap_or_else(|_| {
        eprintln!("--object must be an integer");
        exit(2)
    }));
    let client_id = ClientId(args.parsed("--client-id", 1u32));
    let server_id = ServerId(args.parsed("--server-id", 0u32));
    let addr = addr.parse().unwrap_or_else(|e| {
        eprintln!("bad --addr: {e}");
        exit(2)
    });
    let node = match dial(NodeId::Client(client_id), addr) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            exit(1)
        }
    };
    let mut client_cfg = ClientConfig::new(client_id, server_id);
    client_cfg.self_inval = args.flag("--self-inval");
    let client = CacheClient::spawn(client_cfg, node, WallClock::new());
    let watch: u64 = args.parsed("--watch", 0);
    let mut last: Option<Bytes> = None;
    loop {
        match client.read(object) {
            Ok(data) => {
                if last.as_ref() != Some(&data) {
                    println!("{object} = {:?}", String::from_utf8_lossy(&data));
                    last = Some(data);
                }
            }
            Err(e) => eprintln!("read failed: {e}"),
        }
        if watch == 0 {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(watch));
    }
    client.shutdown();
}

fn demo() {
    println!("— volume leases live demo —\n");
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let origin = ServerId(0);
    let server = LeaseServer::spawn(
        ServerConfig {
            volume_lease: StdDuration::from_millis(500),
            object_lease: StdDuration::from_secs(60),
            ..ServerConfig::new(origin)
        },
        net.endpoint(NodeId::Server(origin)),
        clock,
    );
    server.create_object(ObjectId(0), Bytes::from_static(b"v1"));
    let clients: Vec<CacheClient> = (1..=3)
        .map(|i| {
            CacheClient::spawn(
                ClientConfig::new(ClientId(i), origin),
                net.endpoint(NodeId::Client(ClientId(i))),
                clock,
            )
        })
        .collect();
    for c in &clients {
        c.read(ObjectId(0)).expect("warm cache");
    }
    println!("1. three clients cached o0 under 60 s object leases");

    let out = server.write(ObjectId(0), Bytes::from_static(b"v2"));
    println!(
        "2. write v2 → {} invalidations, {} delay (all clients reachable)",
        out.invalidations_sent, out.delay
    );

    // Everyone re-reads v2, re-acquiring leases.
    for c in &clients {
        c.read(ObjectId(0)).expect("refetch v2");
    }
    net.partition(NodeId::Client(ClientId(1)), NodeId::Server(origin));
    let out = server.write(ObjectId(0), Bytes::from_static(b"v3"));
    println!(
        "3. client 1 partitioned; write v3 waited {} — bounded by t_v = 0.5 s, \
         not the 60 s object lease ({} waited out)",
        out.delay, out.waited_out
    );

    // Clients 2–3 re-read v3, then go idle past t_v; their volume
    // leases lapse, so the next write queues instead of messaging.
    for c in &clients[1..] {
        c.read(ObjectId(0)).expect("refetch v3");
    }
    std::thread::sleep(StdDuration::from_millis(700));
    let out = server.write(ObjectId(0), Bytes::from_static(b"v4"));
    println!(
        "4. clients 2–3 idle past t_v; write v4 sent {} invalidations, queued {} \
         (delayed invalidations)",
        out.invalidations_sent, out.queued
    );

    net.heal(NodeId::Client(ClientId(1)), NodeId::Server(origin));
    for (i, c) in clients.iter().enumerate() {
        let data = c.read(ObjectId(0)).expect("all healed");
        assert_eq!(&data[..], b"v4");
        let s = c.stats();
        println!(
            "5.{} client {} reads v4 (reconnections {}, batched invals {})",
            i + 1,
            i + 1,
            s.reconnections,
            s.batched_invalidations
        );
    }
    println!("\nno client ever observed a stale value.");
    for c in clients {
        c.shutdown();
    }
    server.shutdown();
}
