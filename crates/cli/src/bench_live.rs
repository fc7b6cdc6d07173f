//! `vl bench-live` — end-to-end load test of the readiness transport.
//!
//! Spawns a real `vl serve` child process, connects `--clients` live
//! [`CacheClient`]s to it over loopback TCP (a handful of shared
//! [`Reactor`]s multiplex all the sockets), and drives volume-lease
//! renewals for `--duration-s` seconds. A renewal is a read issued
//! while the client's leases have lapsed — the paper's steady-state
//! volume-lease traffic — and its full round trip (request, server
//! machine, response, wakeup) is timed.
//!
//! Two processes are used because the file-descriptor ceiling is per
//! process: 10 000 connections need ~10 000 fds on each side, and both
//! sides together would not fit under one default `RLIMIT_NOFILE`.
//!
//! `--reactors` is the *server's* shard count (`vl serve --reactors`).
//! A comma-separated list (`--reactors 1,4`) runs a scaling matrix:
//! each entry is benchmarked in a fresh child process (so sockets and
//! threads tear down for free between runs) with `--clients`
//! connections *per reactor*, and the per-run results are merged into
//! one `{"runs": [...]}` document. The matrix fails loudly if a run
//! with more reactors holds fewer connections than the first run.
//!
//! Results land in a JSON file (default `BENCH_live.json`) next to the
//! simulator's `BENCH_sweep.json`, and a human `renewals/s` line is
//! printed for CI to grep.

use crate::Args;
use std::io::Write as _;
use std::process::{exit, Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vl_client::{CacheClient, ClientConfig};
use vl_metrics::Histogram;
use vl_net::poll::{PollConfig, Reactor};
use vl_net::NodeId;
use vl_server::WallClock;
use vl_types::{ClientId, ObjectId, ServerId};

struct BenchOpts {
    clients: u32,
    duration: Duration,
    tv_ms: u64,
    object_lease_ms: u64,
    objects: u64,
    workers: usize,
    /// Server-side shard count, forwarded to `vl serve --reactors`.
    server_reactors: usize,
    /// Client-side reactor pool multiplexing the benchmark's sockets.
    client_reactors: usize,
    out: String,
    /// External server to target; `None` spawns a child `vl serve`.
    addr: Option<String>,
}

/// Parses `--reactors`: one server shard count, or a comma-separated
/// matrix ("1,4") that triggers a multi-run scaling sweep.
fn reactor_matrix(args: &Args) -> Vec<usize> {
    let raw = args.value("--reactors").unwrap_or("1");
    raw.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid --reactors entry {s:?}: need integers >= 1 (e.g. 4 or 1,4)");
                exit(2)
            }
        })
        .collect()
}

pub fn run(args: &Args) {
    let matrix = reactor_matrix(args);
    if matrix.len() > 1 {
        run_matrix(args, &matrix)
    }
    let opts = BenchOpts {
        clients: args.parsed("--clients", 10_000u32),
        duration: Duration::from_secs(args.parsed("--duration-s", 10u64)),
        tv_ms: args.parsed("--tv-ms", 3_000u64),
        object_lease_ms: args.parsed("--object-lease-ms", 120_000u64),
        objects: args.parsed("--objects", 64u64),
        workers: args.parsed("--workers", 32usize),
        server_reactors: matrix[0],
        client_reactors: args.parsed("--client-reactors", 4usize),
        out: args.value("--out").unwrap_or("BENCH_live.json").to_string(),
        addr: args.value("--addr").map(String::from),
    };

    let (addr, mut child) = match &opts.addr {
        Some(a) => (a.clone(), None),
        None => {
            let (addr, child) = spawn_server(&opts);
            (addr, Some(child))
        }
    };
    let addr: std::net::SocketAddr = addr.parse().unwrap_or_else(|e| {
        eprintln!("bad server address {addr}: {e}");
        exit(2)
    });

    println!(
        "bench-live: {} clients -> {} ({} server reactor{}), {} client reactors, \
         {} workers, t_v={} ms, {} s",
        opts.clients,
        addr,
        opts.server_reactors,
        if opts.server_reactors == 1 { "" } else { "s" },
        opts.client_reactors,
        opts.workers,
        opts.tv_ms,
        opts.duration.as_secs()
    );

    // One reactor per ~2.5k connections; long transport idle deadline
    // so keepalive traffic does not drown the renewal signal.
    let poll_cfg = PollConfig {
        idle_deadline: Some(Duration::from_secs(60)),
        dial_timeout: Duration::from_secs(10),
        hello_timeout: Duration::from_secs(20),
        ..PollConfig::default()
    };
    let reactors: Vec<Reactor> = (0..opts.client_reactors.max(1))
        .map(|_| Reactor::spawn(poll_cfg.clone()).expect("spawn reactor"))
        .collect();

    // Dial + spawn all clients from a few threads; each client's
    // driver is hosted on its reactor, so idle clients cost no thread
    // and no CPU.
    let connect_t0 = Instant::now();
    let dial_threads = 8u32;
    let clients: Vec<CacheClient> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..dial_threads {
            let reactors = &reactors;
            let opts = &opts;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut id = t;
                while id < opts.clients {
                    let node = reactors[id as usize % reactors.len()].node(NodeId::Client(
                        ClientId(id + 1), // ClientId(0) is reserved for server events
                    ));
                    if let Err(e) = node.dial(addr) {
                        eprintln!("client {id} cannot connect: {e}");
                        exit(1)
                    }
                    let cfg = ClientConfig::new(ClientId(id + 1), ServerId(0));
                    mine.push((id, CacheClient::spawn(cfg, node, WallClock::new())));
                    id += dial_threads;
                }
                mine
            }));
        }
        let mut all: Vec<(u32, CacheClient)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|(id, _)| *id);
        all.into_iter().map(|(_, c)| c).collect()
    });
    let connect_secs = connect_t0.elapsed().as_secs_f64();
    println!(
        "connected {} clients in {:.1} s ({:.0} dials/s)",
        clients.len(),
        connect_secs,
        clients.len() as f64 / connect_secs.max(1e-9)
    );

    // Warm-up: every client acquires its object + volume lease once, so
    // the measured window sees steady-state renewals, not cold misses.
    let clients = Arc::new(clients);
    let objects = opts.objects.max(1);
    sweep(&clients, opts.workers, |i, c| {
        let _ = c.read(ObjectId(i as u64 % objects));
    });

    // Measured window: workers sweep their shard, timing a renewal
    // round trip whenever a client's leases have lapsed.
    let stop = Arc::new(AtomicBool::new(false));
    let renewals = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut worker_handles = Vec::new();
    for w in 0..opts.workers.max(1) {
        let clients = Arc::clone(&clients);
        let stop = Arc::clone(&stop);
        let renewals = Arc::clone(&renewals);
        let reads = Arc::clone(&reads);
        let failures = Arc::clone(&failures);
        let workers = opts.workers.max(1);
        worker_handles.push(std::thread::spawn(move || {
            let mut hist = Histogram::new(); // microseconds
            while !stop.load(Ordering::Relaxed) {
                let mut renewed_this_pass = false;
                for i in (w..clients.len()).step_by(workers) {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = &clients[i];
                    let obj = ObjectId(i as u64 % objects);
                    reads.fetch_add(1, Ordering::Relaxed);
                    if c.holds_valid_leases(obj) {
                        // Cache hit under valid leases: free, not timed.
                        let _ = c.read_suspect(obj);
                        continue;
                    }
                    let t = Instant::now();
                    match c.read(obj) {
                        Ok(_) => {
                            hist.record(t.elapsed().as_micros() as u64);
                            renewals.fetch_add(1, Ordering::Relaxed);
                            renewed_this_pass = true;
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                if !renewed_this_pass {
                    // Whole shard holds valid leases; sleep a slice of
                    // t_v instead of spinning the sweep.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            hist
        }));
    }
    std::thread::sleep(opts.duration);
    stop.store(true, Ordering::Relaxed);
    let mut hist = Histogram::new();
    for h in worker_handles {
        hist.merge(&h.join().unwrap());
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let renewals = renewals.load(Ordering::Relaxed);
    let reads = reads.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    let rps = renewals as f64 / elapsed;
    let ms = |v: u64| v as f64 / 1000.0;
    let loop_stats = reactors[0].loop_stats();

    println!(
        "renewals/s: {rps:.0}   (p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms)",
        ms(hist.percentile(0.50)),
        ms(hist.percentile(0.90)),
        ms(hist.percentile(0.99)),
        ms(hist.max()),
    );
    println!(
        "{renewals} renewals, {reads} reads, {failures} failures in {elapsed:.1} s; \
         reactor0: {} wakeups, {} frames in, {} frames out",
        loop_stats.wakeups, loop_stats.frames_in, loop_stats.frames_out
    );

    let json = format!(
        "{{\n  \"clients\": {},\n  \"connections\": {},\n  \"reactors\": {},\n  \
         \"client_reactors\": {},\n  \
         \"workers\": {},\n  \"tv_ms\": {},\n  \"object_lease_ms\": {},\n  \
         \"duration_s\": {:.3},\n  \"connect_s\": {:.3},\n  \"renewals\": {},\n  \
         \"renewals_per_sec\": {:.1},\n  \"reads\": {},\n  \"failures\": {},\n  \
         \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \
         \"max\": {:.3}, \"mean\": {:.3}}},\n  \"reactor0\": {{\"wakeups\": {}, \
         \"io_events\": {}, \"frames_in\": {}, \"frames_out\": {}}}\n}}\n",
        opts.clients,
        clients.len(),
        opts.server_reactors,
        opts.client_reactors,
        opts.workers,
        opts.tv_ms,
        opts.object_lease_ms,
        elapsed,
        connect_secs,
        renewals,
        rps,
        reads,
        failures,
        ms(hist.percentile(0.50)),
        ms(hist.percentile(0.90)),
        ms(hist.percentile(0.99)),
        ms(hist.max()),
        hist.mean() / 1000.0,
        loop_stats.wakeups,
        loop_stats.io_events,
        loop_stats.frames_in,
        loop_stats.frames_out,
    );
    match std::fs::File::create(&opts.out).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => {
            eprintln!("cannot write {}: {e}", opts.out);
            exit(1)
        }
    }

    if let Some(child) = &mut child {
        let _ = child.kill();
        let _ = child.wait();
    }
    // An orderly shutdown stops 10k clients one by one for no benefit.
    // Exit hard instead.
    exit(if renewals == 0 { 1 } else { 0 });
}

/// One parallel pass over every client (used for lease warm-up).
fn sweep(clients: &Arc<Vec<CacheClient>>, workers: usize, f: impl Fn(usize, &CacheClient) + Sync) {
    std::thread::scope(|scope| {
        for w in 0..workers.max(1) {
            let clients = Arc::clone(clients);
            let f = &f;
            scope.spawn(move || {
                for i in (w..clients.len()).step_by(workers.max(1)) {
                    f(i, &clients[i]);
                }
            });
        }
    });
}

/// Spawns `vl serve` as a child on an ephemeral port and returns the
/// address it bound. The child is killed when the bench exits.
fn spawn_server(opts: &BenchOpts) -> (String, Child) {
    let exe = std::env::current_exe().expect("own executable path");
    let port_file = std::env::temp_dir().join(format!("vl-bench-port-{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--objects",
            &opts.objects.to_string(),
            "--volume-lease-ms",
            &opts.tv_ms.to_string(),
            "--object-lease-ms",
            &opts.object_lease_ms.to_string(),
            "--idle-ms",
            "60000",
            "--reactors",
            &opts.server_reactors.to_string(),
            "--port-file",
            port_file.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("cannot spawn server child: {e}");
            exit(1)
        });
    let deadline = Instant::now() + Duration::from_secs(15);
    let port: u16 = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = s.trim().parse() {
                break p;
            }
        }
        if Instant::now() > deadline {
            eprintln!("server child never wrote {}", port_file.display());
            exit(1)
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    (format!("127.0.0.1:{port}"), child)
}

/// Scaling matrix: one child `vl bench-live` process per reactor
/// count. `--clients` becomes the connection count *per reactor*, so a
/// 4-reactor run holds 4x the sockets of a 1-reactor run — the shape
/// of the acceptance gate (more shards must carry more connections,
/// never fewer). Each child spawns (and kills) its own server, so runs
/// are fully isolated. Never returns.
fn run_matrix(args: &Args, matrix: &[usize]) -> ! {
    if args.value("--addr").is_some() {
        eprintln!(
            "--reactors with a comma list spawns one server per run; \
             it cannot target an external --addr"
        );
        exit(2)
    }
    // Per-reactor default is deliberately smaller than the single-run
    // default: an 8-reactor entry already multiplies it by 8, and both
    // sides of the loopback pair burn one fd per connection.
    let per_reactor: u32 = args.parsed("--clients", 2_000u32);
    let out = args.value("--out").unwrap_or("BENCH_live.json");
    let exe = std::env::current_exe().expect("own executable path");

    let mut runs: Vec<(usize, String)> = Vec::new();
    for &r in matrix {
        let tmp =
            std::env::temp_dir().join(format!("vl-bench-live-{}-r{r}.json", std::process::id()));
        let _ = std::fs::remove_file(&tmp);
        println!(
            "--- bench-live matrix: {r} reactor(s), {} clients ---",
            per_reactor * r as u32
        );
        let mut cmd = Command::new(&exe);
        cmd.args([
            "bench-live",
            "--reactors",
            &r.to_string(),
            "--clients",
            &(per_reactor * r as u32).to_string(),
            "--out",
            tmp.to_str().expect("utf-8 temp path"),
        ]);
        for flag in [
            "--duration-s",
            "--tv-ms",
            "--object-lease-ms",
            "--objects",
            "--workers",
            "--client-reactors",
        ] {
            if let Some(v) = args.value(flag) {
                cmd.arg(flag).arg(v);
            }
        }
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!("cannot spawn bench child: {e}");
            exit(1)
        });
        if !status.success() {
            eprintln!("bench run with {r} reactor(s) failed ({status})");
            exit(1)
        }
        let doc = std::fs::read_to_string(&tmp).unwrap_or_else(|e| {
            eprintln!("bench run with {r} reactor(s) wrote no result: {e}");
            exit(1)
        });
        let _ = std::fs::remove_file(&tmp);
        runs.push((r, doc));
    }

    // The gate of ISSUE acceptance criterion 3: every later (wider)
    // run must hold at least as many connections as the first.
    let first_conns = json_u64(&runs[0].1, "connections").unwrap_or(0);
    let first_rps = json_f64(&runs[0].1, "renewals_per_sec").unwrap_or(0.0);
    println!("\nscaling vs {} reactor(s):", runs[0].0);
    let mut failed = false;
    for (r, doc) in &runs {
        let conns = json_u64(doc, "connections").unwrap_or(0);
        let rps = json_f64(doc, "renewals_per_sec").unwrap_or(0.0);
        println!(
            "  {r} reactor(s): {conns} connections ({:.2}x), {rps:.0} renewals/s ({:.2}x)",
            conns as f64 / (first_conns.max(1)) as f64,
            rps / first_rps.max(1e-9),
        );
        if conns < first_conns {
            eprintln!(
                "FAIL: {r}-reactor run held {conns} connections, \
                 fewer than the {}-reactor run's {first_conns}",
                runs[0].0
            );
            failed = true;
        }
    }

    let mut doc = String::from("{\n  \"runs\": [\n");
    for (i, (_, run)) in runs.iter().enumerate() {
        for line in run.trim_end().lines() {
            doc.push_str("    ");
            doc.push_str(line);
            doc.push('\n');
        }
        doc.pop();
        doc.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    match std::fs::File::create(out).and_then(|mut f| f.write_all(doc.as_bytes())) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            exit(1)
        }
    }
    exit(if failed { 1 } else { 0 })
}

/// Pulls an integer field out of a bench result without a JSON parser
/// (the documents are our own `format!` output, shapes known).
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let rest = field(doc, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Float twin of [`json_u64`].
fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let rest = field(doc, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    Some(doc[doc.find(&pat)? + pat.len()..].trim_start())
}
