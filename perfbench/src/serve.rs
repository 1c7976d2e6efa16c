//! `serve_mixed`: an in-process `OdServer` on loopback with two closed-loop
//! clients.  Each client owns a tax relation and a monitor on it and sends a
//! fixed mix chosen by request index: reads (`MonitorStatus`, `Implies`),
//! writes (`ApplyDelta` inserting a duplicate row, 1 in 5), and profile
//! requests (`Discover`, `DiscoverStatements`).  Every write drops the
//! client's cached profiles, so half the profile requests recompute and half
//! hit the cache — a fixed count per request index.

use crate::common::{
    median, median_secs, mix_seed, percentile, repeat_setup, trace_report, Digest, Gate, Outcome,
    Phase, Stop, MIB,
};
use crate::Args;
use od_core::{OrderDependency, Relation, Tuple};
use od_discovery::{discover_ods, DiscoveryConfig, Monitor};
use od_infer::OdSet;
use od_obs::Registry;
use od_server::proto::{Request, Response, ServerMessage};
use od_server::{Client, OdServer};
use od_setbased::{discover_statements, DeltaBatch, LatticeConfig};
use od_workload::tax::{generate_taxes, tax_ods};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub const CLIENTS: usize = 2;
/// Requests per cycle of the fixed mix (see [`kind_of`]).
const CYCLE: usize = 20;
const SETUP_REPS: usize = 7;
/// Mix cycles per client in each phase of a traced run.
const TRACE_CYCLES: usize = 50;
/// The profile the `Discover` requests ask for.
const MAX_LHS: u32 = 2;
const MAX_RHS: u32 = 2;
const MAX_CONTEXT: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Status,
    Implies,
    Write,
    Discover,
    Statements,
}

/// Operation classes the latencies are reported by.
const READ: usize = 0;
const WRITE: usize = 1;
const PROFILE: usize = 2;
const CLASS_NAMES: [&str; 3] = ["read", "write", "profile"];

impl Kind {
    fn class(self) -> usize {
        match self {
            Kind::Status | Kind::Implies => READ,
            Kind::Write => WRITE,
            Kind::Discover | Kind::Statements => PROFILE,
        }
    }
}

/// The request kind at index `i` of a client's sequence.  Per cycle: 4
/// writes, 8 reads, 8 profile requests — each profile miss (right after a
/// write) is followed by a hit on the same cached profile.
fn kind_of(i: usize) -> Kind {
    match i % CYCLE {
        0 | 5 | 10 | 15 => Kind::Write,
        2 | 4 | 12 | 14 => Kind::Discover,
        7 | 9 | 17 | 19 => Kind::Statements,
        1 | 6 | 11 | 16 => Kind::Status,
        _ => Kind::Implies,
    }
}

/// Profile requests that follow a profile request of the same kind with no
/// write in between: the server answers them from its cache.
fn is_profile_hit(i: usize) -> bool {
    matches!(i % CYCLE, 4 | 9 | 14 | 19)
}

/// Writes among the first `i` requests of a sequence.
fn writes_before(i: usize) -> usize {
    (0..i % CYCLE)
        .filter(|&j| kind_of(j) == Kind::Write)
        .count()
        + 4 * (i / CYCLE)
}

/// One client's hosted data and the answers it must get back.
struct ClientData {
    relation: String,
    monitor: String,
    rel: Relation,
    seed: u64,
    premises: Vec<OrderDependency>,
    goal: OrderDependency,
    expected_implied: bool,
    expected_discover: Response,
    expected_statements: Response,
}

impl ClientData {
    fn insert_row(&self, i: usize) -> Tuple {
        let rows = self.rel.tuples();
        rows[(mix_seed(self.seed, i as u64) % rows.len() as u64) as usize].clone()
    }

    fn request(&self, i: usize) -> Request {
        match kind_of(i) {
            Kind::Write => Request::ApplyDelta {
                monitor: self.monitor.clone(),
                inserts: vec![self.insert_row(i)],
                deletes: vec![],
            },
            Kind::Status => Request::MonitorStatus {
                monitor: self.monitor.clone(),
            },
            Kind::Implies => Request::Implies {
                premises: self.premises.clone(),
                goal: self.goal.clone(),
            },
            Kind::Discover => Request::Discover {
                relation: self.relation.clone(),
                max_lhs: MAX_LHS,
                max_rhs: MAX_RHS,
                epsilon: 0.0,
                max_context: MAX_CONTEXT,
            },
            Kind::Statements => Request::DiscoverStatements {
                relation: self.relation.clone(),
                max_context: MAX_CONTEXT,
            },
        }
    }

    /// Is `response` the right answer to request `i`?  Duplicate inserts
    /// never flip a verdict, so both watched ODs stay exact.
    fn check(&self, i: usize, response: &Response) -> bool {
        let rows = (self.rel.len() + writes_before(i)) as u64;
        match (kind_of(i), response) {
            (
                Kind::Write,
                Response::DeltaApplied {
                    inserted,
                    deleted,
                    rows: after,
                    flipped,
                    ..
                },
            ) => inserted.len() == 1 && *deleted == 0 && flipped.is_empty() && *after == rows + 1,
            (
                Kind::Status,
                Response::Statuses {
                    rows: now,
                    statuses,
                },
            ) => {
                *now == rows
                    && statuses.len() == 2
                    && statuses.iter().all(|s| s.accepted && s.removal_count == 0)
            }
            (Kind::Implies, Response::Implication { implied }) => *implied == self.expected_implied,
            (Kind::Discover, r) => *r == self.expected_discover,
            (Kind::Statements, r) => *r == self.expected_statements,
            _ => false,
        }
    }
}

fn served_config() -> DiscoveryConfig {
    DiscoveryConfig {
        max_lhs: MAX_LHS as usize,
        max_rhs: MAX_RHS as usize,
        epsilon: 0.0,
        max_context: MAX_CONTEXT as usize,
        ..DiscoveryConfig::default()
    }
}

fn served_lattice() -> LatticeConfig {
    LatticeConfig {
        max_context: MAX_CONTEXT as usize,
        ..LatticeConfig::default()
    }
}

/// A booted server with every client's relation and monitor in place.
struct Hosted {
    server: OdServer,
    rels: Vec<Relation>,
    gate: Gate,
}

/// Set-up: generate each client's relation, host it, create its monitor.
fn boot(rows: usize, seed: u64) -> Hosted {
    let server = OdServer::bind("127.0.0.1:0").expect("bind loopback");
    let mut admin = Client::connect(server.local_addr()).expect("connect to the server");
    let mut gate = Gate::default();
    let mut rels = Vec::new();
    for c in 0..CLIENTS {
        let rel = generate_taxes(rows, mix_seed(seed, 10 + c as u64));
        let ods = tax_ods(rel.schema());
        let created = admin.request(&Request::CreateRelation {
            name: format!("taxes{c}"),
            relation: rel.clone(),
        });
        gate.record(
            matches!(created, Ok(Response::RelationCreated { rows: n }) if n == rows as u64),
        );
        let monitored = admin.request(&Request::CreateMonitor {
            name: format!("ledger{c}"),
            relation: format!("taxes{c}"),
            epsilon: 0.0,
            ods,
        });
        gate.record(matches!(
            monitored,
            Ok(Response::MonitorCreated { watched: 2 })
        ));
        rels.push(rel);
    }
    Hosted { server, rels, gate }
}

/// The expected answers, computed in-process on the same relations.
fn client_data(rels: &[Relation], seed: u64) -> Vec<ClientData> {
    rels.iter()
        .enumerate()
        .map(|(c, rel)| {
            let premises = tax_ods(rel.schema());
            // [income] ↦ [bracket, payable]: the union of the two premises.
            let goal = OrderDependency::new(
                premises[0].lhs.clone(),
                premises[0]
                    .rhs
                    .iter()
                    .chain(premises[1].rhs.iter())
                    .collect::<Vec<_>>(),
            );
            let expected_implied =
                od_infer::decide::implies(&OdSet::from_ods(premises.clone()), &goal);
            let d = discover_ods(rel, served_config());
            let s = discover_statements(rel, &served_lattice());
            ClientData {
                relation: format!("taxes{c}"),
                monitor: format!("ledger{c}"),
                rel: rel.clone(),
                seed: mix_seed(seed, 20 + c as u64),
                premises,
                goal,
                expected_implied,
                expected_discover: Response::Discovered {
                    ods: d.ods,
                    errors: d.errors,
                },
                expected_statements: Response::Statements {
                    statements: s.minimal_statements().to_vec(),
                },
            }
        })
        .collect()
}

/// What one client saw in one phase.
#[derive(Default)]
struct ClientRun {
    latencies_ms: [Vec<f64>; 3],
    /// The profile requests among `latencies_ms[PROFILE]` served from cache.
    profile_hit_ms: Vec<f64>,
    gate: Gate,
    /// First response of each kind (codec samples).
    samples: Vec<(Kind, Request, Response)>,
}

fn client_loop(
    addr: SocketAddr,
    data: &ClientData,
    first: usize,
    stop: Stop,
    inject_fault: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let Ok(mut client) = Client::connect(addr) else {
        run.gate.record(false);
        return run;
    };
    let _s = od_obs::span("client");
    let mut i = first;
    while stop.more(i - first) {
        let kind = kind_of(i);
        let request = data.request(i);
        let t = Instant::now();
        let response = {
            let _s = od_obs::span(CLASS_NAMES[kind.class()]);
            client.request(&request)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run.latencies_ms[kind.class()].push(ms);
        if is_profile_hit(i) {
            run.profile_hit_ms.push(ms);
        }
        let ok = match response {
            Ok(mut response) => {
                if inject_fault && i == first + 2 {
                    response = Response::Ok;
                }
                let ok =
                    catch_unwind(AssertUnwindSafe(|| data.check(i, &response))).unwrap_or(false);
                if !run.samples.iter().any(|(k, ..)| *k == kind) {
                    run.samples.push((kind, request, response));
                }
                ok
            }
            Err(_) => false,
        };
        run.gate.record(ok);
        i += 1;
    }
    run
}

/// One phase: every client runs its sequence from `first` until `stop`.
fn phase(
    addr: SocketAddr,
    data: &[ClientData],
    first: usize,
    stop: Stop,
    registry: Option<&Arc<Registry>>,
    inject_fault: bool,
) -> (Phase, Vec<ClientRun>) {
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = data
            .iter()
            .map(|d| {
                let registry = registry.cloned();
                s.spawn(move || match registry {
                    Some(r) => {
                        od_obs::scoped(r, || client_loop(addr, d, first, stop, inject_fault))
                    }
                    None => client_loop(addr, d, first, stop, inject_fault),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut failed = ClientRun::default();
                    failed.gate.record(false);
                    failed
                })
            })
            .collect()
    });
    let mut p = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for r in &runs {
        p.ops += r.latencies_ms.iter().map(|l| l.len() as u64).sum::<u64>();
        p.primary_ms.extend(&r.latencies_ms[READ]);
        p.secondary_ms.extend(&r.latencies_ms[WRITE]);
    }
    (p, runs)
}

fn class_latencies(runs: &[ClientRun], class: usize) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.latencies_ms[class].iter().copied())
        .collect()
}

fn server_counter(name: &str) -> u64 {
    od_obs::global().counter_value(name)
}

const SERVER_COUNTERS: [(&str, &str); 4] = [
    ("od-server.cache_hits", "server.discover.cache_hits"),
    ("od-server.cache_misses", "server.discover.cache_misses"),
    (
        "od-server.cache_invalidations",
        "server.discover.cache_invalidations",
    ),
    (
        "od-server.notifications_dropped",
        "server.notifications_dropped",
    ),
];

pub fn run(args: &Args) -> Outcome {
    let rows = if args.tiny { 2_000 } else { 20_000 };
    let registry = Arc::new(Registry::new());
    let traced = args.trace.then_some(&registry);
    let (hosted, setup_times, setup_traced) = repeat_setup(
        SETUP_REPS,
        traced,
        || boot(rows, args.seed),
        |h| h.server.shutdown(),
    );
    let addr = hosted.server.local_addr();
    let data = client_data(&hosted.rels, args.seed);
    let mut out = Outcome::default();
    let mut gate = hosted.gate;

    let (measured, runs) = if args.trace {
        let n = TRACE_CYCLES * CYCLE;
        let (untraced, runs) = phase(addr, &data, 0, Stop::After(n), None, false);
        let before: Vec<u64> = SERVER_COUNTERS
            .iter()
            .map(|(_, c)| server_counter(c))
            .collect();
        let (traced, traced_runs) = od_obs::scoped(Arc::clone(&registry), || {
            let _root = od_obs::span("perfbench");
            phase(addr, &data, n, Stop::After(n), Some(&registry), false)
        });
        for ((name, counter), b) in SERVER_COUNTERS.iter().zip(before) {
            out.set(name, (server_counter(counter) - b) as f64);
        }
        let hits = out.metrics["od-server.cache_hits"];
        let misses = out.metrics["od-server.cache_misses"];
        out.set("od-server.cache_hit_ratio", hits / (hits + misses).max(1.0));
        for r in &traced_runs {
            gate.merge(r.gate);
        }
        layer_metrics(&mut out, &registry, &data[0], n, &runs);
        let report = trace_report(&registry, &untraced, &traced, &setup_times, setup_traced);
        out.report.extend(report);
        (untraced, runs)
    } else {
        let stop = Stop::for_seconds(args.seconds);
        phase(addr, &data, 0, stop, None, args.inject_fault)
    };
    for r in &runs {
        gate.merge(r.gate);
    }
    out.gate = gate;
    hosted.server.shutdown();

    for (name, value) in measured.metrics() {
        out.set(name, value);
    }
    out.set("setup_s", median(&mut setup_times.clone()));
    let mut digest = Digest::default();
    for d in &data {
        digest.add(&d.expected_discover.encode());
        digest.add(&d.expected_statements.encode());
    }
    out.manifest = vec![
        ("discovery_threads", "1".into()),
        ("clients", CLIENTS.to_string()),
        ("rows", format!("{rows} per client")),
        ("loop", "closed".into()),
        ("digest", digest.hex()),
    ];
    let mut profile = class_latencies(&runs, PROFILE);
    out.report.push(format!(
        "serve_mixed: {} clients x {rows} rows, {} requests in {:.3} s, read p50 {:.1} us, write p50 {:.1} us, profile p99 {:.1} us",
        CLIENTS,
        measured.ops,
        measured.wall_s,
        1e3 * out.metrics["primary_p50_ms"],
        1e3 * out.metrics["secondary_p50_ms"],
        1e3 * percentile(&mut profile, 0.99),
    ));
    out
}

/// Per-layer metrics of a traced run: in-process replicas of the service
/// work (od-discovery, od-infer, the stream ledgers), the codec, and the
/// transport share of the client latencies of the untraced phase `runs`.
fn layer_metrics(
    out: &mut Outcome,
    registry: &Arc<Registry>,
    data: &ClientData,
    n: usize,
    runs: &[ClientRun],
) {
    let p99 = |class: usize| percentile(&mut class_latencies(runs, class), 0.99) * 1e3;
    out.set("od-server.read_p99_us", p99(READ));
    out.set("od-server.write_p99_us", p99(WRITE));
    out.set("od-server.profile_p99_us", p99(PROFILE));
    out.set(
        "od-core.heap_mib",
        CLIENTS as f64 * data.rel.approx_heap_bytes() as f64 / MIB,
    );
    let encode = registry
        .snapshot()
        .durations
        .iter()
        .filter(|(p, _)| p.starts_with("setup/") && p.ends_with("relation.encode"))
        .map(|(_, d)| d.total_nanos as f64 / 1e9)
        .sum::<f64>();
    out.set("od-core.encode_s", encode);

    // Replay client 0's first `n` requests in-process, one service call
    // each, on a replica monitor; a profile request after a write recomputes
    // and the next one reuses the answer, as the server's cache does.
    let mut service_ms: [Vec<f64>; 3] = Default::default();
    let mut service_hit_ms = Vec::new();
    let (mut apply_us, mut status_us, mut implies_us, mut discover_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    od_obs::scoped(Arc::clone(registry), || {
        let _root = od_obs::span("replica");
        let mut monitor = Monitor::watch(&data.rel, data.premises.clone(), 0.0, 1);
        let premises = OdSet::from_ods(data.premises.clone());
        let deltas_before = registry.counter_value("stream.deltas_applied");
        let touched_before = registry.counter_value("stream.classes_touched");
        let lis_before = registry.counter_value("stream.lis_invocations");
        let mut cached: [Option<Response>; 2] = [None, None];
        for i in 0..n {
            let kind = kind_of(i);
            let t = Instant::now();
            match kind {
                Kind::Write => {
                    let mut batch = DeltaBatch::new();
                    batch.inserts.push(data.insert_row(i));
                    std::hint::black_box(monitor.apply(&batch).ok());
                    cached = [None, None];
                }
                Kind::Status => {
                    std::hint::black_box(monitor.statuses());
                }
                Kind::Implies => {
                    std::hint::black_box(od_infer::decide::implies(&premises, &data.goal));
                }
                Kind::Discover | Kind::Statements => {
                    let slot = usize::from(kind == Kind::Statements);
                    match &cached[slot] {
                        Some(r) => {
                            std::hint::black_box(r.clone());
                        }
                        None => {
                            let r = if slot == 0 {
                                let d = discover_ods(&data.rel, served_config());
                                Response::Discovered {
                                    ods: d.ods,
                                    errors: d.errors,
                                }
                            } else {
                                let s = discover_statements(&data.rel, &served_lattice());
                                Response::Statements {
                                    statements: s.minimal_statements().to_vec(),
                                }
                            };
                            if slot == 0 {
                                discover_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            }
                            cached[slot] = Some(r);
                        }
                    }
                }
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            service_ms[kind.class()].push(ms);
            if is_profile_hit(i) {
                service_hit_ms.push(ms);
            }
            match kind {
                Kind::Write => apply_us.push(ms * 1e3),
                Kind::Status => status_us.push(ms * 1e3),
                Kind::Implies => implies_us.push(ms * 1e3),
                _ => {}
            }
        }
        let deltas = (registry.counter_value("stream.deltas_applied") - deltas_before).max(1);
        let per_delta = |now: u64, before: u64| (now - before) as f64 / deltas as f64;
        out.set(
            "od-setbased.stream.classes_touched",
            per_delta(
                registry.counter_value("stream.classes_touched"),
                touched_before,
            ),
        );
        out.set(
            "od-setbased.stream.lis_invocations",
            per_delta(registry.counter_value("stream.lis_invocations"), lis_before),
        );
    });
    out.set("od-discovery.monitor_apply_us", median(&mut apply_us));
    out.set("od-discovery.monitor_status_us", median(&mut status_us));
    out.set("od-infer.implies_us", median(&mut implies_us));
    out.set("od-discovery.discover_ms", median(&mut discover_ms));
    // Transport: client p50 minus in-process service p50.  Profile latencies
    // are half cache hits and half recomputes, so their transport is taken on
    // the hits, where the service time is a cached-response copy.
    let mut hits: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.profile_hit_ms.iter().copied())
        .collect();
    let transport = [
        median(&mut class_latencies(runs, READ)) - median(&mut service_ms[READ]),
        median(&mut class_latencies(runs, WRITE)) - median(&mut service_ms[WRITE]),
        median(&mut hits) - median(&mut service_hit_ms),
    ];
    for (class, us) in transport.into_iter().enumerate() {
        out.set(
            &format!("od-server.transport_us.{}", CLASS_NAMES[class]),
            us * 1e3,
        );
    }

    // Codec: encode + decode of each class's request and response frames.
    let samples: Vec<&(Kind, Request, Response)> =
        runs.iter().flat_map(|r| r.samples.iter()).collect();
    for class in [READ, WRITE, PROFILE] {
        let pairs: Vec<_> = samples
            .iter()
            .filter(|(k, ..)| k.class() == class)
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let us =
            1e6 * median_secs(201, || {
                for (_, req, resp) in &pairs {
                    let r = Request::decode(&req.encode()).expect("request round-trips");
                    let s = ServerMessage::decode(&resp.encode()).expect("response round-trips");
                    std::hint::black_box((r, s));
                }
            }) / pairs.len() as f64;
        out.set(&format!("od-server.codec_us.{}", CLASS_NAMES[class]), us);
    }
}
