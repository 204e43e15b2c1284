//! Per-layer probes: unit costs of the public functions of each layer,
//! timed from outside with the repository's `microbench::Bench` harness.

use crate::workload::{Env, Job, Program, Workload};
use olden_analysis::{
    lower_ir, mech_table, optimize, parse, predict, select, select_scheme, typecheck,
    Program as Ast,
};
use olden_bench::microbench::{black_box, Bench, CaseResult};
use olden_cache::{Arrival, CacheSystem, ProcCache, Protocol};
use olden_exec::msg::{ArrivalKind, Envelope, LookupReply, Reply, Request};
use olden_exec::{run_exec, ExecConfig};
use olden_gptr::{Word, LINE_WORDS};
use olden_net::wire::{
    decode_envelope, decode_reply, encode_envelope, encode_reply, read_frame, write_frame,
};
use olden_net::{run_net, NetConfig};
use olden_runtime::{run_ir, Backend as _, Config, Mechanism, OldenCtx, DEFAULT_FUEL};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Every per-layer metric as `(name, unit)`, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.lookup_hit_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.access_ns.local", "ns"),
    ("cache.access_ns.global", "ns"),
    ("cache.access_ns.bilateral", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations_sent", "count"),
    ("cache.spurious_ratio", "ratio"),
    ("cache.revalidations", "count"),
    ("cache.write_track_cycles", "cycles"),
    ("exec.rtt_us", "us"),
    ("exec.spawn_us", "us"),
    ("exec.messages", "count"),
    ("exec.us_per_msg", "us"),
    ("exec.clients", "count"),
    ("net.fleet_ms", "ms"),
    ("net.tcp_rtt_us", "us"),
    ("net.codec_ns.cache_lookup", "ns"),
    ("net.codec_ns.line_fetch", "ns"),
    ("net.codec_ns.migrate", "ns"),
    ("net.codec_ns.invalidate_lines", "ns"),
    ("net.frames", "count"),
    ("runtime.kernel_ms", "ms"),
    ("runtime.run_ir_us", "us"),
    ("runtime.migrations", "count"),
    ("runtime.steals", "count"),
    ("runtime.futures", "count"),
    ("runtime.return_migrations", "count"),
    ("machine.schedule_ms", "ms"),
    ("machine.segments", "count"),
    ("analysis.parse_us", "us"),
    ("analysis.typecheck_us", "us"),
    ("analysis.select_us", "us"),
    ("analysis.opt_us", "us"),
    ("analysis.cost_us", "us"),
    ("analysis.scheme_us", "us"),
    ("analysis.lower_us", "us"),
    ("analysis.ir_insts", "count"),
    ("obs.record_overhead", "ratio"),
    ("benchmarks.reference_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Collected `(name, value)` pairs, checked against [`PER_LAYER`] when
/// the result is printed.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The `cache.access_ns.*` metric of a coherence scheme.
pub fn access_metric(p: Protocol) -> &'static str {
    match p {
        Protocol::LocalKnowledge => "cache.access_ns.local",
        Protocol::GlobalKnowledge => "cache.access_ns.global",
        Protocol::Bilateral => "cache.access_ns.bilateral",
    }
}

fn bench(group: &str) -> Bench {
    Bench::new(group)
        .sample_budget(Duration::from_millis(20))
        .samples(5)
}

fn median_of(r: Option<CaseResult>) -> Duration {
    r.expect("probe filtered out: unset MICROBENCH_FILTER")
        .median
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Calls of a sub-microsecond probe per call the harness times: it
/// reports whole ns per call, so a batch gives the per-call time its
/// fractional digits.
const BATCH: u32 = 100;

fn batched<R>(mut f: impl FnMut() -> R) -> impl FnMut() {
    move || {
        for _ in 0..BATCH {
            black_box(f());
        }
    }
}

/// Per-call ns of a [`batched`] probe.
fn ns_each(d: Duration) -> f64 {
    ns(d) / f64::from(BATCH)
}

/// Time every probe. Net probes are skipped when `net` is false.
pub fn probe(w: Workload, jobs: &[Job], env: &Env, net: bool, m: &mut Metrics) {
    probe_cache(m);
    probe_exec(w, m);
    if net {
        probe_net(w, env, m);
    }
    probe_runtime(w, jobs, m);
    probe_analysis(w, jobs, m);
    probe_benchmarks(jobs, m);
}

fn probe_cache(m: &mut Metrics) {
    let b = bench("cache");
    m.put(
        "cache.lookup_hit_ns",
        ns_each(median_of(b.run(
            "lookup_hit",
            batched({
                let mut t = ProcCache::new();
                for p in 0..512u64 {
                    t.insert((p % 32) as u8, p).set_line(0);
                }
                let mut i = 0u64;
                move || {
                    i = (i + 1) % 512;
                    black_box(t.lookup((i % 32) as u8, i).is_some())
                }
            }),
        ))),
    );
    m.put(
        "cache.lookup_miss_ns",
        ns_each(median_of(b.run(
            "lookup_miss",
            batched({
                let mut t = ProcCache::new();
                for p in 0..512u64 {
                    t.insert((p % 32) as u8, p);
                }
                let mut i = 0u64;
                move || {
                    i += 1;
                    black_box(t.lookup(7, 100_000 + i).is_none())
                }
            }),
        ))),
    );
    for proto in Protocol::ALL {
        // One remote access per call; every 64th call the thread departs
        // and re-arrives, so the scheme's acquire/release work is mixed in
        // at a fixed rate.
        let r = b.run(
            &format!("access_{}", proto.name()),
            batched({
                let mut sys = CacheSystem::new(8, proto);
                let mut i = 0u64;
                move || {
                    i += 1;
                    sys.access(0, 1, i % 256, (i % 32) as u8, i.is_multiple_of(3));
                    if i.is_multiple_of(64) {
                        sys.depart(0, 30);
                        sys.arrive(0, Arrival::Call);
                    }
                    black_box(sys.stats().misses)
                }
            }),
        );
        m.put(access_metric(proto), ns_each(median_of(r)));
    }
}

fn probe_exec(w: Workload, m: &mut Metrics) {
    // A mailbox round trip: a cached read of a word homed on another
    // worker, after the first miss, is one CacheLookup → Hit exchange
    // with the reader's own worker.
    let rtt = run_exec(ExecConfig::lockstep(2), |ctx| {
        let p = ctx.alloc(1, LINE_WORDS);
        ctx.read(p, 0, Mechanism::Cache);
        bench("exec").run("rtt", || ctx.read(p, 0, Mechanism::Cache))
    })
    .0;
    m.put("exec.rtt_us", ns(median_of(rtt)) / 1e3);
    let procs = w.procs();
    let spawn = bench("exec").run(&format!("spawn_p{procs}"), || {
        run_exec(ExecConfig::lockstep(procs), |_| 0u64).1.messages
    });
    m.put("exec.spawn_us", ns(median_of(spawn)) / 1e3);
}

fn probe_net(w: Workload, env: &Env, m: &mut Metrics) {
    let procs = w.procs();
    let b = bench("net");
    let fleet = b.run(&format!("fleet_p{procs}"), || {
        let cfg = NetConfig::new(ExecConfig::lockstep(procs), env.worker_cmd.clone());
        run_net(cfg, |_| 0u64).1.messages
    });
    m.put("net.fleet_ms", ns(median_of(fleet)) / 1e6);

    let messages = [
        (
            "net.codec_ns.cache_lookup",
            Request::CacheLookup {
                home: 3,
                page: 17,
                line: 5,
                word: 2,
                write: false,
                wval: None,
                elide: false,
            },
            Reply::Lookup(LookupReply::Hit(Word(42))),
        ),
        (
            "net.codec_ns.line_fetch",
            Request::LineFetchReq {
                page: 17,
                line: 5,
                requester: 1,
                clock: None,
            },
            Reply::Line([Word(7); LINE_WORDS], 3),
        ),
        (
            "net.codec_ns.migrate",
            Request::MigrateThread {
                arrival: ArrivalKind::Return(vec![1, 4]),
            },
            Reply::Unit,
        ),
        (
            "net.codec_ns.invalidate_lines",
            Request::InvalidateLines {
                home: 3,
                page: 17,
                mask: 0b1011,
            },
            Reply::Unit,
        ),
    ];
    for (name, req, reply) in messages {
        let env = Envelope {
            src: 1,
            seq: 9,
            req,
        };
        assert_eq!(decode_envelope(&encode_envelope(&env)).as_ref(), Ok(&env));
        assert_eq!(decode_reply(&encode_reply(&reply)).as_ref(), Ok(&reply));
        let r = b.run(
            name.trim_start_matches("net."),
            batched(|| {
                let e = decode_envelope(&encode_envelope(black_box(&env)));
                let r = decode_reply(&encode_reply(black_box(&reply)));
                (e.is_ok(), r.is_ok())
            }),
        );
        m.put(name, ns_each(median_of(r)));
    }

    // A loopback TCP round trip of one CacheLookup frame against an
    // echo thread.
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback echo listener");
    let port = listener.local_addr().expect("echo listener address").port();
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept echo client");
        s.set_nodelay(true).expect("set NODELAY");
        while let Ok(Some(frame)) = read_frame(&mut s) {
            if write_frame(&mut s, &frame).is_err() {
                break;
            }
        }
    });
    let mut c = TcpStream::connect(("127.0.0.1", port)).expect("connect to echo thread");
    c.set_nodelay(true).expect("set NODELAY");
    let frame = encode_envelope(&Envelope {
        src: 1,
        seq: 1,
        req: Request::RaceQuery,
    });
    let rtt = b.run("tcp_rtt", || {
        write_frame(&mut c, &frame).expect("echo write");
        read_frame(&mut c).expect("echo read").map(|f| f.len())
    });
    drop(c);
    echo.join().expect("echo thread exits at EOF");
    m.put("net.tcp_rtt_us", ns(median_of(rtt)) / 1e3);
}

fn probe_runtime(w: Workload, jobs: &[Job], m: &mut Metrics) {
    let procs = w.procs();
    let r = bench("runtime").run("run_ir", || {
        for (i, j) in jobs.iter().enumerate() {
            let seed = match j.program {
                Program::Dsl(seed, _) => seed,
                Program::Kernel(_) => i as u64,
            };
            let mut ctx = OldenCtx::new(Config::olden(procs).with_protocol(j.protocol));
            black_box(run_ir(&mut ctx, &j.ir, seed, DEFAULT_FUEL, None).checksum);
        }
    });
    m.put(
        "runtime.run_ir_us",
        ns(median_of(r)) / 1e3 / jobs.len() as f64,
    );
}

fn probe_analysis(w: Workload, jobs: &[Job], m: &mut Metrics) {
    let procs = w.procs();
    let b = bench("analysis");
    let n = jobs.len() as f64;
    let srcs: Vec<&str> = jobs.iter().map(|j| j.src.as_str()).collect();
    let progs: Vec<Ast> = srcs
        .iter()
        .map(|s| parse(s).expect("set-up compiled every program"))
        .collect();
    let tables: Vec<_> = progs.iter().map(mech_table).collect();
    let per = |r: Option<CaseResult>| ns(median_of(r)) / 1e3 / n;
    m.put(
        "analysis.parse_us",
        per(b.run("parse", || {
            srcs.iter()
                .map(|s| parse(s).is_ok() as usize)
                .sum::<usize>()
        })),
    );
    m.put(
        "analysis.typecheck_us",
        per(b.run("typecheck", || {
            progs.iter().map(|p| typecheck(p).len()).sum::<usize>()
        })),
    );
    m.put(
        "analysis.select_us",
        per(b.run("select", || {
            progs
                .iter()
                .map(|p| black_box(select(p)).loops.len())
                .sum::<usize>()
        })),
    );
    m.put(
        "analysis.opt_us",
        per(b.run("opt", || {
            progs.iter().map(|p| optimize(p).sites.len()).sum::<usize>()
        })),
    );
    m.put(
        "analysis.cost_us",
        per(b.run("cost", || {
            progs
                .iter()
                .zip(&tables)
                .zip(jobs)
                .map(|((p, t), j)| {
                    let trips: Vec<(&str, u64)> =
                        j.trips.iter().map(|(k, n)| (k.as_str(), *n)).collect();
                    predict(p, t, &trips, procs).migrations
                })
                .sum::<f64>()
        })),
    );
    m.put(
        "analysis.scheme_us",
        per(b.run("scheme", || {
            progs
                .iter()
                .map(|p| select_scheme(p).scheme.name().len())
                .sum::<usize>()
        })),
    );
    m.put(
        "analysis.lower_us",
        per(b.run("lower", || {
            progs
                .iter()
                .zip(&tables)
                .map(|(p, t)| lower_ir(p, t).map_or(0, |ir| ir.funcs.len()))
                .sum::<usize>()
        })),
    );
    let insts: usize = jobs
        .iter()
        .flat_map(|j| j.ir.funcs.iter())
        .flat_map(|f| f.blocks.iter())
        .map(|blk| blk.insts.len() + 1)
        .sum();
    m.put("analysis.ir_insts", insts as f64);
}

/// The serial references of the workload's kernels at the simulator
/// size. Generated programs have no serial reference (the simulator's
/// checksum is theirs), so on `dsl-gen` this times the ten kernels'
/// references at Tiny: the layer's fixed single-threaded baseline.
fn probe_benchmarks(jobs: &[Job], m: &mut Metrics) {
    use olden_benchmarks::{all, by_name, SizeClass};
    let mut names: Vec<&str> = jobs
        .iter()
        .filter_map(|j| match j.program {
            Program::Kernel(name) => Some(name),
            Program::Dsl(..) => None,
        })
        .collect();
    names.dedup();
    let (descs, size) = if names.is_empty() {
        (all(), SizeClass::Tiny)
    } else {
        let d = names
            .iter()
            .map(|n| by_name(n).expect("registry benchmark"))
            .collect();
        (d, SizeClass::Default)
    };
    let r = bench("benchmarks").run("reference", || {
        descs
            .iter()
            .map(|d| (d.reference)(size))
            .fold(0u64, u64::wrapping_add)
    });
    m.put("benchmarks.reference_ms", ns(median_of(r)) / 1e6);
}
