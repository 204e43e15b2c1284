//! olden-perfbench: the Olden reproduction measured end to end on the
//! simulator, exec-lockstep, exec-parallel and net, and layer by layer.
//!
//! Usage: `olden-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. One driver process, one job in flight at a time (a
//! closed loop). A *pass* runs every job of the workload once on every
//! backend, plus one compile of each job's DSL program, in an order the
//! seed sets; a pass therefore holds one *round* per backend. With
//! `--trace 0` the command prints the end-to-end metrics; with
//! `--trace 1` it times the layer probes, runs untraced and traced
//! passes, and prints the per-layer metrics, span self times, the
//! tracing overhead and one reconciliation line per backend. The last
//! line of standard output is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use host::{fmt_cpus, HostProbe, Placement};
use layers::{Metrics, PER_LAYER};
use olden_analysis::{compile, IrProgram};
use olden_rng::{mix2, SplitMix64};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{run_job, setup, Backend, Env, Job, Workload};

/// Passes a `--trace 0` run makes at least, so every round-time tail
/// has ten rounds beyond it.
const MIN_PASSES: usize = stats::TAIL_BEYOND + 2;
/// Untraced and traced passes a `--trace 1` run makes at least.
const TRACED_MIN_PASSES: usize = 3;
/// The host probe runs at the start of each pass and then before a step
/// once this long has passed since it last ran.
const PROBE_EVERY: Duration = Duration::from_millis(25);
/// The host probe time the end-to-end times are scaled to, in µs:
/// about the probe's median on the 2-vCPU Xeon VM the benchmark was
/// tuned on, so scaled figures read close to raw ones there.
const PROBE_REF_US: f64 = 600.0;

/// Every end-to-end metric as `(name, unit)`, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("sim_ms", "ms"),
    ("sim_tail_ms", "ms"),
    ("lockstep_ms", "ms"),
    ("lockstep_tail_ms", "ms"),
    ("parallel_ms", "ms"),
    ("parallel_tail_ms", "ms"),
    ("net_ms", "ms"),
    ("net_tail_ms", "ms"),
    ("compile_ms", "ms"),
    ("compile_tail_ms", "ms"),
    ("sim_speedup", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val:?}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("net-worker") {
        return net_worker(&argv[2..]);
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("olden-perfbench: {e}");
            eprintln!(
                "usage: olden-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("olden-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The hidden worker entry point the net backend spawns:
/// `net-worker <proc> <parent_port> <record:0|1> <protocol>`.
fn net_worker(args: &[String]) -> ExitCode {
    let [proc, port, record, protocol] = args else {
        eprintln!("net-worker: expected <proc> <parent_port> <record> <protocol>");
        return ExitCode::from(2);
    };
    let (Ok(proc), Ok(port), Some(protocol)) = (
        proc.parse::<u8>(),
        port.parse::<u16>(),
        olden_runtime::Protocol::from_name(protocol),
    ) else {
        eprintln!("net-worker: malformed arguments {args:?}");
        return ExitCode::from(2);
    };
    olden_net::worker::worker_main(proc, port, record == "1", protocol)
}

fn measure(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut place = Placement::detect();
    let steal0 = host::steal_ticks();
    let net = olden_net::loopback_available();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let env = Env {
        workload: w,
        nproc: place.all.len(),
        worker_cmd: vec![exe.to_string_lossy().into_owned(), "net-worker".to_string()],
    };
    print_fingerprint(w, &place, &env);
    if !net {
        println!("note: loopback TCP is unavailable; the net backend and its metrics are left out");
    }
    let backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|&b| net || b != Backend::Net)
        .collect();

    place.pin(true);
    let t = Instant::now();
    let jobs = setup(w, args.seed)?;
    let setup0_s = t.elapsed().as_secs_f64();
    println!(
        "setup: {} jobs in {setup0_s:.4} s; sequential-baseline work {} cycles",
        jobs.len(),
        jobs.iter().map(|j| j.seq_makespan).sum::<u64>()
    );
    warm_up(w, &env, net);

    let mut runner = Runner {
        jobs: &jobs,
        env: &env,
        place,
        seed: args.seed,
        backends,
        probe: HostProbe::new(),
        last_probe: Instant::now(),
        next_id: 1,
        passes_done: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let budget = Duration::from_secs(args.seconds);
    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let mut m = Metrics::default();
        runner.place.pin(true);
        layers::probe(w, &jobs, &env, net, &mut m);
        traced(&mut runner, budget, &mut m);
        runner.place.pin(false);
        PER_LAYER
            .iter()
            .filter(|(name, _)| net || !name.starts_with("net."))
            .map(|&(name, unit)| {
                let v = m
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} not measured"));
                println!("layer {} {name} {v:.6} {unit}", w.name());
                (name, v, unit)
            })
            .collect()
    } else {
        let passes = runner.passes(budget, MIN_PASSES);
        runner.place.pin(false);
        end_to_end(&runner, &passes, setup0_s, net)
    };

    for f in runner.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    let failed = runner.failures.len() as u64;
    println!(
        "e2e {} fail_frac {} ({failed} of {} operations failed: job runs, compiles, set-ups)",
        w.name(),
        failed as f64 / runner.attempted.max(1) as f64,
        runner.attempted
    );
    match (steal0, host::steal_ticks()) {
        (Some(a), Some(b)) => println!("host: steal ticks over the run {}", b.saturating_sub(a)),
        _ => println!("host: steal ticks unavailable"),
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        runner.attempted,
        body.join(", ")
    );
    Ok(())
}

fn print_fingerprint(w: Workload, place: &Placement, env: &Env) {
    let procs = w.procs();
    let n = place.all.len();
    let exceeds = |p: usize, c: usize| if p > c { "exceeds" } else { "fits" };
    println!("host: nproc {n} cpus {}", fmt_cpus(&place.all));
    println!(
        "host: sim, lockstep, net: {procs} procs pinned to cpu {} ({} 1 core); parallel: {} procs on cpus {} ({} {n} cores)",
        fmt_cpus(&place.one),
        exceeds(procs, 1),
        env.nproc,
        fmt_cpus(&place.all),
        exceeds(env.nproc, n),
    );
    println!("host: rustc {}", host::rustc_version());
    println!("host: kernel {}", host::kernel_release());
}

/// Start the backends once untimed, so the first timed job does not pay
/// for lazy set-up (thread stacks, the worker binary's page cache).
fn warm_up(w: Workload, env: &Env, net: bool) {
    use olden_exec::{run_exec, ExecConfig};
    run_exec(ExecConfig::lockstep(w.procs()), |_| ());
    if net {
        let cfg =
            olden_net::NetConfig::new(ExecConfig::lockstep(w.procs()), env.worker_cmd.clone());
        olden_net::run_net(cfg, |_| ());
    }
}

#[derive(Clone, Copy)]
enum Step {
    Run(Backend),
    Compile,
    /// A lockstep run with obs event recording on.
    Recorded,
    /// The workload's set-up, repeated and checked against the first.
    Setup,
}

/// What a pass runs besides every job on every backend and a compile
/// of each job.
#[derive(Clone, Copy, PartialEq)]
enum Extra {
    None,
    /// One set-up (the `--trace 0` passes, for `setup_s`).
    Setup,
    /// One recorded lockstep run of every job (the untraced passes of
    /// `--trace 1`, for `obs.record_overhead`).
    Recorded,
}

/// One pass: a round on every backend, plus one compile per job.
#[derive(Default)]
struct Pass {
    /// Round wall time less the time the hypervisor took from the
    /// round's CPUs (averaged over them) while its jobs ran.
    round_ms: [f64; 4],
    steal_ms: [f64; 4],
    recorded_ms: f64,
    setup_s: Option<f64>,
    compile_ms: Vec<f64>,
    /// Host probe times taken during the pass, in ns.
    host_ns: Vec<u64>,
    messages: [u64; 4],
    clients: [u64; 4],
    spans: Vec<Span>,
}

struct Runner<'a> {
    jobs: &'a [Job],
    env: &'a Env,
    place: Placement,
    seed: u64,
    backends: Vec<Backend>,
    probe: HostProbe,
    last_probe: Instant,
    next_id: u64,
    passes_done: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Runner<'_> {
    fn note(&mut self, what: String, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(format!("{what}: {f}"));
        }
    }

    /// Untraced passes until `budget` has elapsed and at least `min`
    /// are done.
    fn passes(&mut self, budget: Duration, min: usize) -> Vec<Pass> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || t0.elapsed() < budget {
            out.push(self.pass(&Tracer::default(), Extra::Setup));
        }
        out
    }

    /// Jobs that run on backend `b` in each pass.
    fn jobs_on(&self, b: Backend) -> usize {
        self.jobs
            .iter()
            .filter(|j| b != Backend::Net || j.on_net)
            .count()
    }

    fn probe_host(&mut self, p: &mut Pass) {
        self.place.pin(true);
        p.host_ns.push(self.probe.time_ns());
        self.last_probe = Instant::now();
    }

    fn pass(&mut self, tracer: &Tracer, extra: Extra) -> Pass {
        let mut steps = Vec::new();
        for j in 0..self.jobs.len() {
            steps.extend(
                self.backends
                    .iter()
                    .filter(|&&b| b != Backend::Net || self.jobs[j].on_net)
                    .map(|&b| (j, Step::Run(b))),
            );
            steps.push((j, Step::Compile));
            if extra == Extra::Recorded {
                steps.push((j, Step::Recorded));
            }
        }
        if extra == Extra::Setup {
            steps.push((0, Step::Setup));
        }
        let mut rng = SplitMix64::new(mix2(self.seed, self.passes_done));
        for i in (1..steps.len()).rev() {
            steps.swap(i, rng.below(i as u64 + 1) as usize);
        }
        self.passes_done += 1;

        let mut p = Pass::default();
        self.probe_host(&mut p);
        for (j, step) in steps {
            if self.last_probe.elapsed() >= PROBE_EVERY {
                self.probe_host(&mut p);
            }
            let job = &self.jobs[j];
            let id = self.next_id;
            self.next_id += 1;
            match step {
                Step::Compile => {
                    self.place.pin(true);
                    let t = Instant::now();
                    let out = tracer.span("analysis.compile", id, 0, |_| compile(&job.src));
                    p.compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let failure = match out {
                        Ok((_, _, ir)) if same_shape(&ir, &job.ir) => None,
                        Ok(_) => Some("compiled IR differs from set-up".to_string()),
                        Err(e) => Some(e),
                    };
                    self.note(format!("{} compile", job.label), failure);
                }
                Step::Run(b) => {
                    self.place.pin(b.pinned());
                    let cpus = self.place.cpus(b.pinned()).to_vec();
                    let s0 = host::steal_ms(&cpus);
                    let r = run_job(job, b, self.env, tracer, id, false);
                    let stolen = (host::steal_ms(&cpus) - s0) / cpus.len() as f64;
                    let i = b as usize;
                    p.round_ms[i] += r.wall_ms - stolen;
                    p.steal_ms[i] += stolen;
                    p.messages[i] += r.messages;
                    p.clients[i] += r.clients;
                    self.note(format!("{} {}", job.label, b.name()), r.failure);
                }
                Step::Recorded => {
                    self.place.pin(true);
                    let r = run_job(job, Backend::Lockstep, self.env, tracer, id, true);
                    p.recorded_ms += r.wall_ms;
                    self.note(format!("{} lockstep recorded", job.label), r.failure);
                }
                Step::Setup => {
                    self.place.pin(true);
                    let w = self.env.workload;
                    let s0 = host::steal_ms(&self.place.one);
                    let t = Instant::now();
                    let again = setup(w, self.seed);
                    let stolen_s = (host::steal_ms(&self.place.one) - s0) / 1e3;
                    p.setup_s = Some(t.elapsed().as_secs_f64() - stolen_s);
                    let failure = match again {
                        Ok(jobs) if same_setup(&jobs, self.jobs) => None,
                        Ok(_) => Some("set-up is not deterministic".to_string()),
                        Err(e) => Some(e),
                    };
                    self.note(format!("{} set-up", w.name()), failure);
                }
            }
        }
        p
    }
}

fn same_setup(a: &[Job], b: &[Job]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (
                &x.label,
                x.sim_value,
                x.tiny_value,
                x.tiny,
                x.seq_makespan,
                &x.trips,
                x.on_net,
            ) == (
                &y.label,
                y.sim_value,
                y.tiny_value,
                y.tiny,
                y.seq_makespan,
                &y.trips,
                y.on_net,
            )
        })
}

fn same_shape(a: &IrProgram, b: &IrProgram) -> bool {
    a.site_count() == b.site_count() && a.funcs.len() == b.funcs.len() && a.trip_keys == b.trip_keys
}

fn rounds<'a>(passes: impl IntoIterator<Item = &'a Pass>, b: Backend) -> Vec<f64> {
    passes.into_iter().map(|p| p.round_ms[b as usize]).collect()
}

/// The passes whose round on `b` lost no time to steal, or the
/// [`MIN_PASSES`] that lost the least if fewer did.
fn least_steal(passes: &[Pass], b: Backend) -> Vec<&Pass> {
    let mut stolen: Vec<f64> = passes.iter().map(|p| p.steal_ms[b as usize]).collect();
    stolen.sort_by(f64::total_cmp);
    let cut = stolen[MIN_PASSES.min(stolen.len()) - 1].max(0.0);
    passes
        .iter()
        .filter(|p| p.steal_ms[b as usize] <= cut)
        .collect()
}

fn host_us(p: &Pass) -> f64 {
    let ns: Vec<f64> = p.host_ns.iter().map(|&n| n as f64).collect();
    stats::median(&ns) / 1e3
}

/// The factor that scales a pass's times to a host on which the probe
/// takes [`PROBE_REF_US`]. The host's slow stretches last seconds, longer
/// than a pass, so one factor per pass follows them; the probe is not
/// code of the program under test, so a slower program is measured, not
/// scaled away.
fn host_scale(p: &Pass) -> f64 {
    PROBE_REF_US / host_us(p)
}

fn median_name(b: Backend) -> (&'static str, &'static str) {
    match b {
        Backend::Sim => ("sim_ms", "sim_tail_ms"),
        Backend::Lockstep => ("lockstep_ms", "lockstep_tail_ms"),
        Backend::Parallel => ("parallel_ms", "parallel_tail_ms"),
        Backend::Net => ("net_ms", "net_tail_ms"),
    }
}

fn end_to_end(
    runner: &Runner,
    passes: &[Pass],
    setup0_s: f64,
    net: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let w = runner.env.workload.name();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, v: f64, how: String| {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed metric")
            .1;
        println!("e2e {w} {name} {v:.6} {unit} ({how})");
        out.push((name, v));
    };
    let mut timed = |name: (&'static str, &'static str), v: &[f64], what: &str| {
        let t = stats::tail(v).expect("MIN_PASSES leaves ten samples beyond the tail");
        put(
            name.0,
            stats::median(v),
            format!("median of {} {what}", v.len()),
        );
        put(name.1, t.value, format!("p{:.1} of {} {what}", t.pct, t.n));
    };
    let probes: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", host_us(p)))
        .collect();
    println!(
        "host {w} probe us (median per pass), in pass order: {}",
        probes.join(" ")
    );
    let scaled = format!("scaled by {PROBE_REF_US} us / their pass's probe median");
    for &b in &runner.backends {
        let raw = rounds(passes, b);
        let list: Vec<String> = raw.iter().map(|v| format!("{v:.2}")).collect();
        println!(
            "rounds {w} {} ms less steal, in pass order: {} (median {:.3} ms; steal subtracted over the run {:.1} ms)",
            b.name(),
            list.join(" "),
            stats::median(&raw),
            passes.iter().map(|p| p.steal_ms[b as usize]).sum::<f64>()
        );
        // The probe times the pinned CPU; parallel jobs run on every CPU,
        // where thread start-up and the scheduler set the pace, and
        // scaling them by the probe widened their run-to-run spread.
        // Steal hurts them more than the time it takes: a stolen CPU
        // stalls threads on the other (rounds of 85 ms took 120-300 ms
        // in runs with ten steal ticks a second), so their rounds come
        // from the passes that lost the least to steal.
        if b == Backend::Parallel {
            let calm = least_steal(passes, b);
            timed(
                median_name(b),
                &rounds(calm.iter().copied(), b),
                &format!(
                    "unscaled rounds of the {} passes with least steal",
                    calm.len()
                ),
            );
            continue;
        }
        let r: Vec<f64> = passes
            .iter()
            .map(|p| p.round_ms[b as usize] * host_scale(p))
            .collect();
        timed(median_name(b), &r, &format!("rounds {scaled}"));
    }
    let compiles: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.compile_ms.iter().map(move |&c| c * host_scale(p)))
        .collect();
    timed(
        ("compile_ms", "compile_tail_ms"),
        &compiles,
        &format!("compiles {scaled}"),
    );
    let speedups: Vec<f64> = if runner.env.workload == Workload::DslGen {
        workload::dsl_speedups(runner.seed).expect("set-up compiled these programs")
    } else {
        runner
            .jobs
            .iter()
            .filter_map(|j| {
                j.sim_first
                    .get()
                    .map(|s| j.seq_makespan as f64 / s.makespan as f64)
            })
            .collect()
    };
    put(
        "sim_speedup",
        stats::geomean(&speedups),
        format!(
            "geomean of {} programs over Config::sequential()",
            speedups.len()
        ),
    );
    let setups: Vec<f64> = passes
        .iter()
        .filter_map(|p| Some(p.setup_s? * host_scale(p)))
        .collect();
    put(
        "setup_s",
        stats::median(&setups),
        format!(
            "median of {} repeat set-ups {scaled}; the first took {setup0_s:.4} s",
            setups.len()
        ),
    );
    put(
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(f64::NAN),
        "driver VmHWM".to_string(),
    );
    END_TO_END
        .iter()
        .filter(|(name, _)| net || !name.starts_with("net_"))
        .map(|&(name, unit)| {
            let v = out
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("end-to-end metric {name} not measured"))
                .1;
            (name, v, unit)
        })
        .collect()
}

/// Sum of one span name's durations per pass, in ms.
fn span_ms_per_pass(passes: &[Pass], name: &str) -> Vec<f64> {
    passes
        .iter()
        .map(|p| {
            p.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum()
        })
        .collect()
}

/// The `--trace 1` run after the probes: untraced passes (with recorded
/// lockstep runs beside them) alternating with traced passes, so both
/// see the same host conditions; then per-layer counts, span self
/// times, tracing overhead and reconciliation.
fn traced(runner: &mut Runner, budget: Duration, m: &mut Metrics) {
    let w = runner.env.workload.name();
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < TRACED_MIN_PASSES || t0.elapsed() < budget {
        untraced.push(runner.pass(&Tracer::default(), Extra::Recorded));
        let tracer = Tracer::on();
        let mut p = runner.pass(&tracer, Extra::None);
        p.spans = tracer.spans();
        traced.push(p);
    }

    // Counts of one simulator round (deterministic across passes).
    let sims: Vec<_> = runner
        .jobs
        .iter()
        .filter_map(|j| j.sim_first.get())
        .collect();
    let sum = |f: &dyn Fn(&workload::SimRun) -> u64| sims.iter().map(|s| f(s)).sum::<u64>() as f64;
    let hits = sum(&|s| s.counters.cache.hits);
    let misses = sum(&|s| s.counters.cache.misses);
    let sent = sum(&|s| s.counters.cache.invalidations_sent);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.put("cache.hits", hits);
    m.put("cache.misses", misses);
    m.put("cache.hit_ratio", ratio(hits, hits + misses));
    m.put("cache.invalidations_sent", sent);
    m.put(
        "cache.spurious_ratio",
        ratio(sum(&|s| s.counters.cache.invalidations_spurious), sent),
    );
    m.put(
        "cache.revalidations",
        sum(&|s| s.counters.cache.revalidations),
    );
    m.put(
        "cache.write_track_cycles",
        sum(&|s| s.counters.cache.write_track_cycles),
    );
    m.put("runtime.migrations", sum(&|s| s.counters.stats.migrations));
    m.put("runtime.steals", sum(&|s| s.counters.stats.steals));
    m.put("runtime.futures", sum(&|s| s.counters.stats.futures));
    m.put(
        "runtime.return_migrations",
        sum(&|s| s.counters.stats.return_migrations),
    );
    m.put("machine.segments", sum(&|s| s.segments));

    let med = |passes: &[Pass], b: Backend| stats::median(&rounds(passes, b));
    let messages = untraced[0].messages[Backend::Lockstep as usize] as f64;
    m.put("exec.messages", messages);
    m.put(
        "exec.us_per_msg",
        med(&untraced, Backend::Lockstep) * 1e3 / messages.max(1.0),
    );
    let clients: Vec<f64> = untraced
        .iter()
        .map(|p| p.clients[Backend::Parallel as usize] as f64)
        .collect();
    m.put("exec.clients", stats::median(&clients));
    let net = runner.backends.contains(&Backend::Net);
    if net {
        m.put(
            "net.frames",
            untraced[0].messages[Backend::Net as usize] as f64,
        );
    }
    let recorded: Vec<f64> = untraced.iter().map(|p| p.recorded_ms).collect();
    m.put(
        "obs.record_overhead",
        stats::median(&recorded) / med(&untraced, Backend::Lockstep),
    );
    m.put(
        "runtime.kernel_ms",
        stats::median(&span_ms_per_pass(&traced, "runtime.OldenCtx")),
    );
    m.put(
        "machine.schedule_ms",
        stats::median(&span_ms_per_pass(&traced, "machine.schedule")),
    );

    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    println!(
        "spans: {} recorded over {} traced passes ({} jobs)",
        spans.len(),
        traced.len(),
        spans
            .iter()
            .map(|s| s.job)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    for (name, s) in trace::summarize(&spans) {
        println!(
            "span {w} {name:<24} calls {:>6} total {:>10.3} ms self {:>10.3} ms",
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }

    let mut overhead = 0.0;
    for &b in &runner.backends {
        let d = med(&traced, b) - med(&untraced, b);
        overhead += d;
        println!(
            "trace-overhead {w} {}: traced {:.3} ms - untraced {:.3} ms = {d:.3} ms per round",
            b.name(),
            med(&traced, b),
            med(&untraced, b)
        );
    }
    m.put("trace.overhead_ms", overhead);

    for &b in &runner.backends {
        reconcile(runner, b, med(&untraced, b), &untraced[0], m);
    }
}

/// Σ(unit cost × event count) against a backend's median round wall
/// time; what the terms leave over is named.
fn reconcile(runner: &Runner, b: Backend, wall_ms: f64, pass: &Pass, m: &Metrics) {
    let get = |n: &str| {
        m.get(n)
            .unwrap_or_else(|| panic!("reconciliation needs {n}"))
    };
    let jobs = runner.jobs_on(b) as f64;
    let msgs = pass.messages[b as usize] as f64;
    let (terms, rest): (Vec<(String, f64)>, &str) = match b {
        Backend::Sim => {
            let access: f64 = runner
                .jobs
                .iter()
                .filter_map(|j| {
                    let s = j.sim_first.get()?;
                    let refs =
                        (s.counters.cache.remote_reads + s.counters.cache.remote_writes) as f64;
                    let unit = get(layers::access_metric(j.protocol));
                    Some(refs * unit / 1e6)
                })
                .sum();
            (
                vec![
                    ("cache access (access_ns x remote refs)".to_string(), access),
                    ("schedule (span)".to_string(), get("machine.schedule_ms")),
                ],
                "kernel compute, heap and trace recording",
            )
        }
        Backend::Lockstep | Backend::Parallel => (
            vec![
                (
                    format!("spawn ({jobs} x {:.1} us)", get("exec.spawn_us")),
                    jobs * get("exec.spawn_us") / 1e3,
                ),
                (
                    format!("mailbox ({msgs} x {:.2} us)", get("exec.rtt_us")),
                    msgs * get("exec.rtt_us") / 1e3,
                ),
            ],
            if b == Backend::Lockstep {
                "client compute and worker service"
            } else {
                "body threads, steals and CPU contention"
            },
        ),
        Backend::Net => {
            let codec = [
                "net.codec_ns.cache_lookup",
                "net.codec_ns.line_fetch",
                "net.codec_ns.migrate",
                "net.codec_ns.invalidate_lines",
            ]
            .iter()
            .map(|n| get(n))
            .sum::<f64>()
                / 4.0;
            (
                vec![
                    (
                        format!("fleet ({jobs} x {:.2} ms)", get("net.fleet_ms")),
                        jobs * get("net.fleet_ms"),
                    ),
                    (
                        format!("tcp ({msgs} x {:.2} us)", get("net.tcp_rtt_us")),
                        msgs * get("net.tcp_rtt_us") / 1e3,
                    ),
                    (
                        format!("codec ({msgs} x {codec:.0} ns)"),
                        msgs * codec / 1e6,
                    ),
                ],
                "worker service and process scheduling",
            )
        }
    };
    let attributed: f64 = terms.iter().map(|(_, v)| v).sum();
    let parts: Vec<String> = terms
        .iter()
        .map(|(what, v)| format!("{what} {v:.3} ms"))
        .collect();
    let left = wall_ms - attributed;
    println!(
        "reconcile {}/{}: wall {wall_ms:.3} ms = {} + unattributed {left:.3} ms ({:.1}%) [{rest}]",
        runner.env.workload.name(),
        b.name(),
        parts.join(" + "),
        100.0 * left / wall_ms
    );
}
