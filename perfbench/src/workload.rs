//! The four workloads, their set-up (inputs plus the expected results
//! every job is checked against), and one job's execution on one
//! backend.

use crate::trace::Tracer;
use olden_analysis::{compile, gen_source, racecheck, IrProgram, Severity};
use olden_benchmarks::{by_name, generic_run, SizeClass};
use olden_cache::CacheStats;
use olden_exec::{try_run_exec, ExecConfig, ExecReport};
use olden_machine::sched;
use olden_net::{try_run_net, NetConfig};
use olden_rng::mix2;
use olden_runtime::{
    run, run_ir, Backend as Ctx, Config, OldenCtx, Protocol, RunStats, DEFAULT_FUEL,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Procs of the kernel jobs on sim, lockstep and net.
const KERNEL_PROCS: usize = 8;
/// Procs of the generated programs on sim, lockstep and net (CI's
/// difftest uses the same).
const DSL_PROCS: usize = 4;
/// Generated programs per `dsl-gen` round.
const DSL_PROGRAMS: usize = 96;
/// The round's programs are paced in two measures: taken in the seed's
/// order, a program is skipped if it would leave the round's summed
/// simulated 4-proc makespan more than [`DSL_PACE_SLACK`] cycles off
/// `DSL_PACE` times the programs taken, or its summed lockstep messages
/// more than [`DSL_MSG_SLACK`] off `DSL_MSG_PACE` times the programs
/// taken. A program's simulator time follows its makespan (correlation
/// 0.97 over 192 programs); its lockstep and net times follow its
/// messages (0.95 and 0.93), which the simulator's counters predict
/// poorly (r² 0.54), so set-up counts them with one lockstep run. Taking
/// the first 96 programs, the makespan moved the simulator round by a
/// quarter between seeds; pacing the makespan alone left the lockstep
/// and net rounds moving by a fifth with the messages.
const DSL_PACE: u64 = 16_000;
/// See [`DSL_PACE`]; about 1.4 times the median program's makespan.
const DSL_PACE_SLACK: u64 = 20_000;
/// Lockstep messages per program a round is paced to; see [`DSL_PACE`].
const DSL_MSG_PACE: u64 = 180;
/// See [`DSL_PACE`]; about 1.8 times the median program's messages.
const DSL_MSG_SLACK: u64 = 300;
/// Generated programs behind `dsl-gen`'s `sim_speedup`: the round's
/// programs and the ones that follow them in the seed's sequence. The
/// speedups of single programs spread over three orders of magnitude,
/// so a geometric mean over only the timed programs would move by a
/// fifth from seed to seed.
const SPEEDUP_PROGRAMS: usize = 1536;
/// Programs of a `dsl-gen` round that also run on net: those that send
/// the fewest lockstep messages, so the net round times what `dsl-gen`
/// is for, the fixed cost of a short run. A net fleet leaves
/// about a dozen loopback connections in TIME_WAIT for 60 s, and once
/// some 23 K of them are held (ephemeral ports 32768-60999) `connect`
/// slows an empty fleet from 4 ms to 10-20 ms. Every program on net left
/// ~1,300 a second, so a run's net rounds timed the leftovers of its own
/// first seconds and of the run before it; 8 keep the rate near the
/// kernel workloads' ~150 a second. The 8 programs of median makespan
/// instead moved the net round by up to a third from seed to seed, with
/// the messages they happened to send, and the 8 of least makespan by a
/// quarter.
const DSL_NET_PROGRAMS: usize = 8;
/// A job whose transport makes no progress for this long fails.
const STALL: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CacheRead,
    Migrate,
    CoherenceWrite,
    DslGen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CacheRead,
        Workload::Migrate,
        Workload::CoherenceWrite,
        Workload::DslGen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CacheRead => "cache-read",
            Workload::Migrate => "migrate",
            Workload::CoherenceWrite => "coherence-write",
            Workload::DslGen => "dsl-gen",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Procs of the sim, lockstep and net jobs.
    pub fn procs(self) -> usize {
        match self {
            Workload::DslGen => DSL_PROCS,
            _ => KERNEL_PROCS,
        }
    }

    /// Kernel jobs as `(benchmark, coherence scheme)`.
    fn kernels(self) -> Vec<(&'static str, Protocol)> {
        use Protocol::*;
        match self {
            Workload::CacheRead => vec![
                ("Barnes-Hut", LocalKnowledge),
                ("Perimeter", LocalKnowledge),
            ],
            Workload::Migrate => ["TreeAdd", "Power", "TSP", "MST"]
                .into_iter()
                .map(|b| (b, LocalKnowledge))
                .collect(),
            Workload::CoherenceWrite => ["Bisort", "Voronoi", "Health"]
                .into_iter()
                .flat_map(|b| [(b, GlobalKnowledge), (b, Bilateral)])
                .collect(),
            Workload::DslGen => Vec::new(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    Sim,
    Lockstep,
    Parallel,
    Net,
}

impl Backend {
    pub const ALL: [Backend; 4] = [
        Backend::Sim,
        Backend::Lockstep,
        Backend::Parallel,
        Backend::Net,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Lockstep => "lockstep",
            Backend::Parallel => "parallel",
            Backend::Net => "net",
        }
    }

    /// Only one logical thread runs at a time on these, so they are
    /// pinned to one CPU.
    pub fn pinned(self) -> bool {
        self != Backend::Parallel
    }
}

/// What a job runs.
#[derive(Clone)]
pub enum Program {
    /// A Table-1 kernel: Default size on the simulator, Tiny elsewhere.
    Kernel(&'static str),
    /// A generated DSL program run through the IR interpreter, with the
    /// program seed as its input seed.
    Dsl(u64, Arc<IrProgram>),
}

impl Program {
    fn run<B: Ctx>(&self, ctx: &mut B, size: SizeClass) -> u64 {
        match self {
            Program::Kernel(name) => generic_run(name, ctx, size).expect("registry benchmark"),
            Program::Dsl(seed, ir) => run_ir(ctx, ir, *seed, DEFAULT_FUEL, None).checksum,
        }
    }

    /// The span name of the call into the layer that owns the program.
    fn span_name(&self) -> &'static str {
        match self {
            Program::Kernel(_) => "benchmarks.generic_run",
            Program::Dsl(..) => "runtime.run_ir",
        }
    }
}

/// Counters a lockstep or net job must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Counters {
    pub stats: RunStats,
    pub cache: CacheStats,
    pub pages: u64,
}

/// What a simulator run of a job produced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimRun {
    pub counters: Counters,
    pub makespan: u64,
    pub segments: u64,
}

/// One job and everything it is checked against.
pub struct Job {
    pub label: String,
    pub program: Program,
    pub protocol: Protocol,
    /// DSL source: the kernel's rendition, or the generated program.
    pub src: String,
    /// `src` compiled at set-up.
    pub ir: Arc<IrProgram>,
    /// Control-loop trips at the lockstep size (the cost model's input).
    pub trips: Vec<(String, u64)>,
    /// Value of the simulator job (kernels: the serial reference at
    /// Default size; programs: the checksum).
    pub sim_value: u64,
    /// Value every other backend must return — except parallel on a
    /// program the static race check flags (`racy`): its futures race on
    /// heap data, so its parallel result depends on the interleaving.
    pub tiny_value: u64,
    pub racy: bool,
    /// Whether the job also runs on net.
    pub on_net: bool,
    /// The simulator's counters at the lockstep size and procs.
    pub tiny: Counters,
    /// Makespan of the sequential baseline at the simulator size.
    pub seq_makespan: u64,
    /// The first measured simulator run; later simulator runs must
    /// repeat its counters and makespan exactly.
    pub sim_first: OnceLock<SimRun>,
}

impl Job {
    fn sim_size(&self) -> SizeClass {
        match self.program {
            Program::Kernel(_) => SizeClass::Default,
            Program::Dsl(..) => SizeClass::Tiny,
        }
    }
}

/// Build the workload's jobs and their expected results. Deterministic
/// in `seed`, which only `dsl-gen` reads here (kernel inputs are fixed).
pub fn setup(w: Workload, seed: u64) -> Result<Vec<Job>, String> {
    let procs = w.procs();
    if w == Workload::DslGen {
        return setup_dsl(seed);
    }
    w.kernels()
        .into_iter()
        .map(|(name, protocol)| {
            let d = by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
            let (_, _, ir) = compile(d.dsl).map_err(|e| format!("{name} DSL: {e}"))?;
            let ir = Arc::new(ir);
            let tiny_value = (d.reference)(SizeClass::Tiny);
            let mut ctx = OldenCtx::new(Config::olden(procs).with_protocol(protocol));
            let v = generic_run(name, &mut ctx, SizeClass::Tiny).expect("registry benchmark");
            if v != tiny_value {
                return Err(format!(
                    "{name}: Tiny simulator value {v} != reference {tiny_value}"
                ));
            }
            let (_, seq) = run(Config::sequential(), |ctx| {
                generic_run(name, ctx, SizeClass::Default).expect("registry benchmark")
            });
            Ok(Job {
                label: format!("{name}/{}", protocol.name()),
                program: Program::Kernel(d.name),
                protocol,
                src: d.dsl.to_string(),
                ir,
                trips: (d.trips)(SizeClass::Tiny, procs)
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), n))
                    .collect(),
                sim_value: (d.reference)(SizeClass::Default),
                tiny_value,
                racy: false,
                on_net: true,
                tiny: counters_of(&ctx),
                seq_makespan: seq.makespan,
                sim_first: OnceLock::new(),
            })
        })
        .collect()
}

/// Generated programs from the workload seed, in order, each with its
/// makespan on the simulator, keeping those that finish within the
/// interpreter's fuel budget. A fuel-cut program's cost is set by the
/// cap, not by the program: about one seed in twenty is cut, and those
/// few would carry most of a round's time and make it depend on how many
/// of them a seed draws.
fn dsl_programs(seed: u64) -> impl Iterator<Item = Result<(Job, u64), String>> {
    (0u64..).filter_map(move |i| {
        let pseed = mix2(seed, i);
        let src = gen_source(pseed);
        let (prog, _, ir) = match compile(&src) {
            Ok(c) => c,
            Err(e) => return Some(Err(format!("program {pseed}: {e}"))),
        };
        let ir = Arc::new(ir);
        let (out, olden) = run(Config::olden(DSL_PROCS), |ctx| {
            run_ir(ctx, &ir, pseed, DEFAULT_FUEL, None)
        });
        if out.halted {
            return None;
        }
        let (_, seq) = run(Config::sequential(), |ctx| {
            run_ir(ctx, &ir, pseed, DEFAULT_FUEL, None)
        });
        let job = Job {
            label: format!("gen{pseed:016x}"),
            program: Program::Dsl(pseed, Arc::clone(&ir)),
            protocol: Protocol::LocalKnowledge,
            racy: racecheck(&prog)
                .iter()
                .any(|d| d.severity != Severity::Note),
            on_net: false,
            src,
            ir,
            trips: out.trips,
            sim_value: out.checksum,
            tiny_value: out.checksum,
            tiny: Counters {
                stats: olden.stats,
                cache: olden.cache,
                pages: olden.pages_cached,
            },
            seq_makespan: seq.makespan,
            sim_first: OnceLock::new(),
        };
        Some(Ok((job, olden.makespan)))
    })
}

fn setup_dsl(seed: u64) -> Result<Vec<Job>, String> {
    let (mut jobs, mut messages) = (Vec::new(), Vec::new());
    let (mut work, mut sent) = (0u64, 0u64);
    for r in dsl_programs(seed) {
        let (job, makespan) = r?;
        let taken = jobs.len() as u64 + 1;
        if (work + makespan).abs_diff(DSL_PACE * taken) > DSL_PACE_SLACK {
            continue;
        }
        let m = lockstep_messages(&job)?;
        if (sent + m).abs_diff(DSL_MSG_PACE * taken) > DSL_MSG_SLACK {
            continue;
        }
        jobs.push(job);
        messages.push(m);
        work += makespan;
        sent += m;
        if jobs.len() == DSL_PROGRAMS {
            break;
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| (messages[j], j));
    for &j in &order[..DSL_NET_PROGRAMS] {
        jobs[j].on_net = true;
    }
    Ok(jobs)
}

/// Messages a job sends on lockstep at its lockstep procs.
fn lockstep_messages(job: &Job) -> Result<u64, String> {
    let program = job.program.clone();
    let cfg = ExecConfig::lockstep(DSL_PROCS).with_stall_timeout(STALL);
    try_run_exec(cfg, move |ctx| program.run(ctx, SizeClass::Tiny))
        .map(|(_, rep)| rep.messages)
        .map_err(|e| format!("{}: set-up lockstep run: {e}", job.label))
}

/// The simulated speedups behind `dsl-gen`'s `sim_speedup`: sequential
/// over 4-proc makespan for the first [`SPEEDUP_PROGRAMS`] programs of
/// the seed's sequence.
pub fn dsl_speedups(seed: u64) -> Result<Vec<f64>, String> {
    dsl_programs(seed)
        .take(SPEEDUP_PROGRAMS)
        .map(|r| r.map(|(job, makespan)| job.seq_makespan as f64 / makespan as f64))
        .collect()
}

fn counters_of(ctx: &OldenCtx) -> Counters {
    Counters {
        stats: *ctx.stats(),
        cache: *ctx.cache().stats(),
        pages: ctx.cache().pages_cached(),
    }
}

/// What a backend needs besides the job.
pub struct Env {
    pub workload: Workload,
    /// Procs of a parallel job: the number of CPUs.
    pub nproc: usize,
    /// Command that starts one net worker process (this binary).
    pub worker_cmd: Vec<String>,
}

/// One job execution's wall time and what it reported.
#[derive(Default, Clone)]
pub struct Ran {
    pub wall_ms: f64,
    /// Why the job failed its check or did not finish.
    pub failure: Option<String>,
    /// Transport messages and logical threads (exec and net reports).
    pub messages: u64,
    pub clients: u64,
}

/// Run `job` on `backend`, timing it and checking its result. `record`
/// turns on obs event recording (lockstep only). Never panics: a panic
/// or typed backend error is a failed job.
pub fn run_job(
    job: &Job,
    backend: Backend,
    env: &Env,
    tracer: &Tracer,
    id: u64,
    record: bool,
) -> Ran {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| match backend {
        Backend::Sim => run_sim(job, env, tracer, id),
        _ => run_exec_like(job, backend, env, tracer, id, record),
    }));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut ran = match out {
        Ok(r) => r,
        Err(p) => Ran {
            failure: Some(format!("panicked: {}", panic_text(&*p))),
            ..Ran::default()
        },
    };
    ran.wall_ms = wall_ms;
    ran
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

fn run_sim(job: &Job, env: &Env, tracer: &Tracer, id: u64) -> Ran {
    let procs = env.workload.procs();
    let cfg = Config::olden(procs).with_protocol(job.protocol);
    let (value, counters, trace) = tracer.span("runtime.OldenCtx", id, 0, |sp| {
        let mut ctx = OldenCtx::new(cfg);
        let v = tracer.span(job.program.span_name(), id, sp, |_| {
            job.program.run(&mut ctx, job.sim_size())
        });
        let c = counters_of(&ctx);
        let (trace, _, _) = ctx.into_parts_public();
        (v, c, trace)
    });
    let makespan = match tracer.span("machine.schedule", id, 0, |_| {
        sched::schedule(&trace, procs)
    }) {
        Ok(s) => s.makespan,
        Err(e) => {
            return Ran {
                failure: Some(format!("schedule: {e:?}")),
                ..Ran::default()
            }
        }
    };
    let sim = SimRun {
        counters,
        makespan,
        segments: trace.len() as u64,
    };
    let mut failure = None;
    if value != job.sim_value {
        failure = Some(format!("value {value} != expected {}", job.sim_value));
    } else if matches!(job.program, Program::Dsl(..)) && counters != job.tiny {
        failure = Some("counters differ from the set-up simulator run".to_string());
    } else if *job.sim_first.get_or_init(|| sim) != sim {
        failure = Some("counters or makespan differ from the first simulator run".to_string());
    }
    Ran {
        failure,
        ..Ran::default()
    }
}

fn run_exec_like(
    job: &Job,
    backend: Backend,
    env: &Env,
    tracer: &Tracer,
    id: u64,
    record: bool,
) -> Ran {
    let mut cfg = match backend {
        Backend::Parallel => ExecConfig::parallel(env.nproc),
        _ => ExecConfig::lockstep(env.workload.procs()),
    }
    .with_protocol(job.protocol)
    .with_stall_timeout(STALL);
    if record {
        cfg = cfg.recorded();
    }
    let program = job.program.clone();
    let tr = tracer.clone();
    let result = if backend == Backend::Net {
        tracer.span("net.try_run_net", id, 0, |sp| {
            let net = NetConfig::new(cfg, env.worker_cmd.clone());
            try_run_net(net, move |ctx| {
                tr.span(program.span_name(), id, sp, |_| {
                    program.run(ctx, SizeClass::Tiny)
                })
            })
        })
    } else {
        tracer.span("exec.try_run_exec", id, 0, |sp| {
            try_run_exec(cfg, move |ctx| {
                tr.span(program.span_name(), id, sp, |_| {
                    program.run(ctx, SizeClass::Tiny)
                })
            })
        })
    };
    let (value, rep) = match result {
        Ok(out) => out,
        Err(e) => {
            return Ran {
                failure: Some(format!("{e}")),
                ..Ran::default()
            }
        }
    };
    Ran {
        failure: check_exec(job, backend, value, &rep, record),
        messages: rep.messages,
        clients: rep.clients,
        ..Ran::default()
    }
}

fn check_exec(
    job: &Job,
    backend: Backend,
    value: u64,
    rep: &ExecReport,
    record: bool,
) -> Option<String> {
    if value != job.tiny_value && !(backend == Backend::Parallel && job.racy) {
        return Some(format!("value {value} != expected {}", job.tiny_value));
    }
    let got = Counters {
        stats: rep.stats,
        cache: rep.cache,
        pages: rep.pages_cached,
    };
    if backend != Backend::Parallel && got != job.tiny {
        return Some(format!(
            "{} counters differ from the simulator's",
            backend.name()
        ));
    }
    if record && rep.recording.is_none() {
        return Some("recorded run returned no recording".to_string());
    }
    None
}
