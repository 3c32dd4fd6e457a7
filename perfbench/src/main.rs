//! `atr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! stdout, one JSON object `{correct, attempted, failed, metrics}`.
//! With `--trace 0` the metrics are the end-to-end ones (medians over
//! the run's rounds); with `--trace 1` they are the per-layer split.
//! A diagnostics object (digest, CPU time, figure headlines) is printed
//! on the line before it. See `README.md`.

use atr_json::Json;
use atr_perfbench::core_loop::{self, Mode, PointRun, Window};
use atr_perfbench::figures;
use atr_perfbench::layers::{self, LayerCosts};
use atr_perfbench::spans::Tracer;
use atr_perfbench::{host, median, percentile, Round, Workload};
use atr_telemetry::CpiBucket;
use atr_workload::SpecProfile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: atr-perfbench --workload <figures_tiny|deep_window|rename_pressure> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts =
        Options { workload: Workload::FiguresTiny, seed: 0, seconds: 30.0, trace: false };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Everything a run reports.
struct Report {
    rounds: Vec<Round>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
    diagnostics: Vec<(&'static str, Json)>,
}

impl Report {
    fn new(rounds: Vec<Round>) -> Report {
        Report { rounds, metrics: Vec::new(), problems: Vec::new(), diagnostics: Vec::new() }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Every round must have produced the same simulated results.
    fn check_digests(&mut self) {
        let first = self.rounds[0].digest;
        if self.rounds.iter().any(|r| r.digest != first) {
            let all: Vec<String> =
                self.rounds.iter().map(|r| format!("{:016x}", r.digest)).collect();
            self.problems.push(format!("sim_digest differs between rounds: {all:?}"));
        }
    }
}

/// Where build products live: the directory holding this executable's
/// profile directory (`<target>/release/atr-perfbench`).
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.parent().and_then(std::path::Path::parent).map_or_else(|| PathBuf::from("."), PathBuf::from)
}

fn core_plan(workload: Workload, seed: u64) -> Vec<core_loop::Point> {
    match workload {
        Workload::DeepWindow => core_loop::deep_window_points(seed),
        Workload::RenamePressure => core_loop::rename_pressure_points(seed),
        Workload::FiguresTiny => unreachable!("the figure pass has its own plan"),
    }
}

/// One round of `workload`, with the figure pass it ran (if any).
fn round(opts: &Options, tracer: &mut Tracer) -> (Round, Option<figures::Pass>) {
    match opts.workload {
        Workload::FiguresTiny => {
            let sim = figures::sim_config(figures::BUDGET);
            let setup_s = setup_only(opts);
            let pass = figures::pass(&sim, &figures::session(1), tracer);
            let mut round = pass.round.clone();
            round.setup_s = setup_s;
            // `ensure_with` also builds the programs and constructs the
            // cores; the simulate phase is what is left of it.
            round.sim_s -= setup_s;
            (round, Some(pass))
        }
        w => {
            let seed = opts.seed;
            (core_loop::run_round(&|| core_plan(w, seed), w.name(), tracer, Mode::Plain).0, None)
        }
    }
}

/// Host seconds of one set-up of `workload`, nothing simulated.
fn setup_only(opts: &Options) -> f64 {
    match opts.workload {
        Workload::FiguresTiny => {
            core_loop::setup_only(&|| figures::plan_points(&figures::sim_config(figures::BUDGET)))
        }
        w => {
            let seed = opts.seed;
            core_loop::setup_only(&|| core_plan(w, seed))
        }
    }
}

fn measured(opts: &Options) -> Report {
    let mut last_pass = None;
    let mut rounds = Vec::new();
    // Set-up is short next to a round, so it is sampled more often:
    // extra set-ups run before every round, so they see the same host
    // conditions as the rounds do.
    let mut setups = Vec::new();
    for _ in 0..opts.workload.rounds(opts.seconds) {
        setups.extend((0..opts.workload.setups_per_round()).map(|_| setup_only(opts)));
        let (round, pass) = round(opts, &mut Tracer::new(false));
        setups.push(round.setup_s);
        rounds.push(round);
        last_pass = pass;
    }
    let mut report = Report::new(rounds);
    let med = |f: fn(&Round) -> f64| median(&report.rounds.iter().map(f).collect::<Vec<_>>());
    let (wall, kips, kcps) = (med(|r| r.wall_s), med(Round::sim_kips), med(Round::sim_kcps));
    report.metric("wall_s", wall, "s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("sim_kips", kips, "kinst/s");
    report.metric("sim_kcps", kcps, "kcycle/s");
    report.metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");
    if let Some(pass) = last_pass {
        report.diagnostics.push(("headlines", headlines(&pass.headlines)));
    }
    report
}

fn headlines(hs: &[figures::Headline]) -> Json {
    Json::Arr(
        hs.iter()
            .map(|h| {
                Json::Obj(vec![
                    ("figure".to_owned(), Json::Str(h.name.to_owned())),
                    ("value".to_owned(), Json::Num(h.value)),
                    ("paper".to_owned(), Json::Num(h.paper)),
                    ("note".to_owned(), Json::Str("indicative only at the tiny budget".to_owned())),
                ])
            })
            .collect(),
    )
}

/// Each program of `runs` with the instructions retired on it.
fn streams(runs: &[PointRun]) -> Vec<(SpecProfile, u64)> {
    let mut by_program: BTreeMap<(&str, u64), (SpecProfile, u64)> = BTreeMap::new();
    for r in runs {
        let key = (r.profile.name, r.profile.params.seed);
        by_program.entry(key).or_insert_with(|| (r.profile.clone(), 0)).1 += r.stats.retired;
    }
    by_program.into_values().collect()
}

/// What the traced run gathered for the per-layer metrics.
struct Traced {
    /// The untraced reference round.
    plain: Round,
    /// The same round with spans recorded.
    traced: Round,
    /// Spans of the sim layer: the figure pass, or the core-loop round
    /// (whose set-up spans it also holds).
    sim: Tracer,
    /// Spans of the direct figure-point run and the layer probes.
    core: Tracer,
    /// Host ns of every individually timed tick.
    ticks: Vec<u32>,
    /// The telemetry-observed runs the model counts come from.
    counted: Vec<PointRun>,
    /// Standalone per-call layer costs.
    costs: LayerCosts,
    /// Points the sim layer was asked for and simulated.
    requested: usize,
    simulated: usize,
}

fn traced(opts: &Options) -> Report {
    let w = opts.workload;
    let (plain, _) = round(opts, &mut Tracer::new(false));
    let mut sim = Tracer::new(true);
    let mut core = Tracer::new(true);
    let mut ticks = Vec::new();
    let mut problems = Vec::new();
    let mut diagnostics = Vec::new();
    let (traced_round, points, requested, simulated, reference_digest) = match w {
        Workload::FiguresTiny => {
            let (round, pass) = round(opts, &mut sim);
            let pass = pass.expect("a figure round runs a figure pass");
            // Per-point host times in a round of their own, so the
            // traced round above stays batched like the reference.
            let sim_cfg = figures::sim_config(figures::BUDGET);
            problems.extend(figures::per_point(&sim_cfg, &figures::session(1), &pass, &mut sim));
            // Per-tick host time of the same points, driven directly;
            // their results must equal the run matrix's.
            let points = figures::direct_points(&sim_cfg, &pass.unique);
            let plan = || points.clone();
            let (direct, runs) =
                core_loop::run_round(&plan, "direct", &mut core, Mode::TimedTicks(&mut ticks));
            if runs.len() == pass.unique.len() {
                for (p, r) in pass.unique.iter().zip(&runs) {
                    let cached = &pass.matrix.get(p).stats;
                    if (cached.cycles, cached.retired) != (r.stats.cycles, r.stats.retired) {
                        problems.push(format!("{}: direct run differs from the matrix", r.label));
                    }
                }
            }
            problems.extend(direct.problems);
            diagnostics.push(("headlines", headlines(&pass.headlines)));
            (round, points, pass.requested, pass.matrix.executed(), direct.digest)
        }
        _ => {
            let plan = || core_plan(w, opts.seed);
            let round =
                core_loop::run_round(&plan, w.name(), &mut sim, Mode::TimedTicks(&mut ticks)).0;
            let n = round.points;
            (round, plan(), n, n, plain.digest)
        }
    };
    // Model counts, with the telemetry observer attached.
    let plan = || points.clone();
    let (counted, runs) =
        core_loop::run_round(&plan, "counts", &mut Tracer::new(false), Mode::Telemetry);
    if counted.digest != reference_digest {
        problems.push("the telemetry observer changed the simulated results".to_owned());
    }
    problems.extend(counted.problems);
    let costs = layers::probe(&streams(&runs), &mut core);

    for (tracer, part) in [(&sim, "sim"), (&core, "core")] {
        let name = format!("{}-seed{}-{part}.jsonl", w.name(), opts.seed);
        let path = target_dir().join("perfbench-spans").join(name);
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let mut t = Traced {
        plain,
        traced: traced_round,
        sim,
        core,
        ticks,
        counted: runs,
        costs,
        requested,
        simulated,
    };
    let mut report = Report::new(Vec::new());
    report.metrics = t.metrics(w == Workload::FiguresTiny);
    report.rounds = vec![t.plain, t.traced];
    report.problems = problems;
    report.diagnostics = diagnostics;
    report
}

impl Traced {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    fn metrics(&mut self, figures: bool) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |s: f64| s * 1e3;
        let (sim, setup) = (&self.sim, if figures { &self.core } else { &self.sim });
        let (point, execute) = if figures {
            ("sim.point", "sim.execute")
        } else {
            ("pipeline.simulate", "pipeline.simulate")
        };
        let mut point_ns = sim.durations(point);

        // Shares of the untraced simulate phase.
        let mut w = Window::default();
        let (mut retired, mut fetched, mut accesses) = (0u64, 0u64, 0u64);
        for r in &self.counted {
            w.add(&r.window);
            retired += r.stats.retired;
            fetched += r.stats.fetched;
            accesses += r.stats.caches.0.accesses() + r.stats.caches.1.accesses();
        }
        let c = &self.costs;
        let sim_s = self.plain.sim_s;
        let oracle_share = retired as f64 / c.oracle_ips / sim_s;
        let bpu_share = c.bpu_ns * 1e-9 * fetched as f64 * c.cf_per_inst / sim_s;
        let mem_share = c.mem_ns * 1e-9 * accesses as f64 / sim_s;
        let (rob_sum, rob_n) = w.rob_occupancy;

        let mut m = vec![
            ("sim.plan_ms", ms(sim.total_s("sim.plan")), "ms"),
            ("sim.execute_s", sim.total_s(execute), "s"),
            ("sim.assemble_ms", ms(sim.total_s("sim.assemble")), "ms"),
            ("sim.write_ms", ms(sim.total_s("sim.write")), "ms"),
            ("sim.points_requested", self.requested as f64, "count"),
            ("sim.points_simulated", self.simulated as f64, "count"),
            ("sim.points_failed", self.traced.failed as f64, "count"),
            ("sim.dedup_ratio", self.requested as f64 / self.simulated.max(1) as f64, "ratio"),
            ("sim.point_ms_p50", percentile(&mut point_ns, 0.50) as f64 / 1e6, "ms"),
            ("sim.point_ms_p98", percentile(&mut point_ns, 0.98) as f64 / 1e6, "ms"),
            ("workload.build_ms", ms(setup.total_s("workload.build")), "ms"),
            ("workload.oracle_mips", c.oracle_ips / 1e6, "Minst/s"),
            ("workload.oracle_share", oracle_share, "ratio"),
            ("frontend.bpu_ns", c.bpu_ns, "ns"),
            ("frontend.bpu_share", bpu_share, "ratio"),
            ("frontend.mispredicts_pki", w.pki(w.mispredicts), "1/kinst"),
            ("mem.access_ns", c.mem_ns, "ns"),
            ("mem.share", mem_share, "ratio"),
            ("mem.l1d_mpki", w.pki(w.l1d_misses), "1/kinst"),
            ("mem.llc_mpki", w.pki(w.llc_misses), "1/kinst"),
            ("pipeline.construct_ms", ms(setup.total_s("pipeline.construct")), "ms"),
            ("pipeline.tick_ns_p50", f64::from(percentile(&mut self.ticks, 0.50)), "ns"),
            ("pipeline.tick_ns_p99", f64::from(percentile(&mut self.ticks, 0.99)), "ns"),
            ("pipeline.self_share", 1.0 - oracle_share - bpu_share - mem_share, "ratio"),
            ("pipeline.ipc", w.retired as f64 / w.cycles as f64, "inst/cycle"),
            ("pipeline.flushes_pki", w.pki(w.flushes), "1/kinst"),
            ("pipeline.avg_rob_occupancy", rob_sum as f64 / rob_n.max(1) as f64, "entries"),
            ("core.freelist_stall_pki", w.pki(w.freelist_stalls), "cycles/kinst"),
            (
                "core.release_early_share",
                w.early_releases as f64 / w.releases.max(1) as f64,
                "ratio",
            ),
            ("core.avg_int_prf_occupancy", w.int_occupancy as f64 / w.cycles as f64, "regs"),
        ];
        for (name, bucket) in [
            ("cpi.retiring", CpiBucket::Retiring),
            ("cpi.freelist_stall", CpiBucket::FreelistStall),
            ("cpi.bad_speculation", CpiBucket::BadSpeculation),
            ("cpi.backpressure", CpiBucket::Backpressure),
            ("cpi.exec_latency", CpiBucket::ExecLatency),
            ("cpi.mem_llc", CpiBucket::MemLlc),
            ("cpi.mem_dram", CpiBucket::MemDram),
        ] {
            m.push((name, w.cpi_share(bucket), "ratio"));
        }
        m.push(("trace.overhead", self.traced.wall_s / self.plain.wall_s - 1.0, "ratio"));
        m
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Figure JSON goes to a scratch directory, never the repository's
    // results/. Set before any thread exists.
    let scratch = target_dir().join("perfbench-scratch").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    std::env::set_var("ATR_RESULTS_DIR", &scratch);

    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut report = if opts.trace { traced(&opts) } else { measured(&opts) };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    let _ = std::fs::remove_dir_all(&scratch);

    report.check_digests();
    for r in &report.rounds {
        report.problems.extend(r.problems.iter().cloned());
    }
    let attempted: usize = report.rounds.iter().map(|r| r.points).sum();
    let failed: usize = report.rounds.iter().map(|r| r.failed).sum();
    let correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("problem: {p}");
    }

    let mut diag = vec![
        ("workload".to_owned(), Json::Str(opts.workload.name().to_owned())),
        ("seed".to_owned(), Json::Int(opts.seed as i64)),
        ("trace".to_owned(), Json::Bool(opts.trace)),
        ("rounds".to_owned(), Json::Int(report.rounds.len() as i64)),
        ("sim_digest".to_owned(), Json::Str(format!("{:016x}", report.rounds[0].digest))),
        ("run_wall_s".to_owned(), Json::Num(wall)),
        ("cpu_s".to_owned(), cpu.map_or(Json::Null, Json::Num)),
        ("cpu_util".to_owned(), cpu.map_or(Json::Null, |c| Json::Num(c / wall))),
        (
            "round_wall_s".to_owned(),
            Json::Arr(report.rounds.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
    ];
    diag.extend(report.diagnostics.drain(..).map(|(k, v)| (k.to_owned(), v)));
    println!("{}", Json::Obj(vec![("diagnostics".to_owned(), Json::Obj(diag))]).compact());

    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::Obj(vec![
                ("value".to_owned(), Json::Num(*value)),
                ("unit".to_owned(), Json::Str((*unit).to_owned())),
            ]);
            ((*name).to_owned(), m)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Int(attempted as i64)),
        ("failed".to_owned(), Json::Int(failed as i64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}
