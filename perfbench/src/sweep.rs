//! The in-process workloads, `sweep-sim` and `sweep-bo`: a closed loop
//! with one client that runs one search at a time over seeded scenario
//! variants, all on one shared `EvalService`.

use std::time::{Duration, Instant};

use aarc_baselines::{
    BayesianOptimization, BoParams, MaffGradientDescent, MaffParams, RandomSearch,
    RandomSearchParams,
};
use aarc_core::{
    AarcError, AarcParams, Ask, ConfigurationSearch, GraphCentricScheduler, SearchOutcome,
    SearchSession, SessionState,
};
use aarc_simulator::{
    derive_seed, ConfigMap, EvalService, EvalStats, InputClass, KernelCounters, ScenarioHandle,
    SimResult, SimScratch, WorkflowEnvironment,
};

use crate::digest::{Digest, Outcome};
use crate::gen::{synthetic_yaml, Rng};
use crate::procfs;
use crate::report::Report;
use crate::stats::{median, ratio, LogHistogram, Percentile};
use crate::trace::Tracer;

/// Which in-process workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// AARC, MAFF and random search over every variant.
    Sim,
    /// BO over a subset of the variants.
    Bo,
}

impl Sweep {
    fn methods(self) -> &'static [&'static str] {
        match self {
            Sweep::Sim => &["aarc", "maff", "random"],
            Sweep::Bo => &["bo"],
        }
    }

    /// Every how-many-th scenario the workload searches: sweep-bo
    /// searches a fifth, which (5 being prime to the 24 size strata)
    /// still holds every stratum.
    fn stride(self) -> usize {
        match self {
            Sweep::Sim => 1,
            Sweep::Bo => 5,
        }
    }

    /// Searches whose outcomes make up the digest; every run completes
    /// at least these, so the digest repeats across runs of one seed.
    pub fn digest_searches(self) -> usize {
        match self {
            Sweep::Sim => 120,
            Sweep::Bo => 24,
        }
    }

    /// Completed searches re-run on a private single-thread engine.
    fn reference_checks(self) -> usize {
        match self {
            Sweep::Sim => 12,
            Sweep::Bo => 3,
        }
    }
}

/// Synthetic scenarios set up per run (both sweeps set up the same ones).
const SYNTHETIC_SCENARIOS: usize = 192;

/// The input classes every scenario runs under, in run order.
const CLASSES: [&str; 3] = ["light", "nominal", "heavy"];

/// Builds a search method by its CLI name (the mapping of `aarc
/// --method`).
pub fn method(name: &str) -> Box<dyn ConfigurationSearch> {
    match name {
        "aarc" => Box::new(GraphCentricScheduler::new(AarcParams::paper())),
        "bo" => Box::new(BayesianOptimization::new(BoParams::default())),
        "maff" => Box::new(MaffGradientDescent::new(MaffParams::default())),
        "random" => Box::new(RandomSearch::new(RandomSearchParams::default())),
        other => panic!("unknown method {other}"),
    }
}

/// The environment of input class `class` over a scenario's nominal
/// environment, and the SLO the scenario's headroom implies under it.
pub fn class_variant(
    env: &WorkflowEnvironment,
    slo_ms: f64,
    class: &str,
) -> Result<(WorkflowEnvironment, f64), String> {
    let input = match class {
        "nominal" => return Ok((env.clone(), slo_ms)),
        "light" => InputClass::Light,
        "heavy" => InputClass::Heavy,
        other => return Err(format!("unknown class {other}")),
    };
    let base = |env: &WorkflowEnvironment| -> Result<f64, String> {
        env.execute(&env.base_configs())
            .map(|r| r.makespan_ms())
            .map_err(|e| e.to_string())
    };
    let variant = env.with_input(input.representative());
    let slo = slo_ms / base(env)? * base(&variant)?;
    Ok((variant, slo))
}

/// One searchable scenario variant, registered on the shared service.
pub struct Variant<'s> {
    pub scenario: String,
    pub class: &'static str,
    pub slo_ms: f64,
    pub handle: ScenarioHandle<'s>,
}

/// The committed specs every sweep-sim run includes.
pub fn committed_specs() -> Result<Vec<String>, String> {
    let mut paths: Vec<_> = std::fs::read_dir("specs")
        .map_err(|e| format!("specs/: {e} (run from the repository root)"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "yaml"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// Generates, parses, compiles and registers the scenario variants of
/// one run. Returns the variants and each scenario's parse+compile time.
fn setup<'s>(service: &'s EvalService, seed: u64) -> Result<(Vec<Variant<'s>>, Vec<f64>), String> {
    let mut texts: Vec<String> = (0..SYNTHETIC_SCENARIOS)
        .map(|i| synthetic_yaml(seed, 0, i, &format!("sweep-{i}")))
        .collect();
    // The committed specs ride among the first synthetic ones.
    for (j, text) in committed_specs()?.into_iter().enumerate() {
        texts.insert(1 + 4 * j, text);
    }
    let mut variants = Vec::with_capacity(texts.len() * CLASSES.len());
    let mut compile_us = Vec::with_capacity(texts.len());
    for text in &texts {
        let t = Instant::now();
        let spec = aarc_spec::from_yaml_str(text).map_err(|e| e.to_string())?;
        let scenario = aarc_spec::compile(&spec).map_err(|e| e.to_string())?;
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let workload = scenario.workload();
        for class in CLASSES {
            let (env, slo_ms) = class_variant(workload.env(), workload.slo_ms(), class)?;
            variants.push(Variant {
                scenario: spec.name.clone(),
                class,
                slo_ms,
                handle: service.register(env),
            });
        }
    }
    Ok((variants, compile_us))
}

/// Runs a search through `SearchSession::step`, keeping the fastest
/// wall time of each step across this job's runs in `step_ms`.
fn run_stepped(
    method: &dyn ConfigurationSearch,
    variant: &Variant<'_>,
    step_ms: &mut Vec<f64>,
) -> Result<SearchOutcome, AarcError> {
    let strategy = method.strategy(variant.handle.env(), variant.slo_ms)?;
    let mut session = SearchSession::new(strategy, variant.handle.clone());
    for k in 0.. {
        let t = Instant::now();
        let state = session.step();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match step_ms.get_mut(k) {
            Some(fastest) => *fastest = fastest.min(ms),
            None => step_ms.push(ms),
        }
        if state != SessionState::Running {
            break;
        }
    }
    session
        .into_outcome()
        .expect("a session stepped to Finished has an outcome")
}

/// What a traced search saw besides its outcome.
#[derive(Default)]
struct TracedSearch {
    rounds: u64,
    /// Every evaluated candidate with the seed it ran under.
    candidates: Vec<(ConfigMap, u64)>,
}

/// Drives a search by hand, in exactly `SearchSession::step`'s order —
/// ask, evaluate or evaluate_batch, tell, then finish — with a span
/// around each call under the search's root span.
fn run_traced(
    tracer: &Tracer,
    key: u64,
    root: u64,
    method: &dyn ConfigurationSearch,
    variant: &Variant<'_>,
    seen: &mut TracedSearch,
    probe_ms: &mut LogHistogram,
) -> Result<SearchOutcome, AarcError> {
    let (handle, root) = (&variant.handle, Some(root));
    let env = handle.env();
    let mut strategy = tracer.span("strategy.new", key, root, || {
        method.strategy(env, variant.slo_ms)
    })?;
    loop {
        let ask = tracer.span("strategy.ask", key, root, || strategy.ask(env))?;
        let results: Vec<SimResult> = match ask {
            Ask::Done => {
                return tracer.span("strategy.finish", key, root, || strategy.finish(env));
            }
            Ask::Probe(configs) => {
                let span = tracer.begin("eval.probe", key, root);
                let result = handle.evaluate(&configs);
                probe_ms.record(tracer.end(span) as f64 / 1e6);
                let result = result?;
                seen.candidates.push((configs, env.seed()));
                vec![result]
            }
            Ask::Batch(candidates) => {
                let results = tracer.span("eval.batch", key, root, || {
                    handle.evaluate_batch(&candidates)
                })?;
                seen.candidates.extend(
                    candidates
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (c, derive_seed(env.seed(), i as u64))),
                );
                results
            }
        };
        tracer.span("strategy.tell", key, root, || strategy.tell(env, &results))?;
        seen.rounds += 1;
    }
}

/// The service-wide counters read at search boundaries.
#[derive(Clone, Copy)]
struct Counters {
    eval: EvalStats,
    dedup: u64,
    kernel: KernelCounters,
}

impl Counters {
    fn read(service: &EvalService) -> Self {
        Counters {
            eval: service.stats(),
            dedup: service.batch_dedup_hits(),
            kernel: service.kernel_counters(),
        }
    }
}

/// The fastest wall times one job took over a run's passes.
#[derive(Clone)]
struct Fastest {
    search_ms: f64,
    /// Per step, by its index in the search.
    step_ms: Vec<f64>,
}

/// What one loop recorded.
#[derive(Default)]
struct Pass {
    search_ms: Vec<f64>,
    /// Per job, the fastest of its untraced runs.
    fastest: Vec<Fastest>,
    /// The digest prefix's searches: `(variant, method, outcome)`.
    outcomes: Vec<(usize, &'static str, Outcome)>,
    digest: Digest,
    failures: Vec<String>,
    rounds: u64,
    probe_ms: LogHistogram,
    replay_sims: u64,
    replay_ns: u64,
    eval_requests: u64,
    eval_hits: u64,
    evictions: u64,
    dedup_hits: u64,
    kernel: KernelCounters,
}

/// The closed loop over one service's variants: search `i` is job
/// `i % jobs`, so two loops over the same variants run the same
/// sequence.
struct Loop<'a, 's> {
    service: &'a EvalService,
    variants: &'a [Variant<'s>],
    methods: Vec<(&'static str, Box<dyn ConfigurationSearch>)>,
    jobs: Vec<(usize, usize)>,
    /// Searches whose outcomes make up the digest.
    prefix: usize,
    tracer: Option<&'a Tracer>,
    scratch: SimScratch,
    before: Counters,
    pass: Pass,
}

impl<'a, 's> Loop<'a, 's> {
    fn new(
        service: &'a EvalService,
        variants: &'a [Variant<'s>],
        sweep: Sweep,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        let methods: Vec<(&'static str, Box<dyn ConfigurationSearch>)> =
            sweep.methods().iter().map(|&m| (m, method(m))).collect();
        let jobs: Vec<(usize, usize)> = (0..variants.len())
            .filter(|v| (v / CLASSES.len()).is_multiple_of(sweep.stride()))
            .flat_map(|v| (0..methods.len()).map(move |m| (v, m)))
            .collect();
        Loop {
            service,
            variants,
            methods,
            pass: Pass {
                fastest: vec![
                    Fastest {
                        search_ms: f64::INFINITY,
                        step_ms: Vec::new(),
                    };
                    jobs.len()
                ],
                ..Pass::default()
            },
            jobs,
            prefix: sweep.digest_searches(),
            tracer,
            scratch: SimScratch::new(),
            before: Counters::read(service),
        }
    }

    /// Runs search `i` of the sequence.
    fn search(&mut self, i: usize) -> Result<(), String> {
        let job = i % self.jobs.len();
        let (v, m) = self.jobs[job];
        let (variant, (name, method)) = (&self.variants[v], &self.methods[m]);
        let pass = &mut self.pass;
        let t = Instant::now();
        let result = match self.tracer {
            None => {
                let fastest = &mut pass.fastest[job];
                let result = run_stepped(method.as_ref(), variant, &mut fastest.step_ms);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                fastest.search_ms = fastest.search_ms.min(ms);
                pass.search_ms.push(ms);
                result
            }
            Some(tracer) => {
                let key = i as u64;
                let root = tracer.begin("search", key, None);
                let mut seen = TracedSearch::default();
                let result = run_traced(
                    tracer,
                    key,
                    root,
                    method.as_ref(),
                    variant,
                    &mut seen,
                    &mut pass.probe_ms,
                );
                tracer.end(root);
                // The search's wall time leaves out the replay below.
                pass.search_ms.push(t.elapsed().as_secs_f64() * 1e3);
                pass.rounds += seen.rounds;
                // Replay the searched candidates through the kernel alone.
                let replay = tracer.begin("kernel.replay", key, None);
                let (scenario, input) = (variant.handle.scenario(), variant.handle.env().input());
                for (configs, seed) in &seen.candidates {
                    scenario
                        .simulate(&mut self.scratch, configs, input, *seed)
                        .map_err(|e| format!("kernel replay: {e}"))?;
                }
                pass.replay_ns += tracer.end(replay);
                pass.replay_sims += seen.candidates.len() as u64;
                result
            }
        };
        let outcome = Outcome::new(
            &variant.scenario,
            variant.class,
            name,
            &result,
            variant.slo_ms,
        );
        if let Err(e) = &result {
            pass.failures.push(format!(
                "{} {} {name}: {e}",
                variant.scenario, variant.class
            ));
        }
        if i < self.prefix {
            pass.digest.add(&outcome);
            pass.outcomes.push((v, name, outcome));
        }
        Ok(())
    }

    /// Ends the loop: the service's counter deltas over its searches.
    fn finish(self) -> Pass {
        let (after, before) = (Counters::read(self.service), self.before);
        let mut pass = self.pass;
        pass.eval_requests = after.eval.requests - before.eval.requests;
        pass.eval_hits = after.eval.cache_hits - before.eval.cache_hits;
        pass.evictions = after.eval.evictions - before.eval.evictions;
        pass.dedup_hits = after.dedup - before.dedup;
        let (a, b) = (after.kernel, before.kernel);
        pass.kernel = KernelCounters {
            sims: a.sims - b.sims,
            relaxed_sims: a.relaxed_sims - b.relaxed_sims,
            incremental_sims: a.incremental_sims - b.incremental_sims,
            nodes_reused: a.nodes_reused - b.nodes_reused,
            result_slab_allocs: a.result_slab_allocs - b.result_slab_allocs,
            ..KernelCounters::default()
        };
        pass
    }
}

/// Wall seconds and process CPU ms of `f`.
fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<(f64, f64), String> {
    let cpu = procfs::cpu_ms("self")?;
    let start = Instant::now();
    f()?;
    Ok((start.elapsed().as_secs_f64(), procfs::cpu_ms("self")? - cpu))
}

/// Re-runs a seeded sample of the digest prefix's searches through
/// `ConfigurationSearch::search` on a private single-thread engine and
/// compares each outcome.
fn check_against_reruns(
    pass: &Pass,
    variants: &[Variant<'_>],
    count: usize,
    seed: u64,
    report: &mut Report,
) {
    let mut rng = Rng::new(seed ^ 0xC4EC_4ED0);
    for _ in 0..count.min(pass.outcomes.len()) {
        let (v, name, got) = &pass.outcomes[rng.below(pass.outcomes.len())];
        let variant = &variants[*v];
        let rerun = method(name).search(variant.handle.env(), variant.slo_ms);
        let reference = Outcome::new(
            &variant.scenario,
            variant.class,
            name,
            &rerun,
            variant.slo_ms,
        );
        report.attempted += 1;
        if let Err(e) = got.check(&reference) {
            report.failed += 1;
            report.problem(format!("rerun mismatch: {e}"));
        }
    }
}

/// Set-ups per run, half before the measured window (the last of those
/// is kept) and half after it: `setup_s` is their median.
const SETUP_REPEATS: usize = 32;

/// Sets up `n` times on fresh services and appends each wall time.
fn time_setups(n: usize, threads: usize, seed: u64, setup_s: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let service = EvalService::with_threads(threads);
        let t = Instant::now();
        setup(&service, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Runs `sweep-sim` or `sweep-bo` and fills `report`.
pub fn run(
    sweep: Sweep,
    seed: u64,
    seconds: f64,
    trace: Option<&std::path::Path>,
    report: &mut Report,
) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only the untraced run reports `setup_s`.
    let before = if trace.is_some() {
        1
    } else {
        SETUP_REPEATS / 2
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    time_setups(before - 1, threads, seed, &mut setup_s)?;
    let service = EvalService::with_threads(threads);
    let t = Instant::now();
    let (variants, compile_us) = setup(&service, seed)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let window = Duration::from_secs_f64(seconds);
    let prefix = sweep.digest_searches();

    let Some(trace_path) = trace else {
        let mut run = Loop::new(&service, &variants, sweep, None);
        let jobs = run.jobs.len();
        let mut i = 0;
        let start = Instant::now();
        // Whole passes only, so every job runs equally often.
        let (_, cpu_ms) = timed(|| {
            while i < prefix || start.elapsed() < window || i % jobs != 0 {
                run.search(i)?;
                i += 1;
            }
            Ok(())
        })?;
        let pass = run.finish();
        report.attempted += pass.search_ms.len() as u64;
        report.failed += pass.failures.len() as u64;
        for f in pass.failures.iter().take(5) {
            report.problem(format!("search failed: {f}"));
        }
        let searches = pass.search_ms.len();
        // Every timing is taken over each job's fastest run: the machine's
        // speed drifts by a quarter and more over seconds to minutes, and
        // the fastest of a job's runs is what stays put from run to run.
        let search_ms: Vec<f64> = pass.fastest.iter().map(|f| f.search_ms).collect();
        let step_ms: Vec<f64> = pass
            .fastest
            .iter()
            .flat_map(|f| f.step_ms.iter().copied())
            .collect();
        report.metric(
            "searches_per_s",
            jobs as f64 / (search_ms.iter().sum::<f64>() / 1e3),
            "1/s",
            Some(jobs),
        );
        report.percentile("search_ms_p50", &search_ms, 50.0, "ms");
        report.percentile("search_ms_p90", &search_ms, 90.0, "ms");
        report.percentile("req_ms_p50", &step_ms, 50.0, "ms");
        report.percentile("req_ms_p99", &step_ms, 99.0, "ms");
        report.metric("peak_rss_mb", procfs::peak_rss_mb("self")?, "MB", None);
        check_against_reruns(&pass, &variants, sweep.reference_checks(), seed, report);
        time_setups(SETUP_REPEATS - before, threads, seed, &mut setup_s)?;
        report.metric("setup_s", median(&setup_s), "s", Some(setup_s.len()));
        report.info(
            "failed_ratio",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
            Some(report.attempted as usize),
        );
        report.info(
            "proc.cpu_ms_per_search",
            cpu_ms / searches as f64,
            "ms",
            Some(searches),
        );
        report.note(format!(
            "outcome digest {} over the first {prefix} searches; {} passes over {jobs} searches of {} variants; timings are each search's (and step's) fastest pass; {threads} eval threads; req_ms = one SearchSession::step call",
            pass.digest.hex(),
            searches / jobs,
            variants.len(),
        ));
        return Ok(());
    };

    // Traced run: the digest prefix runs twice, search by search in
    // turn, untraced on a fresh service of its own and traced on the
    // main one, so both see the same cache states and the same drift of
    // the machine's speed; then the traced loop runs for the window.
    let untraced_service = EvalService::with_threads(threads);
    let (untraced_variants, _) = setup(&untraced_service, seed)?;
    let mut untraced = Loop::new(&untraced_service, &untraced_variants, sweep, None);
    let tracer = Tracer::default();
    let mut traced = Loop::new(&service, &variants, sweep, Some(&tracer));
    for i in 0..prefix {
        untraced.search(i)?;
        traced.search(i)?;
    }
    let prefix_replay_ns = traced.pass.replay_ns;
    let mut i = prefix;
    let start = Instant::now();
    let (_, cpu_ms) = timed(|| {
        while start.elapsed() < window {
            traced.search(i)?;
            i += 1;
        }
        Ok(())
    })?;
    let (untraced, pass) = (untraced.finish(), traced.finish());
    tracer.write_json(trace_path)?;
    report.attempted += (pass.search_ms.len() + untraced.search_ms.len()) as u64;
    report.failed += (pass.failures.len() + untraced.failures.len()) as u64;
    if pass.digest != untraced.digest {
        report.problem(format!(
            "traced digest {} differs from untraced digest {}",
            pass.digest.hex(),
            untraced.digest.hex()
        ));
    }
    let t = tracer.totals();
    let total = |name: &str| t.get(name).copied().unwrap_or_default();
    let search_ns = total("search").total_ns as f64;
    let ask_ns = (total("strategy.ask").total_ns + total("strategy.new").total_ns) as f64;
    let tell_ns = (total("strategy.tell").total_ns + total("strategy.finish").total_ns) as f64;
    let (probe, batch) = (total("eval.probe"), total("eval.batch"));
    let eval_ns = (probe.total_ns + batch.total_ns) as f64;
    let searches = pass.search_ms.len() as f64;
    let rounds = pass.rounds as f64;
    let batch_candidates = pass.eval_requests.saturating_sub(probe.count) as f64;
    let k = pass.kernel;
    report.metric(
        "spec.compile_us",
        median(&compile_us),
        "us",
        Some(compile_us.len()),
    );
    report.metric("driver.rounds_per_search", rounds / searches, "count", None);
    report.metric("strategy.ask_share", ask_ns / search_ns, "ratio", None);
    report.metric("strategy.tell_share", tell_ns / search_ns, "ratio", None);
    report.metric(
        "strategy.ask_us_per_round",
        ask_ns / 1e3 / rounds,
        "us",
        None,
    );
    report.metric(
        "strategy.tell_us_per_round",
        tell_ns / 1e3 / rounds,
        "us",
        None,
    );
    report.metric("eval.share", eval_ns / search_ns, "ratio", None);
    // Every AARC, MAFF and BO search probes; a sample too small for the
    // rule fails the run.
    let probe = pass.probe_ms.percentile(50.0).map(|p| Percentile {
        value: p.value * 1e3,
        ..p
    });
    report.percentile_of("eval.probe_us_p50", probe.map_err(|e| (e, 0.0, 0)), "us");
    report.metric(
        "eval.batch_us_per_candidate",
        ratio(batch.total_ns as f64 / 1e3, batch_candidates),
        "us",
        None,
    );
    report.metric(
        "eval.requests_per_search",
        pass.eval_requests as f64 / searches,
        "count",
        None,
    );
    report.metric(
        "eval.hit_ratio",
        ratio(pass.eval_hits as f64, pass.eval_requests as f64),
        "ratio",
        None,
    );
    report.metric("eval.evictions", pass.evictions as f64, "count", None);
    report.metric("eval.dedup_hits", pass.dedup_hits as f64, "count", None);
    report.metric(
        "kernel.us_per_sim",
        ratio(pass.replay_ns as f64 / 1e3, pass.replay_sims as f64),
        "us",
        Some(pass.replay_sims as usize),
    );
    report.metric("kernel.sims", k.sims as f64, "count", None);
    let per_sim = |x: u64| ratio(x as f64, k.sims as f64);
    report.metric(
        "kernel.incremental_ratio",
        per_sim(k.incremental_sims),
        "ratio",
        None,
    );
    report.metric(
        "kernel.relaxed_ratio",
        per_sim(k.relaxed_sims),
        "ratio",
        None,
    );
    report.metric(
        "kernel.reused_nodes_per_sim",
        per_sim(k.nodes_reused),
        "count",
        None,
    );
    report.metric(
        "kernel.slab_allocs_per_sim",
        per_sim(k.result_slab_allocs),
        "count",
        None,
    );
    // The replay runs on this thread alone, so its wall time is its CPU
    // time; take out the part of it that ran in the window.
    let window_replay_ms = (pass.replay_ns - prefix_replay_ns) as f64 / 1e6;
    report.metric(
        "proc.cpu_ms_per_search",
        ratio(cpu_ms - window_replay_ms, (i - prefix) as f64),
        "ms",
        Some(i - prefix),
    );
    let prefix_ms = |p: &Pass| p.search_ms[..prefix].iter().sum::<f64>();
    report.info(
        "trace.spans",
        t.values().map(|x| x.count).sum::<u64>() as f64,
        "count",
        None,
    );
    report.metric(
        "trace.overhead_ratio",
        ratio(prefix_ms(&pass), prefix_ms(&untraced)),
        "ratio",
        Some(prefix),
    );
    report.note(format!(
        "outcome digest {} (untraced {}) over the first {prefix} searches; spans in {}",
        pass.digest.hex(),
        untraced.digest.hex(),
        trace_path.display()
    ));
    Ok(())
}
