//! `serve-open`: the real `aarc serve` daemon as a child process, driven
//! by a seeded open-loop schedule over HTTP.
//!
//! Session starts arrive at a fixed rate (most AARC, some MAFF and
//! random, a small BO share); a small share of arrivals upload a fresh
//! spec (a WAL append with fsync) or validate one (the same parse, no
//! write). Every live session is polled every 5 ms on average until it
//! finishes, then its report is fetched. Requests go out from at most
//! `nproc` client threads, one connection each, and every request is
//! timed from the moment it was due, so a stall is charged to the
//! requests queued behind it.
//!
//! The untraced run replays one schedule in several passes, each on a
//! fresh daemon, and reads every session and every request at its
//! fastest pass: the shared box stalls client and daemon alike for
//! seconds at a time, and a stall seldom hits the same request in every
//! pass.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Value;

use crate::digest::{Digest, Outcome, Summary};
use crate::gen::{serve_schedule, sub_seed, synthetic_yaml, Arrival, Schedule, STRATA};
use crate::http::{self, Reply};
use crate::procfs;
use crate::prom::{Exposition, Histogram};
use crate::report::Report;
use crate::stats::{fastest_per_key, median, percentile, ratio};
use crate::sweep::method;
use crate::trace::Tracer;

/// Run options.
pub struct Options {
    /// The `aarc` binary.
    pub aarc: PathBuf,
    /// Directory for the daemon's state, stderr and the trace file.
    pub run_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Tenants in the `--tenants` file.
const TENANTS: usize = 4;
/// Scenarios uploaded during set-up; sessions pick among them. They are
/// three of each of the first twelve size strata (3–8 layers, widths
/// 2–3), so a seed's mix of graphs is close to every other seed's.
const SCENARIOS: usize = 36;
/// Size strata the uploaded scenarios are drawn from.
const SCENARIO_STRATA: usize = 12;
/// Arrivals per second. Below the knee on a 2-vCPU box, where every
/// request pays for a fresh connection and the daemon's accept loop.
const RATE: f64 = 40.0;
/// The daemon's `--checkpoint-every`: more rounds than any session
/// takes, so each session writes one checkpoint, when it finishes. At
/// the default of 8 a session writes about 16, each fsynced on the
/// daemon's one scheduler thread, and on a shared disk time to
/// configuration then follows the host's fsync latency: the median of
/// one pass moved from 26 to 44 ms between passes of one run, against
/// 16.2–16.9 ms with one checkpoint per session.
const CHECKPOINT_EVERY: u64 = 1 << 20;
/// Seconds of schedule in one pass of the untraced run: about 370
/// sessions and 1300 requests, enough for a p90 and a p99 with ten
/// samples beyond them even when a pass's slow sessions are polled more.
const PASS_SECONDS: f64 = 10.0;
/// Wall seconds a pass takes beyond its schedule (set-up, drain and
/// shutdown), rounded up; sizes the number of passes in a run.
const PASS_SLACK_S: f64 = 1.0;
/// Daemon set-ups per run at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// How long sessions may take to finish after the last arrival.
const DRAIN: Duration = Duration::from_secs(30);
/// Arrivals whose session outcomes make up the digest (the first four
/// seconds of the schedule).
const DIGEST_ARRIVALS: usize = 100;
/// The methods sessions use, each checked against an in-process run.
const METHODS: [&str; 4] = ["aarc", "maff", "random", "bo"];

/// The `--tenants` file: four tenants whose quotas and rate limits are
/// far above anything the schedule asks for, so admission never binds.
fn tenants_yaml() -> String {
    let mut out = String::from("tenants:\n");
    for t in 0..TENANTS {
        out.push_str(&format!(
            "  - name: tenant-{t}\n    api_key: key-{t}\n    max_scenarios: 100000\n    \
             max_live_sessions: 100000\n    requests_per_sec: 100000\n"
        ));
    }
    out
}

fn api_key(tenant: usize) -> String {
    format!("key-{tenant}")
}

/// Everything generated from the seed before the daemon starts.
struct Inputs {
    seed: u64,
    /// `(name, yaml)` of the scenarios uploaded in set-up; scenario `i`
    /// belongs to tenant `i % TENANTS`.
    scenarios: Vec<(String, String)>,
    /// Specs uploaded (`POST /scenarios`) during the run.
    uploads: Vec<String>,
    /// Specs validated (`POST /scenarios/validate`) during the run.
    validations: Vec<String>,
    schedule: Schedule,
    /// The in-process outcome per `(scenario, method)`.
    references: HashMap<(usize, &'static str), Outcome>,
    compile_us: Vec<f64>,
}

impl Inputs {
    fn generate(seed: u64, arrivals: usize) -> Result<Self, String> {
        let schedule = serve_schedule(seed, RATE, arrivals, TENANTS, SCENARIOS);
        let count = |f: fn(&Arrival) -> bool| schedule.arrivals.iter().filter(|a| f(&a.2)).count();
        let uploads = (0..count(|a| matches!(a, Arrival::Upload { .. })))
            .map(|i| synthetic_yaml(seed, 2, i, &format!("fresh-{i}")))
            .collect();
        let validations = (0..count(|a| matches!(a, Arrival::Validate { .. })))
            .map(|i| synthetic_yaml(seed, 3, i, &format!("checked-{i}")))
            .collect();
        let scenarios: Vec<(String, String)> = (0..SCENARIOS)
            .map(|i| {
                let name = format!("served-{i}");
                // Index `i % 12 + 24 k` has the size of stratum `i % 12`.
                let index = i % SCENARIO_STRATA + STRATA * (i / SCENARIO_STRATA);
                let yaml = synthetic_yaml(seed, 1, index, &name);
                (name, yaml)
            })
            .collect();
        // The daemon's determinism contract: a served session returns
        // what an in-process search of the same scenario, method and SLO
        // returns.
        let mut references = HashMap::new();
        let mut compile_us = Vec::new();
        for (i, (name, yaml)) in scenarios.iter().enumerate() {
            let t = Instant::now();
            let spec = aarc_spec::from_yaml_str(yaml).map_err(|e| e.to_string())?;
            let compiled = aarc_spec::compile(&spec).map_err(|e| e.to_string())?;
            compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let workload = compiled.workload();
            for m in METHODS {
                let result = method(m).search(workload.env(), workload.slo_ms());
                let outcome = Outcome::new(name, "nominal", m, &result, workload.slo_ms());
                references.insert((i, m), outcome);
            }
        }
        Ok(Inputs {
            seed,
            scenarios,
            uploads,
            validations,
            schedule,
            references,
            compile_us,
        })
    }
}

/// A running daemon; killed and reaped on drop unless shut down.
struct Daemon {
    child: Option<Child>,
    pid: String,
    addr: SocketAddr,
    stderr: PathBuf,
    state: PathBuf,
}

impl Daemon {
    /// Spawns `aarc serve` with a fresh state directory and waits until
    /// it listens and has finished recovery.
    fn spawn(opts: &Options, tag: &str) -> Result<Daemon, String> {
        let dir = opts.run_dir.join(format!("serve-seed{}-{tag}", opts.seed));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let tenants = dir.join("tenants.yaml");
        std::fs::write(&tenants, tenants_yaml()).map_err(|e| e.to_string())?;
        let stderr = dir.join("stderr.log");
        let state = dir.join("state");
        let log = std::fs::File::create(&stderr).map_err(|e| e.to_string())?;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let child = Command::new(&opts.aarc)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--checkpoint-every")
            .arg(CHECKPOINT_EVERY.to_string())
            .arg("--state-dir")
            .arg(&state)
            .arg("--tenants")
            .arg(&tenants)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.aarc.display()))?;
        let mut daemon = Daemon {
            pid: child.id().to_string(),
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr,
            state,
        };
        daemon.addr = daemon.wait_listening()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = http::request(daemon.addr, "GET", "/api/v1/recovery", None, b"")?;
            if reply.status == 200 && reply.body.contains("\"in_progress\": false") {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err(format!("daemon still recovering: {}", reply.body));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Parses the bound address out of the readiness line, the first
    /// line the daemon writes to stderr.
    fn wait_listening(&mut self) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&self.stderr).unwrap_or_default();
            if let Some(line) = text.lines().next().filter(|_| text.contains('\n')) {
                return line
                    .split("listening on ")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse().ok())
                    .ok_or_else(|| format!("unexpected readiness line {line:?}"));
            }
            let child = self.child.as_mut().expect("daemon is running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "daemon exited with {status} before listening: {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon did not report a listening address".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `POST /shutdown`, then waits for the daemon to drain and exit 0
    /// without having logged a panic.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = http::request(self.addr, "POST", "/api/v1/shutdown", None, b"")?;
        if reply.status != 200 {
            return Err(format!(
                "shutdown answered {}: {}",
                reply.status, reply.body
            ));
        }
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let log = std::fs::read_to_string(&self.stderr).unwrap_or_default();
                    if let Some(line) = log.lines().find(|l| l.contains("panicked")) {
                        return Err(format!("daemon logged a panic: {line}"));
                    }
                    // Only the stderr log is kept, so repeated runs do
                    // not pile up state on disk.
                    return std::fs::remove_dir_all(&self.state)
                        .map_err(|e| format!("{}: {e}", self.state.display()));
                }
                Ok(Some(status)) => {
                    return Err(format!(
                        "daemon exited with {status}; stderr in {}",
                        self.stderr.display()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit within 30 s of /shutdown".to_owned());
                }
            }
        }
    }

    fn scrape(&self) -> Result<Exposition, String> {
        let reply = http::request(self.addr, "GET", "/api/v1/metrics", None, b"")?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Exposition::parse(&reply.body)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns a daemon and uploads the set-up scenarios; returns it with the
/// set-up time (spawn to readiness plus uploads).
fn set_up(opts: &Options, inputs: &Inputs, tag: &str) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(opts, tag)?;
    for (i, (_, yaml)) in inputs.scenarios.iter().enumerate() {
        let key = api_key(i % TENANTS);
        let reply = http::request(
            daemon.addr,
            "POST",
            "/api/v1/scenarios",
            Some(&key),
            yaml.as_bytes(),
        )?;
        if reply.status != 201 {
            return Err(format!(
                "set-up upload answered {}: {}",
                reply.status, reply.body
            ));
        }
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// The request kinds, as span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Start,
    Status,
    Report,
    Upload,
    Validate,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Start => "http.start",
            Kind::Status => "http.status",
            Kind::Report => "http.report",
            Kind::Upload => "http.upload",
            Kind::Validate => "http.validate",
        }
    }
}

/// One sent request.
struct Record {
    kind: Kind,
    arrival: usize,
    /// Due, send and completion times, in seconds from the schedule start.
    due: f64,
    sent: f64,
    done: f64,
}

/// One session's client-side life.
struct Session {
    arrival: usize,
    scenario: usize,
    method: &'static str,
    id: u64,
    due: f64,
    summary: Option<Summary>,
    rounds: u64,
    polls: u64,
    /// Time to configuration, once the report is in hand.
    ttc: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Arrival(usize),
    Poll(usize),
    Report(usize),
}

/// A queued task, ordered so the heap pops the earliest due first.
struct Queued {
    due: f64,
    seq: u64,
    task: Task,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq)
            .partial_cmp(&(self.due, self.seq))
            .expect("due times are finite")
    }
}

#[derive(Default)]
struct State {
    heap: BinaryHeap<Queued>,
    seq: u64,
    inflight: usize,
    sessions: Vec<Session>,
    records: Vec<Record>,
    failures: Vec<String>,
    /// `(time, live sessions)` at every arrival.
    live: Vec<(f64, usize)>,
}

impl State {
    fn push(&mut self, due: f64, task: Task) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Queued { due, seq, task });
    }

    fn live_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.ttc.is_none()).count()
    }
}

/// The outcome of one traffic pass.
struct Traffic {
    records: Vec<Record>,
    sessions: Vec<Session>,
    failures: Vec<String>,
    live: Vec<(f64, usize)>,
    /// Wall seconds from the first due arrival to the last completion.
    wall_s: f64,
    cpu_ms: f64,
    before: Exposition,
    after: Exposition,
    peak_rss_mb: f64,
    digest: Digest,
}

/// Sends the first `arrivals` arrivals of the schedule, follows every
/// session to its report, and drains.
fn drive(
    daemon: &Daemon,
    inputs: &Inputs,
    arrivals: usize,
    tracer: Option<&Tracer>,
) -> Result<Traffic, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = daemon.scrape()?;
    let cpu_before = procfs::cpu_ms(&daemon.pid)?;
    let shared = (Mutex::new(State::default()), Condvar::new());
    {
        let mut state = shared.0.lock().expect("client state poisoned");
        for (i, arrival) in inputs.schedule.arrivals[..arrivals].iter().enumerate() {
            state.push(arrival.0, Task::Arrival(i));
        }
    }
    let origin = Instant::now() + Duration::from_millis(20);
    let last_due = inputs.schedule.arrivals[arrivals - 1].0;
    let give_up = last_due + DRAIN.as_secs_f64();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| client(daemon, inputs, &shared, origin, give_up, tracer));
        }
    });
    let state = shared.0.into_inner().expect("client state poisoned");
    let cpu_ms = procfs::cpu_ms(&daemon.pid)? - cpu_before;
    let after = daemon.scrape()?;
    let peak_rss_mb = procfs::peak_rss_mb(&daemon.pid)?;
    let mut failures = state.failures;
    let unfinished = state.sessions.iter().filter(|s| s.ttc.is_none()).count();
    if unfinished > 0 {
        failures.push(format!("{unfinished} sessions unfinished at drain"));
    }
    // Sessions are listed in the order their start replies came back,
    // which races across client threads; the digest takes arrival order.
    let mut prefix: Vec<&Session> = state
        .sessions
        .iter()
        .filter(|s| s.arrival < DIGEST_ARRIVALS)
        .collect();
    prefix.sort_by_key(|s| s.arrival);
    let mut digest = Digest::default();
    for s in prefix {
        let (name, _) = &inputs.scenarios[s.scenario];
        digest.add(&Outcome {
            scenario: name.clone(),
            class: "nominal",
            method: s.method,
            result: s.summary.clone().ok_or_else(|| "unfinished".to_owned()),
        });
    }
    let wall_s = state.records.iter().map(|r| r.done).fold(0.0, f64::max);
    Ok(Traffic {
        records: state.records,
        sessions: state.sessions,
        failures,
        live: state.live,
        wall_s,
        cpu_ms,
        before,
        after,
        peak_rss_mb,
        digest,
    })
}

/// One HTTP request of the schedule.
struct Request {
    kind: Kind,
    /// The arrival the request belongs to.
    arrival: usize,
    key: String,
    method: &'static str,
    path: String,
    body: Vec<u8>,
}

impl Request {
    fn of(state: &State, inputs: &Inputs, task: Task) -> Self {
        let post = |kind, arrival, tenant, path: &str, body: &str| Request {
            kind,
            arrival,
            key: api_key(tenant),
            method: "POST",
            path: path.to_owned(),
            body: body.as_bytes().to_vec(),
        };
        let get = |kind, s: usize, suffix: &str| {
            let session: &Session = &state.sessions[s];
            Request {
                kind,
                arrival: session.arrival,
                key: api_key(session.scenario % TENANTS),
                method: "GET",
                path: format!("/api/v1/sessions/{}{suffix}", session.id),
                body: Vec::new(),
            }
        };
        match task {
            Task::Arrival(i) => match inputs.schedule.arrivals[i] {
                (_, _, Arrival::Start { scenario, method }) => {
                    let name = &inputs.scenarios[scenario].0;
                    let body = format!("{{\"scenario\": \"{name}\", \"method\": \"{method}\"}}");
                    post(
                        Kind::Start,
                        i,
                        scenario % TENANTS,
                        "/api/v1/sessions",
                        &body,
                    )
                }
                (_, tenant, Arrival::Upload { spec }) => post(
                    Kind::Upload,
                    i,
                    tenant,
                    "/api/v1/scenarios",
                    &inputs.uploads[spec],
                ),
                (_, tenant, Arrival::Validate { spec }) => post(
                    Kind::Validate,
                    i,
                    tenant,
                    "/api/v1/scenarios/validate",
                    &inputs.validations[spec],
                ),
            },
            Task::Poll(s) => get(Kind::Status, s, ""),
            Task::Report(s) => get(Kind::Report, s, "/report"),
        }
    }
}

/// One client thread: takes the earliest due task, waits until it is
/// due, sends it, and queues what follows from the reply.
fn client(
    daemon: &Daemon,
    inputs: &Inputs,
    (lock, cv): &(Mutex<State>, Condvar),
    origin: Instant,
    give_up: f64,
    tracer: Option<&Tracer>,
) {
    let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    loop {
        let (due, task, request) = {
            let mut state = lock.lock().expect("client state poisoned");
            loop {
                let t = since(Instant::now());
                if t > give_up {
                    return;
                }
                match state.heap.peek() {
                    None if state.inflight == 0 => return,
                    None => {
                        state = cv.wait(state).expect("client state poisoned");
                    }
                    Some(q) if q.due <= t => break,
                    Some(q) => {
                        let wait = Duration::from_secs_f64(q.due - t);
                        state = cv
                            .wait_timeout(state, wait)
                            .expect("client state poisoned")
                            .0;
                    }
                }
            }
            let q = state.heap.pop().expect("peeked");
            state.inflight += 1;
            if let Task::Arrival(_) = q.task {
                let live = state.live_sessions();
                state.live.push((q.due, live));
            }
            (q.due, q.task, Request::of(&state, inputs, q.task))
        };
        let Request {
            kind,
            arrival,
            key,
            method,
            path,
            body,
        } = request;
        let sent = since(Instant::now());
        let span = tracer.map(|t| t.begin(kind.span(), arrival as u64, None));
        let reply = http::request(daemon.addr, method, &path, Some(&key), &body);
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
        let done = since(Instant::now());
        let mut state = lock.lock().expect("client state poisoned");
        state.inflight -= 1;
        state.records.push(Record {
            kind,
            arrival,
            due,
            sent,
            done,
        });
        if let Err(e) = follow_up(&mut state, inputs, task, reply, due, done) {
            state.failures.push(format!("{method} {path}: {e}"));
        }
        cv.notify_all();
    }
}

/// Checks a reply and queues the session's next request.
fn follow_up(
    state: &mut State,
    inputs: &Inputs,
    task: Task,
    reply: Result<Reply, String>,
    due: f64,
    done: f64,
) -> Result<(), String> {
    let reply = reply?;
    let body = || serde_json::parse(&reply.body).map_err(|e| format!("bad json: {e}"));
    let expect = |status: u16| {
        if reply.status == status {
            Ok(())
        } else {
            Err(format!("answered {}: {}", reply.status, reply.body.trim()))
        }
    };
    match task {
        Task::Arrival(i) => match inputs.schedule.arrivals[i].2 {
            Arrival::Start { scenario, method } => {
                expect(201)?;
                let id = body()?
                    .get("id")
                    .and_then(number)
                    .ok_or("start reply has no id")? as u64;
                state.sessions.push(Session {
                    arrival: i,
                    scenario,
                    method,
                    id,
                    due,
                    summary: None,
                    rounds: 0,
                    polls: 0,
                    ttc: None,
                });
                let s = state.sessions.len() - 1;
                state.push(done + poll_delay(inputs.seed, i, 0), Task::Poll(s));
                Ok(())
            }
            Arrival::Upload { .. } => expect(201),
            Arrival::Validate { .. } => expect(200),
        },
        Task::Poll(s) => {
            expect(200)?;
            let doc = body()?;
            match doc.get("state").and_then(Value::as_str) {
                Some("running" | "paused") => {
                    let session = &mut state.sessions[s];
                    session.polls += 1;
                    let delay = poll_delay(inputs.seed, session.arrival, session.polls);
                    state.push(done + delay, Task::Poll(s));
                    Ok(())
                }
                Some("finished") => {
                    let session = &mut state.sessions[s];
                    session.rounds = doc.get("rounds").and_then(number).unwrap_or(0.0) as u64;
                    let summary = summary_of(&doc).ok_or("finished session has no summary")?;
                    let reference = &inputs.references[&(session.scenario, session.method)];
                    let served = Outcome {
                        result: Ok(summary.clone()),
                        ..reference.clone()
                    };
                    session.summary = Some(summary);
                    state.push(done, Task::Report(s));
                    served.check(reference)
                }
                other => {
                    state.sessions[s].ttc = Some(f64::NAN);
                    Err(format!("session ended {other:?}: {}", reply.body.trim()))
                }
            }
        }
        Task::Report(s) => {
            expect(200)?;
            let session = &mut state.sessions[s];
            session.ttc = Some(done - session.due);
            Ok(())
        }
    }
}

/// Seconds before a session's `n`-th status poll: uniform in 1–9 ms
/// (mean 5 ms) and seeded per session, so polls neither fall into step
/// with each other nor with the daemon's accept loop.
fn poll_delay(seed: u64, arrival: usize, n: u64) -> f64 {
    let us = sub_seed(seed, 9, ((arrival as u64) << 20) | n) % 8_001;
    (1_000 + us) as f64 / 1e6
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn summary_of(doc: &Value) -> Option<Summary> {
    let s = doc.get("summary")?;
    Some(Summary {
        final_cost: s.get("final_cost").and_then(number)?,
        final_makespan_ms: s.get("final_makespan_ms").and_then(number)?,
        meets_slo: matches!(s.get("meets_slo")?, Value::Bool(true)),
        samples: s.get("samples").and_then(number)? as usize,
    })
}

/// Histogram delta of `name` between the two scrapes.
fn delta(t: &Traffic, name: &str) -> Result<Histogram, String> {
    t.after.histogram(name)?.delta(&t.before.histogram(name)?)
}

fn counter(t: &Traffic, name: &str) -> f64 {
    t.after.value(name) - t.before.value(name)
}

/// Milliseconds of each record, measured from `from`.
fn latencies(t: &Traffic, kind: Option<Kind>, from_due: bool) -> Vec<f64> {
    t.records
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(|r| (r.done - if from_due { r.due } else { r.sent }) * 1e3)
        .collect()
}

/// Whether the live-session count grew over the run: the mean of the
/// last quarter of arrivals against the first (after the first second).
fn backlog_grew(live: &[(f64, usize)]) -> bool {
    let warm: Vec<f64> = live
        .iter()
        .filter(|l| l.0 >= 1.0)
        .map(|l| l.1 as f64)
        .collect();
    let quarter = warm.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (first, last) = (mean(&warm[..quarter]), mean(&warm[warm.len() - quarter..]));
    last > 2.0 * first + 2.0
}

/// Each request's milliseconds from its due time, keyed by arrival, kind
/// and rank among that arrival's requests of the kind, so one request of
/// two passes of a schedule has one key.
fn request_ms(t: &Traffic) -> BTreeMap<(usize, u8, usize), f64> {
    let mut records: Vec<&Record> = t.records.iter().collect();
    records.sort_by(|a, b| a.due.total_cmp(&b.due));
    let mut ranks = HashMap::new();
    records
        .into_iter()
        .map(|r| {
            let group = (r.arrival, r.kind as u8);
            let rank = ranks.entry(group).or_insert(0);
            *rank += 1;
            ((group.0, group.1, *rank - 1), (r.done - r.due) * 1e3)
        })
        .collect()
}

/// Each finished session's time to configuration in milliseconds, by
/// arrival.
fn ttc_ms(t: &Traffic) -> BTreeMap<usize, f64> {
    t.sessions
        .iter()
        .filter_map(|s| {
            s.ttc
                .filter(|x| x.is_finite())
                .map(|x| (s.arrival, x * 1e3))
        })
        .collect()
}

/// Runs `serve-open` and fills `report`.
pub fn run(opts: &Options, trace: Option<&Path>, report: &mut Report) -> Result<(), String> {
    if let Some(trace_path) = trace {
        let arrivals = (opts.seconds * RATE).ceil().max(DIGEST_ARRIVALS as f64) as usize;
        let inputs = Inputs::generate(opts.seed, arrivals)?;
        return traced_run(opts, &inputs, arrivals, trace_path, report);
    }
    let passes = ((opts.seconds / (PASS_SECONDS + PASS_SLACK_S)).floor() as usize).max(1);
    let arrivals = (opts.seconds.min(PASS_SECONDS) * RATE)
        .ceil()
        .max(DIGEST_ARRIVALS as f64) as usize;
    let inputs = Inputs::generate(opts.seed, arrivals)?;
    let mut setup_s = Vec::new();
    let mut ttc = Vec::with_capacity(passes);
    let mut req = Vec::with_capacity(passes);
    let mut peak_rss_mb = Vec::with_capacity(passes);
    let (mut sessions, mut wall_s, mut cpu_ms) = (0, 0.0, 0.0);
    let (mut lag_p99, mut backlog_end) = (0.0_f64, 0.0_f64);
    let mut digests = Vec::with_capacity(passes);
    for n in 0..passes {
        let (daemon, s) = set_up(opts, &inputs, &format!("pass{n}"))?;
        setup_s.push(s);
        let traffic = drive(&daemon, &inputs, arrivals, None)?;
        daemon.shutdown()?;
        count_outcomes(&traffic, report);
        let (lag, backlog) = guards(&traffic, report);
        lag_p99 = lag_p99.max(lag);
        backlog_end = backlog_end.max(backlog);
        let finished = ttc_ms(&traffic);
        sessions += finished.len();
        wall_s += traffic.wall_s;
        cpu_ms += traffic.cpu_ms;
        ttc.push(finished);
        req.push(request_ms(&traffic));
        peak_rss_mb.push(traffic.peak_rss_mb);
        digests.push(traffic.digest);
    }
    for n in passes..SETUP_REPEATS {
        let (daemon, s) = set_up(opts, &inputs, &format!("setup{n}"))?;
        setup_s.push(s);
        daemon.shutdown()?;
    }
    if let Some(other) = digests.iter().find(|d| **d != digests[0]) {
        report.problem(format!(
            "passes of one schedule disagree: outcome digest {} against {}",
            other.hex(),
            digests[0].hex()
        ));
    }
    let ttc = fastest_per_key(&ttc);
    let req = fastest_per_key(&req);
    report.metric(
        "searches_per_s",
        sessions as f64 / wall_s,
        "1/s",
        Some(sessions),
    );
    report.percentile("search_ms_p50", &ttc, 50.0, "ms");
    report.percentile("search_ms_p90", &ttc, 90.0, "ms");
    report.percentile("req_ms_p50", &req, 50.0, "ms");
    report.percentile("req_ms_p99", &req, 99.0, "ms");
    report.metric("setup_s", median(&setup_s), "s", Some(setup_s.len()));
    report.metric("peak_rss_mb", median(&peak_rss_mb), "MB", Some(passes));
    report.info(
        "failed_ratio",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        Some(report.attempted as usize),
    );
    report.info("gen.lag_ms_p99", lag_p99, "ms", None);
    report.info("gen.backlog_end", backlog_end, "count", None);
    report.info(
        "proc.cpu_ms_per_search",
        cpu_ms / sessions as f64,
        "ms",
        Some(sessions),
    );
    report.note(format!(
        "outcome digest {} over the sessions of the first {DIGEST_ARRIVALS} arrivals; {passes} passes of {arrivals} arrivals at {RATE}/s, each on a fresh daemon; timings are each session's (and request's) fastest pass; gen figures are the worst pass's; daemon stderr in {}",
        digests[0].hex(),
        daemon_dir(opts, "pass0").display()
    ));
    Ok(())
}

fn daemon_dir(opts: &Options, tag: &str) -> PathBuf {
    opts.run_dir.join(format!("serve-seed{}-{tag}", opts.seed))
}

/// The traced run: an untraced pass over the digest prefix on one
/// daemon, then the traced pass on a fresh one.
fn traced_run(
    opts: &Options,
    inputs: &Inputs,
    arrivals: usize,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let (daemon, _) = set_up(opts, inputs, "untraced")?;
    let untraced = drive(&daemon, inputs, DIGEST_ARRIVALS, None)?;
    daemon.shutdown()?;
    let (daemon, _) = set_up(opts, inputs, "traced")?;
    let tracer = Tracer::default();
    let traced = drive(&daemon, inputs, arrivals, Some(&tracer))?;
    daemon.shutdown()?;
    tracer.write_json(trace_path)?;
    count_outcomes(&traced, report);
    count_outcomes(&untraced, report);
    if traced.digest != untraced.digest {
        report.problem(format!(
            "traced digest {} differs from untraced digest {}",
            traced.digest.hex(),
            untraced.digest.hex()
        ));
    }
    per_layer(&traced, &untraced, inputs, &tracer, report)?;
    report.info(
        "req_ms_p50",
        median(&latencies(&traced, None, true)),
        "ms",
        None,
    );
    report.note(format!(
        "outcome digest {} (untraced {}) over the sessions of the first {DIGEST_ARRIVALS} arrivals; spans in {}",
        traced.digest.hex(),
        untraced.digest.hex(),
        trace_path.display()
    ));
    Ok(())
}

/// Charges requests and failures to the report.
fn count_outcomes(t: &Traffic, report: &mut Report) {
    report.attempted += t.records.len() as u64;
    report.failed += t.failures.len() as u64;
    for f in t.failures.iter().take(5) {
        report.problem(f.clone());
    }
}

/// The generator's validity guards: how late it sent, and whether the
/// backlog of live sessions grew.
fn guards(t: &Traffic, report: &mut Report) -> (f64, f64) {
    let lag: Vec<f64> = t.records.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    // A short run reads its largest lag instead.
    let lag_p99 = percentile(&lag, 99.0)
        .map_or_else(|_| lag.iter().copied().fold(0.0, f64::max), |p| p.value);
    let backlog_end = t.live.last().map_or(0.0, |l| l.1 as f64);
    if backlog_grew(&t.live) {
        report.problem("invalid run: the live-session backlog grew; lower the arrival rate");
    }
    (lag_p99, backlog_end)
}

/// The traced run's per-layer figures: client spans, `/metrics` deltas
/// and the daemon's CPU time.
fn per_layer(
    t: &Traffic,
    untraced: &Traffic,
    inputs: &Inputs,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let finished: Vec<&Session> = t.sessions.iter().filter(|s| s.summary.is_some()).collect();
    let sessions = finished.len() as f64;
    let steps = delta(t, "aarc_session_step_seconds")?;
    let http = delta(t, "aarc_http_request_seconds")?;
    let probe = delta(t, "aarc_eval_probe_seconds")?;
    let batch = delta(t, "aarc_eval_batch_seconds")?;
    let requests = counter(t, "aarc_eval_requests_total");
    let p50 = |kind: Kind| median(&latencies(t, Some(kind), false));
    report.metric(
        "spec.compile_us",
        median(&inputs.compile_us),
        "us",
        Some(inputs.compile_us.len()),
    );
    report.metric(
        "driver.rounds_per_search",
        finished.iter().map(|s| s.rounds as f64).sum::<f64>() / sessions,
        "count",
        None,
    );
    report.metric(
        "eval.share",
        ratio(probe.sum + batch.sum, steps.sum),
        "ratio",
        None,
    );
    report.metric(
        "eval.probe_us_p50",
        probe.quantile(0.5).unwrap_or(0.0) * 1e6,
        "us",
        Some(probe.count as usize),
    );
    report.metric(
        "eval.batch_us_per_candidate",
        ratio(batch.sum * 1e6, requests - probe.count),
        "us",
        None,
    );
    report.metric(
        "eval.requests_per_search",
        requests / sessions,
        "count",
        None,
    );
    report.metric(
        "eval.hit_ratio",
        ratio(counter(t, "aarc_eval_cache_hits_total"), requests),
        "ratio",
        None,
    );
    report.metric(
        "eval.evictions",
        counter(t, "aarc_eval_evictions_total"),
        "count",
        None,
    );
    report.metric(
        "kernel.sims",
        counter(t, "aarc_kernel_simulations_total"),
        "count",
        None,
    );
    report.metric("http.start_ms_p50", p50(Kind::Start), "ms", None);
    report.metric("http.status_ms_p50", p50(Kind::Status), "ms", None);
    report.metric("http.report_ms_p50", p50(Kind::Report), "ms", None);
    report.metric("http.upload_ms_p50", p50(Kind::Upload), "ms", None);
    report.metric("http.validate_ms_p50", p50(Kind::Validate), "ms", None);
    let server_p50 = http.quantile(0.5).unwrap_or(0.0) * 1e3;
    report.metric(
        "http.server_ms_p50",
        server_p50,
        "ms",
        Some(http.count as usize),
    );
    report.metric(
        "http.server_ms_p99",
        http.quantile(0.99).unwrap_or(0.0) * 1e3,
        "ms",
        Some(http.count as usize),
    );
    let client = latencies(t, None, false);
    report.metric(
        "http.outside_ms_p50",
        median(&client) - server_p50,
        "ms",
        Some(client.len()),
    );
    report.metric("scheduler.busy_share", steps.sum / t.wall_s, "ratio", None);
    report.metric(
        "scheduler.step_ms_p99",
        steps.quantile(0.99).unwrap_or(0.0) * 1e3,
        "ms",
        Some(steps.count as usize),
    );
    report.metric(
        "persist.wal_ms",
        p50(Kind::Upload) - p50(Kind::Validate),
        "ms",
        None,
    );
    report.metric(
        "persist.checkpoint_writes",
        counter(t, "aarc_checkpoint_writes_total"),
        "count",
        None,
    );
    report.metric("proc.cpu_ms_per_search", t.cpu_ms / sessions, "ms", None);
    let (lag_p99, backlog_end) = guards(t, report);
    report.metric("gen.lag_ms_p99", lag_p99, "ms", None);
    report.metric("gen.backlog_end", backlog_end, "count", None);
    let totals = tracer.totals();
    report.info(
        "trace.spans",
        totals.values().map(|x| x.count).sum::<u64>() as f64,
        "count",
        None,
    );
    // Request latency over the shared prefix, traced against untraced.
    let prefix_p50 = |t: &Traffic| {
        let xs: Vec<f64> = t
            .records
            .iter()
            .filter(|r| r.arrival < DIGEST_ARRIVALS)
            .map(|r| (r.done - r.sent) * 1e3)
            .collect();
        median(&xs)
    };
    report.metric(
        "trace.overhead_ratio",
        ratio(prefix_p50(t), prefix_p50(untraced)),
        "ratio",
        None,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_backlog_is_detected() {
        let steady: Vec<(f64, usize)> = (0..400).map(|i| (i as f64 / 20.0, 1 + i % 3)).collect();
        assert!(!backlog_grew(&steady));
        let growing: Vec<(f64, usize)> = (0..400).map(|i| (i as f64 / 20.0, i / 10)).collect();
        assert!(backlog_grew(&growing));
    }

    #[test]
    fn the_tenants_file_has_four_keyed_tenants() {
        let yaml = tenants_yaml();
        assert!(yaml.starts_with("tenants:\n"));
        assert_eq!(yaml.matches("  - name: tenant-").count(), TENANTS);
        assert_eq!(yaml.matches("api_key: key-").count(), TENANTS);
    }

    #[test]
    fn the_queue_pops_the_earliest_due_first() {
        let mut state = State::default();
        state.push(2.0, Task::Poll(0));
        state.push(1.0, Task::Arrival(0));
        state.push(1.0, Task::Report(1));
        let order: Vec<(f64, u64)> = std::iter::from_fn(|| state.heap.pop())
            .map(|q| (q.due, q.seq))
            .collect();
        assert_eq!(order, vec![(1.0, 2), (1.0, 3), (2.0, 1)]);
    }
}
