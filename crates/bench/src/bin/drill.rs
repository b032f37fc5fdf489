//! `wino-drill` — the fault, serving and chaos drills as one table of
//! scenarios, and the one checker over their reports.
//!
//! A [`Scenario`] is a drill, the environment it runs under
//! (`WINO_FAULT`, `WINO_SIMD`, `WINO_METRICS`, `WINO_FLIGHT_DIR`; a row
//! may also pin `WINO_THREADS`) and what its report must say. Fault
//! arming, the SIMD level and every
//! probe counter are process-global, and only a fresh process
//! exercises the `init_from_env` paths, so the checker re-executes
//! this binary once per row: the child runs the drill — which keeps
//! its own in-process assertions (exactly-once resolution, `Ok`
//! outputs bit-identical to a direct [`GuardedConv`], finite outputs,
//! the watchdogs, planner peak under naive, warm transforms once per
//! Winograd conv) — and ends with one JSON report line on stdout: the
//! [`metrics::Snapshot`], the drill's `facts`, and what its telemetry
//! left on disk (`scrape`, `flight`). The parent compares typed values
//! and names scenario, key, expected and got on a miss.
//!
//! `wino-drill` runs the whole table; `wino-drill <scenario>` runs one
//! row and relays its child's output. The parent sets all four
//! variables above for every child, and a process that finds all four
//! set is a child — a shell does not do that by accident, and a child
//! can therefore never re-execute itself — so the one positional
//! serves both.
//!
//! Injection is check-counted, never timed, and every drill with exact
//! expectations submits sequentially with coalescing off, so the
//! expected values are deterministic.

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use wino_graph::EngineChoice;
use wino_guard::{fault, GuardedConv};
use wino_probe::{self as probe, metrics};
use wino_serve::{
    BreakerState, ConvRequest, ConvResponse, HealthStatus, NetworkRequest, PlanRegistry,
    ServeError, Server, ServerConfig,
};
use wino_tensor::{ConvDesc, Tensor4};

/// The variables a scenario may set, each with the documented value
/// that arms nothing: what the child of a row that leaves the variable
/// out gets, so nothing leaks in from the caller's shell.
const ENV_VARS: [(&str, &str); 4] = [
    ("WINO_FAULT", "off"),
    ("WINO_SIMD", "auto"),
    ("WINO_METRICS", "off"),
    ("WINO_FLIGHT_DIR", "results/flight"),
];

/// The one variable a row may pin that has no value arming nothing:
/// a row that leaves it out runs on the caller's lane count.
const THREADS: &str = "WINO_THREADS";

const GUARDRAIL: &str = "guard.demote.guardrail";
const FALLBACK: &str = "guard.served_by_fallback";

/// One row of the table: `name` is `<drill>/<variant>`, `drill` runs
/// in the child and returns its `facts` object, `{tmp}` in an `env`
/// value is the row's scratch directory, and `checks` are lookups into
/// the child's report (`["counters", name]`, `["gauges", name,
/// "peak"]`, `["facts", key]`, …).
struct Scenario {
    name: &'static str,
    drill: fn() -> Value,
    env: Vec<(&'static str, &'static str)>,
    checks: Vec<(Vec<&'static str>, Value)>,
    /// `(var, value, fact)`: a second child runs with `var` set to
    /// `value`, and must report the same `fact` as the row's own.
    same_under: Option<(&'static str, &'static str, &'static str)>,
}

fn row(name: &'static str, drill: fn() -> Value) -> Scenario {
    Scenario {
        name,
        drill,
        env: Vec::new(),
        checks: Vec::new(),
        same_under: None,
    }
}

impl Scenario {
    fn env(mut self, var: &'static str, value: &'static str) -> Self {
        self.env.push((var, value));
        self
    }

    /// The report must hold `value` at `path`.
    fn want(mut self, path: &[&'static str], value: impl Serialize) -> Self {
        self.checks.push((path.to_vec(), value.to_value()));
        self
    }

    fn counters<const N: usize>(self, expected: [(&'static str, i64); N]) -> Self {
        let check = |row: Self, (name, value)| row.want(&["counters", name], value);
        expected.into_iter().fold(self, check)
    }

    /// Counters that must stay 0.
    fn zero<const N: usize>(self, names: [&'static str; N]) -> Self {
        self.counters(names.map(|name| (name, 0)))
    }

    /// A gauge's final value and its peak. Sequential requests never
    /// stack, so `serve.queue_depth` peaks at exactly 1, and every
    /// drill must drain it to 0.
    fn gauge(self, name: &'static str, value: i64, peak: i64) -> Self {
        self.want(&["gauges", name, "value"], value)
            .want(&["gauges", name, "peak"], peak)
    }

    fn fact(self, key: &'static str, value: impl Serialize) -> Self {
        self.want(&["facts", key], value)
    }

    /// The fact `key` must read the same when `var` is `value`.
    fn same_fact_under(
        mut self,
        key: &'static str,
        var: &'static str,
        value: &'static str,
    ) -> Self {
        self.same_under = Some((var, value, key));
        self
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(key, value)| (key.to_string(), value)).into())
}

/// `Server::health` as the `health` fact, built the same way by the
/// drill that reports it and the rows that expect it.
fn health(status: &str, scheduler_alive: bool, batch_panics: u64) -> Value {
    object([
        ("status", status.to_value()),
        ("scheduler_alive", scheduler_alive.to_value()),
        ("batch_panics", batch_panics.to_value()),
    ])
}

/// How a drill's submissions resolved, as [`resolved`] counted them:
/// ok, internal, refused, shed.
fn outcomes(ok: i64, internal: i64, refused: i64, shed: i64) -> [(&'static str, i64); 4] {
    [
        ("drill.ok", ok),
        ("drill.internal", internal),
        ("drill.refused", refused),
        ("drill.shed", shed),
    ]
}

fn scenarios() -> Vec<Scenario> {
    vec![
        // -- wino-guard: each run arms one site and the guard layer
        // must produce exactly these demotion counters.
        // `drill_guard` runs the default chain once: Winograd → im2col
        // → direct.
        row("guard/clean", drill_guard)
            .zero(["guard.demote.panic", GUARDRAIL, FALLBACK])
            .zero(["flight.dumps"]),
        // Only the head runs the transform kernels: it is demoted
        // (1) and im2col serves as a fallback (1).
        row("guard/transform-nan", drill_guard)
            .env("WINO_FAULT", "transform:nan")
            .counters([(GUARDRAIL, 1), (FALLBACK, 1)]),
        row("guard/transform-panic", drill_guard)
            .env("WINO_FAULT", "transform:panic")
            .counters([("guard.demote.panic", 1), (FALLBACK, 1)]),
        // Winograd and im2col both multiply through the GEMM: two
        // demotions, direct serves as a fallback (1).
        row("guard/gemm-nan", drill_guard)
            .env("WINO_FAULT", "gemm:nan")
            .counters([(GUARDRAIL, 2), (FALLBACK, 1)]),
        // Dispatch pinned to the compiled AVX2 kernels (hosts without
        // avx2+fma diag and fall back to scalar, which still must
        // pass): the clean run proves the f64 guardrail spot-checks
        // accept the SIMD outputs, the fault runs that injection and
        // demotion still work on that path.
        row("guard/avx2-clean", drill_guard)
            .env("WINO_SIMD", "avx2")
            .zero(["guard.demote.panic", GUARDRAIL, FALLBACK]),
        row("guard/avx2-transform-nan", drill_guard)
            .env("WINO_SIMD", "avx2")
            .env("WINO_FAULT", "transform:nan")
            .counters([(GUARDRAIL, 1), (FALLBACK, 1)]),
        row("guard/avx2-gemm-nan", drill_guard)
            .env("WINO_SIMD", "avx2")
            .env("WINO_FAULT", "gemm:nan")
            .counters([(GUARDRAIL, 2), (FALLBACK, 1)]),
        // The same under the AVX-512 GEMM tile (a host without
        // avx512f diags and runs scalar, which must still pass).
        row("guard/avx512-gemm-nan", drill_guard)
            .env("WINO_SIMD", "avx512")
            .env("WINO_FAULT", "gemm:nan")
            .counters([(GUARDRAIL, 2), (FALLBACK, 1)]),
        // Telemetry arms the flight recorder: the one guardrail
        // demotion of `guard/transform-nan` leaves a parseable dump
        // that carries the reason and the recent conv.* span history
        // an incident responder needs.
        row("guard/flight", drill_guard)
            .env("WINO_FAULT", "transform:nan")
            .env("WINO_METRICS", "summary")
            .env("WINO_FLIGHT_DIR", "{tmp}/flight")
            .counters([("flight.dumps", 1)])
            .want(&["flight", "dumps"], 1)
            .want(&["flight", "guardrail_with_conv_spans"], 1),
        // -- wino-serve, layer requests. Nothing sheds at low load,
        // each request is its own batch, the filter transform runs
        // once at registration, the arena reserved at start covers
        // every request (allocs_steady 0), and every lane group — the
        // ragged last one included — ran the build's proven kernels,
        // none the interpreter.
        row("smoke/clean", drill_smoke)
            .counters([("serve.enqueued", 8), ("serve.batches", 8)])
            .counters([("serve.executed", 8)])
            .zero(["serve.shed", "serve.batched", "serve.deadline_demotions"])
            .zero(["serve.networks_registered", GUARDRAIL, FALLBACK])
            .counters([("conv.filter_transforms", 1)])
            .zero(["conv.tiles_interpreted"])
            .zero(["exec.allocs_steady", "exec.degraded_runs"])
            .gauge("serve.breaker_state.drill/conv", 0, 0)
            .gauge("serve.queue_depth", 0, 1),
        // The first three batches demote in the guard, the layer
        // breaker trips on the third, and the remaining five ride the
        // terminal fallback directly — all served, the poisoned head
        // ran 3 times.
        row("smoke/transform-nan", drill_smoke)
            .env("WINO_FAULT", "transform:nan")
            .counters([("serve.enqueued", 8), ("serve.batches", 8)])
            .counters([("serve.executed", 8)])
            .counters([(GUARDRAIL, 3), (FALLBACK, 3), ("serve.breaker.open", 1)])
            .counters([("conv.filter_transforms", 1), ("exec.degraded_runs", 5)])
            .zero(["serve.shed", "exec.allocs_steady"])
            .gauge("serve.breaker_state.drill/conv", 2, 2)
            .gauge("serve.queue_depth", 0, 1),
        // One histogram record per request — nothing double-counted,
        // nothing lost — and the shutdown emission lands the same
        // numbers in the scrape file.
        row("smoke/metrics", drill_smoke)
            .env("WINO_METRICS", "text:{tmp}/metrics.prom")
            .want(&["hists", "serve.queue_wait", "count"], 8)
            .want(&["hists", "serve.execute", "count"], 8)
            .want(&["hists", "serve.e2e", "count"], 8)
            .want(&["scrape", "serve_queue_wait_count"], 8)
            .want(&["scrape", "serve_enqueued"], 8)
            .want(&["scrape", "serve_executed"], 8),
        // -- wino-serve, whole networks: 2 warmups + 8 steady requests,
        // coalesced, so the queue-depth peak is not pinned.
        row("net-smoke/clean", drill_net_smoke)
            .counters([("serve.enqueued", 10), ("serve.executed", 10)])
            .counters([("serve.networks_registered", 2)])
            .zero(["serve.shed", "serve.deadline_demotions"])
            .zero([GUARDRAIL, FALLBACK])
            .zero(["exec.allocs_steady", "exec.degraded_runs"])
            .zero(["conv.tiles_interpreted"])
            .fact("steady_served", 8)
            .fact("demotions", 0)
            .want(&["gauges", "serve.queue_depth", "value"], 0),
        // Poisoned transforms: all 10 still serve (the guard demotes
        // each Winograd conv), and steady state still allocates
        // nothing.
        row("net-smoke/transform-nan", drill_net_smoke)
            .env("WINO_FAULT", "transform:nan")
            .counters([("serve.enqueued", 10), ("serve.executed", 10)])
            .zero(["serve.shed", "exec.allocs_steady"])
            .fact("steady_served", 8)
            .fact("demoted", true)
            .want(&["gauges", "serve.queue_depth", "value"], 0),
        // -- wino-exec on the pool: a wave's branches run on both
        // lanes (the caller is one), waiting lanes helped, nothing
        // demoted, and the bits are the one-lane run's.
        row("exec/wave-lanes", drill_wave_lanes)
            .env(THREADS, "2")
            .fact("lanes", 2)
            .fact("conv_lanes", 2)
            .fact("helped", true)
            .fact("demotions", 0)
            .zero([GUARDRAIL, FALLBACK, "conv.tiles_interpreted"])
            .same_fact_under("output_hash", THREADS, "1"),
        // -- wino-serve failure domains: one serve-site fault per run.
        // (Changed with the supervisor's removal: the `health` fact
        // no longer carries `executors_alive` or `restarts`, and the
        // executor death/restart counters are gone from the zero
        // list.)
        row("chaos/clean", drill_chaos)
            .counters([("serve.enqueued", 12), ("serve.executed", 12)])
            .zero(["serve.internal_errors", "serve.batch_panics", "serve.shed"])
            .zero(["serve.scheduler_deaths", "serve.responses_dropped"])
            .counters(outcomes(12, 0, 0, 0))
            .fact("health", health("Healthy", true, 0))
            .gauge("serve.queue_depth", 0, 1),
        // Scheduler death is unrecoverable by design: the one parked
        // request fails terminally, admission closes, 11 are refused.
        // The dying scheduler fails the server before the waiter
        // unblocks, so the health read needs no wait. (Changed: the
        // `health` fact's fields, as above.)
        row("chaos/sched-panic", drill_chaos)
            .env("WINO_FAULT", "serve_sched:panic:1")
            .counters([("serve.enqueued", 1), ("serve.executed", 0)])
            .counters([("serve.scheduler_deaths", 1), ("serve.internal_errors", 1)])
            .counters(outcomes(0, 1, 11, 0))
            .fact("health", health("Failed", false, 0))
            .gauge("serve.queue_depth", 0, 1),
        // A stall only delays dispatch.
        // (Changed: the `health` fact's fields, as above.)
        row("chaos/sched-stall", drill_chaos)
            .env("WINO_FAULT", "serve_sched:stall:3")
            .counters([("serve.enqueued", 12), ("serve.executed", 12)])
            .counters([("fault.injected.serve_sched", 1)])
            .counters(outcomes(12, 0, 0, 0))
            .fact("health", health("Healthy", true, 0))
            .gauge("serve.queue_depth", 0, 1),
        // A dropped response is a terminal Internal at the waiter
        // (closed channel), never a hang; the batch itself executed.
        // (Changed: the `health` fact's fields, as above.)
        row("chaos/resp-drop", drill_chaos)
            .env("WINO_FAULT", "serve_resp:drop:1")
            .counters([("serve.enqueued", 12), ("serve.executed", 12)])
            .counters([("serve.responses_dropped", 1), ("serve.internal_errors", 0)])
            .counters(outcomes(11, 1, 0, 0))
            .fact("health", health("Healthy", true, 0))
            .gauge("serve.queue_depth", 0, 1),
        // A panic inside response delivery is contained: the batch
        // fails its member, the executor survives. (Changed: the
        // deleted `serve.executor_restarts` is no longer pinned to 0,
        // and the `health` fact's fields, as above.)
        row("chaos/resp-panic", drill_chaos)
            .env("WINO_FAULT", "serve_resp:panic:1")
            .counters([("serve.enqueued", 12), ("serve.executed", 12)])
            .counters([("serve.batch_panics", 1)])
            .counters(outcomes(11, 1, 0, 0))
            .fact("health", health("Degraded", true, 1))
            .gauge("serve.queue_depth", 0, 1),
        // New with the supervisor's removal, in place of the
        // `serve_exec` rows: a panic in every delivery fails all 12
        // requests and never the executor, which serves each next
        // batch. The last batch's containment can still be counting
        // when its waiter unblocks, so the fact pins only status and
        // scheduler; `serve.batch_panics` is read after shutdown.
        row("chaos/resp-panic-always", drill_chaos)
            .env("WINO_FAULT", "serve_resp:panic")
            .counters([("serve.enqueued", 12), ("serve.executed", 12)])
            .counters([("serve.batch_panics", 12)])
            .counters(outcomes(0, 12, 0, 0))
            .want(&["facts", "health", "status"], "Degraded")
            .want(&["facts", "health", "scheduler_alive"], true)
            .gauge("serve.queue_depth", 0, 1),
        // Three poisoned batches trip the breaker (threshold 3), an
        // open-state request rides the terminal fallback, the fault
        // heals, and one half-open probe after the cool-down closes it.
        row("breaker/trip-and-recover", drill_breaker)
            .env("WINO_FAULT", "transform:nan")
            .counters([("serve.breaker.open", 1), ("serve.breaker.half_open", 1)])
            .counters([("serve.breaker.close", 1), (GUARDRAIL, 3)])
            .counters([("serve.executed", 6)])
            .gauge("serve.breaker_state.drill/conv", 0, 2)
            .gauge("serve.queue_depth", 0, 1),
        // Batching makes the ok/internal split timing-dependent; the
        // drill itself enforces exactly-once, bit-identity and a live
        // server.
        row("seeded/42", drill_seeded)
            .zero(["drill.refused", "drill.shed"])
            .want(&["gauges", "serve.queue_depth", "value"], 0),
    ]
}

// ---------------------------------------------------------------------
// The checker (parent side)
// ---------------------------------------------------------------------

/// Compares a child's report against a row's checks: one failure line
/// per missing or mismatching key. Values compare typed — `1` is not
/// `true`, `"8"` is not `8`.
fn check_report(report: &Value, checks: &[(Vec<&'static str>, Value)]) -> Vec<String> {
    let show = |v: &Value| serde_json::to_string(v).expect("report values render");
    let mut failures = Vec::new();
    for (path, want) in checks {
        let (key, want_text) = (path.join(" "), show(want));
        match path.iter().try_fold(report, |v, field| v.get(field)) {
            Some(got) if got == want => {}
            Some(got) => failures.push(format!("{key}: expected {want_text}, got {}", show(got))),
            None => failures.push(format!(
                "{key}: expected {want_text}, missing from the report"
            )),
        }
    }
    failures
}

/// What `other` holds at `paths` (`null` where it holds nothing), as
/// checks: the other run's values are this run's expectations.
fn values_at(other: &Value, paths: &[Vec<&'static str>]) -> Vec<(Vec<&'static str>, Value)> {
    let lookup = |path: &Vec<&'static str>| {
        let found = path.iter().try_fold(other, |v, field| v.get(field));
        (path.clone(), found.cloned().unwrap_or(Value::Null))
    };
    paths.iter().map(lookup).collect()
}

impl Scenario {
    /// Re-executes this binary as the row's child — under the row's
    /// environment, with `also` on top — and returns its report, what
    /// was wrong with the run itself (no report, a failing exit), and
    /// everything it printed.
    fn child_report(&self, also: Option<(&str, &str)>) -> (Option<Value>, Vec<String>, String) {
        // Per parent process, so concurrent runs on one host never
        // delete each other's scrape file or flight dumps.
        let tmp = format!("wino-drill-{}-{}", std::process::id(), self.name);
        let tmp = std::env::temp_dir().join(tmp.replace('/', "-"));
        let expand = |value: &str| value.replace("{tmp}", &tmp.to_string_lossy());
        // Every row's child gets all of `ENV_VARS`; [`THREADS`] only
        // the child of a row that sets it.
        let unset = ENV_VARS
            .iter()
            .filter(|(var, _)| !self.env.iter().any(|(k, _)| k == var));
        let _ = std::fs::remove_dir_all(&tmp);
        let exe = std::env::current_exe().expect("own executable path");
        let child = Command::new(exe)
            .arg(self.name)
            .envs(unset.map(|(var, value)| (*var, value.to_string())))
            .envs(self.env.iter().map(|(var, value)| (*var, expand(value))))
            .envs(also)
            .output();
        let _ = std::fs::remove_dir_all(&tmp);
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                return (
                    None,
                    vec![format!("could not re-execute: {e}")],
                    String::new(),
                )
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let (report, mut problems) = match serde_json::from_str::<Value>(last) {
            Ok(report) => (Some(report), Vec::new()),
            Err(e) => (
                None,
                vec![format!("last stdout line is not a report ({e}): {last:?}")],
            ),
        };
        if !out.status.success() {
            problems.push(format!("child exited with {}", out.status));
        }
        let printed = format!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
        (report, problems, printed)
    }

    /// Runs the row and checks its report; empty when the row holds.
    /// The child's output is relayed on a miss, or when `relay` asks.
    fn run_checked(&self, relay: bool) -> Vec<String> {
        let (report, mut failures, mut printed) = self.child_report(None);
        if let Some(report) = &report {
            failures.extend(check_report(report, &self.checks));
        }
        if let (Some(report), Some((var, value, fact))) = (&report, self.same_under) {
            let (other, problems, other_printed) = self.child_report(Some((var, value)));
            printed.push_str(&other_printed);
            let other = other.unwrap_or(Value::Null);
            let differ = check_report(report, &values_at(&other, &[vec!["facts", fact]]));
            let under = |miss: String| format!("under {var}={value}: {miss}");
            failures.extend(problems.into_iter().chain(differ).map(under));
        }
        if relay || !failures.is_empty() {
            eprint!("{printed}");
        }
        failures
    }
}

fn main() -> ExitCode {
    let mut rows = scenarios();
    if let Some(name) = std::env::args().nth(1) {
        rows.retain(|s| s.name == name);
        let Some(row) = rows.first() else {
            eprintln!("wino-drill: no scenario {name:?}; the table holds:");
            for s in scenarios() {
                eprintln!("  {}", s.name);
            }
            return ExitCode::FAILURE;
        };
        // Only a child finds all four set: it never re-executes.
        let set = |(var, _): &(&str, &str)| std::env::var_os(var).is_some();
        if ENV_VARS.iter().all(set) {
            run_child(row);
            return ExitCode::SUCCESS;
        }
    }
    let mut held = 0usize;
    for row in &rows {
        let failures = row.run_checked(rows.len() == 1);
        for failure in &failures {
            println!("FAIL {}: {failure}", row.name);
        }
        if failures.is_empty() {
            println!("ok   {} {:?}", row.name, row.env);
            held += 1;
        }
    }
    println!("wino-drill: {held}/{} scenarios hold", rows.len());
    if held == rows.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// The drills (child side)
// ---------------------------------------------------------------------

/// A hang is an invariant violation, not a slow test: fail loudly.
const WATCHDOG: Duration = Duration::from_secs(120);

const LAYER: &str = "drill/conv";

/// Runs the row's drill in this process and ends stdout with the
/// report line.
fn run_child(row: &Scenario) {
    // Injected panics are expected traffic; anything else still
    // prints.
    std::panic::set_hook(Box::new(|info| {
        let report = info.to_string();
        if !report.contains("wino-fault") {
            eprintln!("{report}");
        }
    }));
    probe::set_mode(probe::Mode::Summary);
    println!("drill: metrics mode: {:?}", metrics::init_from_env());
    let facts = (row.drill)();
    // Intern what the row reads, so a metric nothing touched reports
    // its zero instead of going missing.
    for (path, _) in &row.checks {
        match path[..] {
            ["counters", name] => _ = probe::counter(name),
            ["gauges", name, _] => _ = probe::gauge(name),
            ["hists", name, _] => _ = probe::histogram(name),
            _ => {}
        }
    }
    let mut report = vec![
        ("scenario".to_string(), row.name.to_value()),
        ("facts".to_string(), facts),
    ];
    if let Value::Object(kinds) = metrics::snapshot().to_json() {
        report.extend(kinds);
    }
    // What the child's telemetry left on disk.
    if let metrics::MetricsMode::Text(Some(path)) = metrics::mode() {
        report.push(("scrape".into(), scrape_series(&path)));
    }
    if row.env.iter().any(|(var, _)| *var == "WINO_FLIGHT_DIR") {
        let dir = std::env::var("WINO_FLIGHT_DIR").expect("the parent sets all four");
        report.push(("flight".into(), flight_summary(&dir)));
    }
    let line = serde_json::to_string(&Value::Object(report)).expect("report values are finite");
    println!("{line}");
}

/// The `name value` series of a Prometheus-style scrape file.
fn scrape_series(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let series = text.lines().filter_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        Some((name.to_string(), Value::Int(value.parse().ok()?)))
    });
    Value::Object(series.collect())
}

/// The flight dumps in `dir`: how many there are, and how many of them
/// parse, give [`GUARDRAIL`] as their reason and hold a `conv.*` span.
fn flight_summary(dir: &str) -> Value {
    let is = |v: Option<&Value>, text: &str| matches!(v, Some(Value::Str(s)) if s == text);
    let conv_span = |event: &Value| {
        let conv = matches!(event.get("name"), Some(Value::Str(n)) if n.starts_with("conv."));
        conv && is(event.get("kind"), "span")
    };
    let (mut dumps, mut complete) = (0usize, 0usize);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
        let root = serde_json::from_str::<Value>(&text).unwrap_or(Value::Null);
        let spans = matches!(root.get("events"), Some(Value::Array(e)) if e.iter().any(conv_span));
        dumps += 1;
        complete += usize::from(spans && is(root.get("reason"), GUARDRAIL));
    }
    object([
        ("dumps", dumps.to_value()),
        ("guardrail_with_conv_spans", complete.to_value()),
    ])
}

/// Arms `WINO_FAULT`. Always called *after* registration: registering
/// precomputes the warm filter transforms through the same hooked
/// transform path, and a fault poisoning those cached filters would
/// outlive its own disarm. Real faults strike at runtime, not at
/// model load.
fn arm_fault() {
    println!("drill: fault armed: {:?}", fault::init_from_env());
}

/// One tiny Winograd-eligible layer.
fn layer_registry() -> Arc<PlanRegistry> {
    let registry = PlanRegistry::new();
    let desc = ConvDesc::new(3, 1, 1, 8, 1, 16, 16, 8);
    let mut rng = StdRng::seed_from_u64(0xc4a0);
    let weights = Tensor4::random(8, 8, 3, 3, -0.25, 0.25, &mut rng);
    registry
        .register_layer(LAYER, desc, weights)
        .expect("drill layer registers");
    Arc::new(registry)
}

fn layer_input(seed: u64) -> Tensor4<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor4::random(1, 8, 16, 16, -1.0, 1.0, &mut rng)
}

/// One executor, no coalescing: with sequential submission every
/// `serve.*` counter is exact.
fn sequential_config() -> ServerConfig {
    ServerConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        executors: 1,
        ..ServerConfig::default()
    }
}

/// The default chain once, under whatever fault is armed. What the
/// chain absorbed shows in the counters; its result is not otherwise
/// used.
fn drill_guard() -> Value {
    arm_fault();
    let desc = ConvDesc::new(3, 1, 1, 2, 1, 8, 8, 3);
    let input = Tensor4::from_fn(1, 3, 8, 8, |n, c, y, x| {
        ((n + 2 * c + 3 * y + 5 * x) % 7) as f32 * 0.25 - 0.5
    });
    let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, y, x| {
        ((k + c + y + 2 * x) % 5) as f32 * 0.125 - 0.25
    });
    let served = GuardedConv::new(4).run(&input, &filters, &desc);
    println!(
        "drill: chain served by {:?}",
        served.map(|out| out.served_by)
    );
    object([])
}

/// Eight sequential layer requests. The arena reserved at start covers
/// every one of them, so the whole drill runs as steady phase.
fn drill_smoke() -> Value {
    let registry = layer_registry();
    arm_fault();
    let server = Server::start(registry, sequential_config());
    wino_exec::set_steady_phase(true);
    for seed in 0..8 {
        let served = server.infer(ConvRequest::new(LAYER, layer_input(seed)));
        println!("drill: request {seed}: {:?}", served.map(|r| r.served_by));
    }
    wino_exec::set_steady_phase(false);
    server.shutdown();
    object([])
}

/// One `inception-3a-3b` pass through the wave executor on the global
/// runtime (after one to warm it), observed: how many lanes the
/// runtime has, how many distinct threads recorded an `exec.node.conv`
/// span, whether a waiting lane ran anything, and the output's bits.
fn drill_wave_lanes() -> Value {
    let registry = PlanRegistry::new();
    let plan = registry
        .register_zoo_network("inception-3a-3b")
        .expect("the zoo network registers");
    let exec = wino_exec::NetworkExecutor::new(Arc::clone(&plan.net), Arc::clone(&plan.pool));
    let (c, h, w) = plan.input_dims();
    let mut rng = StdRng::seed_from_u64(0x77a7e);
    let input = Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng);
    exec.run(&input).expect("the warm-up pass serves");

    let helped = probe::counter("runtime.helped");
    let helped_before = helped.get();
    probe::take_events();
    let out = exec.run(&input).expect("the observed pass serves");
    let conv_lanes: std::collections::BTreeSet<usize> = probe::take_events()
        .iter()
        .filter(|event| event.name == "exec.node.conv")
        .map(|event| event.tid)
        .collect();
    // FNV-1a over the output's bit patterns.
    let hash = out
        .output
        .data()
        .iter()
        .fold(0xcbf29ce484222325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x100000001b3)
        });
    object([
        (
            "lanes",
            wino_runtime::Runtime::global().threads().to_value(),
        ),
        ("conv_lanes", conv_lanes.len().to_value()),
        ("helped", (helped.get() > helped_before).to_value()),
        ("demotions", out.demotions.to_value()),
        ("output_hash", format!("{hash:016x}").to_value()),
    ])
}

/// Two zoo networks registered for whole-graph execution, one warmup
/// request each, then eight steady-state requests submitted before any
/// is collected so cross-request coalescing happens. Batch counts
/// depend on scheduler timing and are not reported.
fn drill_net_smoke() -> Value {
    const NETWORKS: [&str; 2] = ["alexnet", "inception-3a-3b"];
    let registry = Arc::new(PlanRegistry::new());
    let mut winograd_convs = 0u64;
    for name in NETWORKS {
        let plan = registry
            .register_zoo_network(name)
            .unwrap_or_else(|e| panic!("cannot register {name}: {e}"));
        let convs = plan.graph.conv_nodes();
        let winograd = convs
            .iter()
            .filter(|(id, _)| matches!(plan.graph.engine(*id), EngineChoice::Winograd(_)));
        winograd_convs += winograd.count() as u64;
    }
    arm_fault();

    // The buffer planner must beat the naive one-buffer-per-tensor
    // layout on the branchy Inception module.
    let inception = registry.network("inception-3a-3b").expect("registered");
    let peak = inception.net.peak_arena_bytes(1);
    let naive = inception.net.naive_activation_bytes(1);
    assert!(
        peak < naive,
        "arena planner peak {peak} B did not beat naive sum-of-activations {naive} B"
    );

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(10),
            executors: 2,
            ..ServerConfig::default()
        },
    );
    let request = |name: &str, seed: u64| {
        let (c, h, w) = registry.network(name).expect("registered").input_dims();
        let mut rng = StdRng::seed_from_u64(0x6e75 ^ seed);
        NetworkRequest::new(name, Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng))
    };
    // Warmup fills each arena pool to its high-water mark, so the
    // steady phase can demand zero graph-level allocations.
    for name in NETWORKS {
        let warm = server.infer_network(request(name, 0));
        warm.unwrap_or_else(|e| panic!("warmup {name} failed: {e}"));
    }
    wino_exec::set_steady_phase(true);
    // Requests are built before the first submit so the scheduler
    // sees concurrent same-network requests.
    let steady: Vec<_> = (0..8)
        .map(|i| request(NETWORKS[i % 2], 1 + i as u64))
        .collect();
    let handles: Vec<_> = steady
        .into_iter()
        .map(|req| server.submit_network(req).expect("steady submit admitted"))
        .collect();
    let (mut served, mut demotions) = (0usize, 0usize);
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(resp) => {
                assert!(
                    resp.output.data().iter().all(|v| v.is_finite()),
                    "served network output is not finite"
                );
                served += 1;
                demotions += resp.trace.demotions;
            }
            Err(e) => println!("drill: request {i} failed: {e}"),
        }
    }
    wino_exec::set_steady_phase(false);
    server.shutdown();
    assert_eq!(
        probe::counter("conv.filter_transforms").get(),
        winograd_convs,
        "warm filter transforms must run once per Winograd conv, never while serving"
    );
    object([
        ("steady_served", served.to_value()),
        ("demotions", demotions.to_value()),
        ("demoted", (demotions > 0).to_value()),
    ])
}

/// Re-runs one request directly on the engine that served it and
/// asserts bit-identity with the served output.
fn assert_bit_identical(registry: &PlanRegistry, seed: u64, resp: &ConvResponse) {
    let plan = registry.get(LAYER).expect("drill layer");
    let direct = GuardedConv::new(plan.warm.as_ref().map_or(4, |p| p.spec().m))
        .with_chain(vec![resp.served_by])
        .with_gemm_config(plan.gemm)
        .run(&layer_input(seed), &plan.weights, &plan.desc)
        .unwrap_or_else(|e| panic!("direct re-run on {} failed: {e}", resp.served_by));
    assert_eq!(
        resp.output.data(),
        direct.output.data(),
        "request {seed} served by {} is not bit-identical to a direct run",
        resp.served_by
    );
}

/// Submits one layer request and waits it out; `None` is a hang.
fn submit_and_wait(server: &Server, seed: u64) -> Option<Result<ConvResponse, ServeError>> {
    match server.submit(ConvRequest::new(LAYER, layer_input(seed))) {
        Ok(handle) => handle.wait_timeout(WATCHDOG),
        Err(refused) => Some(Err(refused)),
    }
}

/// Counts how one submission resolved, under the counters [`outcomes`]
/// names — every one lands in exactly one (the take-once response slot
/// makes a double delivery structurally impossible, the watchdog
/// catches hangs) — and hands an `Ok` response back.
fn resolved(outcome: Option<Result<ConvResponse, ServeError>>) -> Option<ConvResponse> {
    let (counter, resp) = match outcome.expect("invariant violated: request hung past the watchdog")
    {
        Ok(resp) => ("drill.ok", Some(resp)),
        Err(ServeError::Internal { .. }) => ("drill.internal", None),
        Err(ServeError::ShuttingDown) => ("drill.refused", None),
        Err(ServeError::Overloaded { .. }) => ("drill.shed", None),
        Err(other) => panic!("unexpected terminal error: {other}"),
    };
    probe::counter(counter).add(1);
    resp
}

/// Twelve sequential requests under whatever serve-site fault is
/// armed.
fn drill_chaos() -> Value {
    let registry = layer_registry();
    arm_fault();
    let server = Server::start(Arc::clone(&registry), sequential_config());
    for seed in 0..12 {
        if let Some(resp) = resolved(submit_and_wait(&server, seed)) {
            // The direct re-run never passes a serve hook, so this is
            // safe even with a serve fault armed.
            assert_bit_identical(&registry, seed, &resp);
        }
    }
    let h = server.health();
    let health = health(
        &format!("{:?}", h.status),
        h.scheduler_alive,
        h.batch_panics,
    );
    server.shutdown();
    object([("health", health)])
}

/// Breaker trip-and-recover under an armed `transform:nan`.
fn drill_breaker() -> Value {
    const COOLDOWN: Duration = Duration::from_millis(150);
    let registry = layer_registry();
    arm_fault();
    assert!(
        fault::armed(fault::Site::Transform),
        "the breaker drill needs WINO_FAULT=transform:nan armed"
    );
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            breaker_threshold: 3,
            breaker_cooldown: COOLDOWN,
            ..sequential_config()
        },
    );
    let tail = registry.get(LAYER).expect("drill layer").tail_engine();
    let served_by = |seed: u64, what: &str| {
        let resp = server.infer(ConvRequest::new(LAYER, layer_input(seed)));
        resp.unwrap_or_else(|e| panic!("{what}: {e}")).served_by
    };
    // The response for a batch is delivered *before* the executor
    // feeds the outcome back to the breaker, so a health read right
    // after `infer` can briefly see the pre-resolve state; batch
    // execution itself is serial per executor, so only this observer
    // needs to wait.
    let await_state = |want: BreakerState| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = server.health();
            let state = health.breakers.first().expect("breaker seeded").state;
            if state == want || Instant::now() >= deadline {
                return state;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Three poisoned full-chain batches: each demotes inside the
    // guard (unclean), the third trips the breaker.
    for seed in 0..3 {
        served_by(seed, "guard absorbs the poisoned transform");
    }
    let open = await_state(BreakerState::Open);
    assert_eq!(open, BreakerState::Open, "threshold 3 must trip on the 3rd");
    // While open, requests ride the terminal fallback only — the
    // poisoned Winograd transform never runs.
    let fallback = served_by(3, "fallback serves while open");
    assert_eq!(
        fallback, tail,
        "open breaker must serve the terminal fallback"
    );
    // Heal the fault, wait out the cool-down: the next batch is the
    // half-open probe on the full chain; clean, so the breaker closes.
    fault::init_from_value("off");
    std::thread::sleep(COOLDOWN + Duration::from_millis(50));
    served_by(4, "half-open probe serves");
    let closed = await_state(BreakerState::Closed);
    assert_eq!(
        closed,
        BreakerState::Closed,
        "clean probe must close the breaker"
    );
    let recovered = served_by(5, "closed breaker serves the full chain");
    assert_ne!(
        recovered, tail,
        "after recovery the full chain serves again"
    );
    server.shutdown();
    object([])
}

/// Randomized-but-seeded schedule: four waves of six concurrent
/// submissions, each under a serve-site fault drawn from the seeded
/// RNG (or none), then a clean wave — the server must still serve
/// after the whole schedule. Bit-identity of the `Ok` responses is
/// checked after the run, with every fault disarmed.
fn drill_seeded() -> Value {
    const SEED: u64 = 42;
    const WAVES: u64 = 4;
    const PER_WAVE: u64 = 6;
    let registry = layer_registry();
    let mut rng = StdRng::seed_from_u64(SEED);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 2,
            max_wait: Duration::from_micros(200),
            executors: 2,
            ..ServerConfig::default()
        },
    );
    let mut served: Vec<(u64, ConvResponse)> = Vec::new();
    for wave in 0..=WAVES {
        let spec = if wave == WAVES {
            String::new()
        } else {
            let nth = rng.gen_range(1..=4u32);
            match rng.gen_range(0..4u32) {
                0 => format!("serve_resp:panic:{nth}"),
                1 => format!("serve_resp:drop:{nth}"),
                2 => format!("serve_sched:stall:{nth}"),
                _ => String::new(),
            }
        };
        fault::init_from_value(&spec);
        println!("drill: wave {wave} fault={spec:?}");
        let seeds = wave * PER_WAVE..(wave + 1) * PER_WAVE;
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let submit = |req_seed| {
                let server = &server;
                scope.spawn(move || (req_seed, submit_and_wait(server, req_seed)))
            };
            let submitters: Vec<_> = seeds.map(submit).collect();
            let joined = submitters.into_iter().map(|h| h.join());
            joined
                .map(|r| r.expect("submitter thread panicked"))
                .collect()
        });
        for (req_seed, outcome) in outcomes {
            served.extend(resolved(outcome).map(|resp| (req_seed, resp)));
        }
    }
    fault::init_from_value("off");
    assert!(
        probe::counter("drill.ok").get() > 0,
        "the clean final wave must serve at least one request"
    );
    for (req_seed, resp) in &served {
        assert_bit_identical(&registry, *req_seed, resp);
    }
    assert_ne!(
        server.health().status,
        HealthStatus::Failed,
        "no fault in the schedule can fail the server"
    );
    server.shutdown();
    object([])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn misses(row: Scenario) -> Vec<String> {
        let text = r#"{"scenario": "t",
            "counters": {"serve.enqueued": 12, "serve.shed": 0},
            "gauges": {"serve.queue_depth": {"value": 0, "peak": 1}},
            "hists": {"serve.e2e": {"count": 12}},
            "facts": {"demotions": 3, "health": {"status": "Healthy",
                      "scheduler_alive": true, "batch_panics": 0}}}"#;
        check_report(&serde_json::from_str(text).unwrap(), &row.checks)
    }

    #[test]
    fn a_matching_report_passes() {
        let row = row("t", drill_chaos)
            .counters([("serve.enqueued", 12)])
            .zero(["serve.shed"])
            .gauge("serve.queue_depth", 0, 1)
            .want(&["hists", "serve.e2e", "count"], 12)
            .fact("health", health("Healthy", true, 0))
            .fact("demotions", 3);
        assert_eq!(misses(row), Vec::<String>::new());
    }

    /// The checker can fail: a counter off by one, a missing gauge and
    /// a wrong health fact each produce a failure naming that key.
    #[test]
    fn each_kind_of_miss_is_named() {
        assert_eq!(
            misses(row("t", drill_chaos).counters([("serve.enqueued", 11)])),
            ["counters serve.enqueued: expected 11, got 12"]
        );
        let breaker = ["gauges", "serve.breaker_state.drill/conv", "value"];
        assert_eq!(
            misses(row("t", drill_chaos).want(&breaker, 0)),
            ["gauges serve.breaker_state.drill/conv value: expected 0, missing from the report"]
        );
        let degraded = row("t", drill_chaos).fact("health", health("Degraded", true, 0));
        let [miss] = &misses(degraded)[..] else {
            panic!("one wrong fact is one miss");
        };
        assert!(miss.starts_with(r#"facts health: expected {"status":"Degraded","#));
        assert!(miss.contains(r#"got {"status":"Healthy","#), "{miss}");
        // A value of the wrong type is a miss, not a coercion.
        assert_eq!(
            misses(row("t", drill_chaos).fact("demotions", false)),
            ["facts demotions: expected false, got 3"]
        );
    }

    /// A fact that reads differently in the other environment's report
    /// is a miss naming both values; one the other report lacks is too.
    #[test]
    fn agreement_with_another_report_is_checked_like_any_value() {
        let other = |facts: &str| {
            let text = format!(r#"{{"facts": {facts}}}"#);
            values_at(
                &serde_json::from_str(&text).unwrap(),
                &[vec!["facts", "demotions"]],
            )
        };
        let row = |checks| Scenario {
            checks,
            ..row("t", drill_chaos)
        };
        assert_eq!(
            misses(row(other(r#"{"demotions": 3}"#))),
            Vec::<String>::new()
        );
        assert_eq!(
            misses(row(other(r#"{"demotions": 4}"#))),
            ["facts demotions: expected 4, got 3"]
        );
        assert_eq!(
            misses(row(other("{}"))),
            ["facts demotions: expected null, got 3"]
        );
    }

    #[test]
    fn the_table_is_whole() {
        let table = scenarios();
        let mut names: Vec<_> = table.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "scenario names are unique");
        for s in &table {
            let known =
                |(var, _): &(&str, &str)| *var == THREADS || ENV_VARS.iter().any(|(v, _)| v == var);
            assert!(s.env.iter().all(known), "{}: not a drill variable", s.name);
            assert!(!s.checks.is_empty(), "{} expects nothing", s.name);
        }
        // Every drill has a row that arms nothing — except the breaker
        // drill, whose subject is the fault.
        for drill in ["guard/", "smoke/", "net-smoke/", "chaos/", "seeded/"] {
            let clean = |s: &Scenario| s.name.starts_with(drill) && s.env.is_empty();
            assert!(table.iter().any(clean), "{drill} has no clean row");
        }
        // Every env-var arming path stays a row: only a child process
        // exercises `init_from_env`. A fault site added later without a
        // row fails here.
        let sites = fault::SITES.map(|site| format!("{site}:"));
        let others = ["avx2", "avx512", "text:", "{tmp}/flight"];
        for armed in sites.iter().map(String::as_str).chain(others) {
            let arms = |s: &Scenario| s.env.iter().any(|(_, v)| v.contains(armed));
            assert!(table.iter().any(arms), "no row arms {armed}");
        }
    }
}
