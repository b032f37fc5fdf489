//! The repo benchmark: five workloads over the real-CPU stack.
//!
//! ```text
//! wino-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass of one workload (what the driver runs); the last line
//!     of stdout is the result object
//! wino-benchmark [--seed <n>] [--seconds <s>]
//!     all five workloads, untraced then traced, every metric printed
//! wino-benchmark --quick
//!     the same at 1/20 of the window: the benchmark's own smoke check
//! wino-benchmark --repeat <n>
//!     two sets of n untraced runs per workload; fails if an
//!     end-to-end median of the second set is worse than the first by
//!     more than its bound in BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what each metric means and which
//! end-to-end number each layer number should move.

mod gen;
mod machine;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use machine::Machine;
use report::{Outcome, END_TO_END, WORKLOADS};
use trace::Tracer;
use workloads::cold::ColdWorkload;
use workloads::conv::{ConvWorkload, Kind};
use workloads::net::NetWorkload;
use workloads::serve::ServeWorkload;
use workloads::Pass;

/// The timed window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per untraced run; their median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Busy time on every core before anything is measured.
const SPIN_UP_SECONDS: f64 = 1.0;
/// Variables that change what the stack does; the load shape assumes
/// them unset.
const ENV_KNOBS: [&str; 5] = [
    "WINO_THREADS",
    "WINO_SIMD",
    "WINO_TRACE",
    "WINO_METRICS",
    "WINO_FAULT",
];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.into_iter().find(|w| *w == name);
                args.workload =
                    Some(known.ok_or_else(|| {
                        format!("unknown workload {name:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=50).contains(&n) {
                    return Err("--repeat takes 2 to 50 runs per set".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Prepares `workload` and runs the passes asked for: untraced,
/// traced, or both on one set-up.
fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    untraced: bool,
    machine: Option<&Machine>,
) -> Vec<Outcome> {
    // Set-up spans (recipes, filter transforms, registration) belong
    // to the traced pass; a traced-only run needs no repetitions.
    let mut tracer = Tracer::new(machine.is_some());
    let mut off = Tracer::new(false);
    let reps = if untraced { setup_reps } else { 1 };
    let mut prepare = Pass {
        seed,
        seconds,
        setup_reps: reps,
        tracer: &mut tracer,
        machine,
    };
    let mut run: Box<dyn FnMut(&mut Pass<'_>) -> Outcome> = match workload {
        "conv_wino" => {
            let mut w = ConvWorkload::prepare(Kind::Wino, &mut prepare);
            Box::new(move |p| w.run(p))
        }
        "conv_gemm" => {
            let mut w = ConvWorkload::prepare(Kind::Gemm, &mut prepare);
            Box::new(move |p| w.run(p))
        }
        "net_infer" => {
            let mut w = NetWorkload::prepare(&mut prepare);
            Box::new(move |p| w.run(p))
        }
        "serve_open" => {
            let mut w = ServeWorkload::prepare(&mut prepare);
            Box::new(move |p| w.run(p))
        }
        "cold_start" => {
            let mut w = ColdWorkload::prepare(&mut prepare);
            Box::new(move |p| w.run(p))
        }
        other => unreachable!("{other} passed parse_args"),
    };
    let mut outcomes = Vec::new();
    if untraced {
        outcomes.push(run(&mut Pass {
            seed,
            seconds,
            setup_reps: reps,
            tracer: &mut off,
            machine: None,
        }));
    }
    if let Some(m) = machine {
        let mut out = run(&mut Pass {
            seed,
            seconds,
            setup_reps: reps,
            tracer: &mut tracer,
            machine: Some(m),
        });
        out.set("machine.fma_gflops", m.fma_gflops);
        out.set("machine.stream_gbps", m.stream_gbps);
        outcomes.push(out);
        match write_trace(workload, seed, &tracer) {
            Ok(path) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write the trace file: {e}"),
        }
    }
    outcomes
}

fn write_trace(workload: &str, seed: u64, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload, seed))?;
    Ok(path)
}

fn print_outcome(out: &Outcome) {
    println!(
        "== {} ({}): attempted {} failed {} correct {}",
        out.workload,
        if out.traced {
            "traced, per-layer metrics"
        } else {
            "untraced, end-to-end metrics"
        },
        out.attempted,
        out.failed,
        out.correct(),
    );
    print!("{}", out.table());
    for note in &out.notes {
        println!("{note}");
    }
}

fn print_environment() {
    println!(
        "environment: simd={} pool_threads={} cores={}",
        wino_gemm::simd_level().name(),
        wino_runtime::Runtime::global().threads(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for knob in ENV_KNOBS {
        if let Ok(v) = std::env::var(knob) {
            println!("environment: {knob}={v} is set; the benchmark's load shape assumes it unset");
        }
    }
}

/// All five workloads in one process, untraced then traced.
fn run_all(args: &Args) -> bool {
    let (seconds, reps) = if args.quick {
        (args.seconds / 20.0, 1)
    } else {
        (args.seconds, SETUP_REPS)
    };
    let machine = Machine::probe();
    println!("{}", machine.describe());
    let mut ok = true;
    for workload in WORKLOADS {
        for out in run_workload(workload, args.seed, seconds, reps, true, Some(&machine)) {
            print_outcome(&out);
            println!("{}", out.result_line());
            ok &= out.correct();
        }
    }
    ok
}

/// Regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(serde_json::Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    END_TO_END
        .iter()
        .map(|(name, _, _)| {
            let entry = metrics
                .iter()
                .find(|m| m.get("name") == Some(&serde_json::Value::Str(name.to_string())));
            match entry.and_then(|m| m.get("bound")) {
                Some(serde_json::Value::Float(b)) => Ok(*b),
                Some(serde_json::Value::Int(b)) => Ok(*b as f64),
                _ => Err(format!("{path}: no bound for {name}")),
            }
        })
        .collect()
}

/// Two sets of `n` untraced runs per workload, each run on its own
/// seed. Prints every run, each set's median and spread, and fails
/// when the second median is worse than the first by more than the
/// metric's bound.
fn run_repeat(args: &Args, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for set in 0..2 {
            let mut values = vec![Vec::new(); END_TO_END.len()];
            for i in 0..n {
                let seed = args.seed + (set * n + i) as u64;
                let out =
                    run_workload(workload, seed, args.seconds, SETUP_REPS, true, None).remove(0);
                println!("{workload} set {set} seed {seed}: {}", out.result_line());
                ok &= out.correct();
                for (v, (name, _, _)) in values.iter_mut().zip(END_TO_END) {
                    v.push(out.get(name).unwrap_or(0.0));
                }
            }
            sets.push(values);
        }
        for (m, ((name, unit, lower_better), bound)) in
            END_TO_END.into_iter().zip(&bounds).enumerate()
        {
            let (a, b) = (stats::median(&sets[0][m]), stats::median(&sets[1][m]));
            let worse = if a == 0.0 {
                0.0
            } else if lower_better {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let verdict = if worse > *bound { "REGRESSED" } else { "ok" };
            ok &= worse <= *bound;
            println!(
                "{workload:<11} {name:<15} median {a:.4} -> {b:.4} {unit}  worse by {:+.2}% (bound {:.0}%)  spread {:.2}% / {:.2}%  {verdict}",
                100.0 * worse,
                100.0 * bound,
                100.0 * stats::relative_iqr(&sets[0][m]),
                100.0 * stats::relative_iqr(&sets[1][m]),
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wino-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    print_environment();
    machine::spin_up(SPIN_UP_SECONDS);
    if let Some(n) = args.repeat {
        return match run_repeat(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("wino-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        return if run_all(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    // One pass of one workload; the result object is the last line.
    let machine = args.trace.then(Machine::probe);
    if let Some(m) = &machine {
        println!("{}", m.describe());
    }
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let out = run_workload(
        workload,
        args.seed,
        args.seconds,
        reps,
        !args.trace,
        machine.as_ref(),
    )
    .remove(0);
    print_outcome(&out);
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
