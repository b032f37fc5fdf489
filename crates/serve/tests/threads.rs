//! The server runs exactly the threads it serves with: one executor
//! per configured slot, nothing scheduling or watching them, and none
//! of them left after shutdown — with metrics armed too. Its own test
//! binary, so no other server shares the process.

use std::time::{Duration, Instant};

use wino_probe::metrics::{self, MetricsMode};
use wino_serve::{PlanRegistry, Server, ServerConfig};

const SERVING: [&str; 2] = ["wino-exec0", "wino-exec1"];

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

fn count(names: &[String], name: &str) -> usize {
    names.iter().filter(|n| *n == name).count()
}

/// The thread names once `settled` holds for them, or after a bounded
/// wait. A spawned thread names itself after it starts, and a joined
/// one leaves the task list when the kernel reaps it, just after the
/// join returns; neither is the server's doing.
fn names_once(settled: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        if settled(&names) || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn the_server_runs_its_executors_and_nothing_else() {
    // Armed metrics are emitted at shutdown and rendered on demand,
    // never from a `wino-metrics` thread of their own.
    for mode in [MetricsMode::Off, MetricsMode::Summary] {
        metrics::set_mode(mode.clone());
        // Counted, not only named: a thread names itself after it
        // starts, but it is in the task list once its spawn returns.
        let before = thread_names().len();
        let registry = std::sync::Arc::new(PlanRegistry::new());
        let server = Server::start(
            registry,
            ServerConfig {
                executors: 2,
                ..ServerConfig::default()
            },
        );
        let names = names_once(|names| SERVING.iter().all(|s| count(names, s) == 1));
        for name in SERVING {
            assert_eq!(count(&names, name), 1, "{name} in {names:?} ({mode:?})");
        }
        assert_eq!(
            names.len(),
            before + SERVING.len(),
            "threads beyond {SERVING:?} in {names:?} ({mode:?})"
        );
        server.shutdown();
        let names = names_once(|names| SERVING.iter().all(|s| count(names, s) == 0));
        for name in SERVING {
            assert_eq!(
                count(&names, name),
                0,
                "{name} outlived shutdown: {names:?} ({mode:?})"
            );
        }
    }
    metrics::set_mode(MetricsMode::Off);
}
