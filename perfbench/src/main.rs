//! `perfbench`: one command runs any named workload against a 3-node
//! TCP cluster and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --sweep [--seed <n>] [--seconds <s per rate>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use perfbench::cluster::{self, Client, Load, Phase, Workload};
use perfbench::layers;
use perfbench::run::{self, Metric};
use perfbench::sys::quantile;

/// Working files, relative to the working directory.
const WORK_ROOT: &str = ".perfbench";
/// A run still going this long after its measured window is stuck (a
/// wedged cluster can block `WireCluster::kill` forever): exit non-zero
/// instead of hanging. Set-up, warm-up, verification and the failover
/// episodes take well under a minute on a healthy cluster.
const WATCHDOG_SLACK: StdDuration = StdDuration::from_secs(130);

/// Exits the process with an error if it is still running after `limit`.
fn watchdog(limit: StdDuration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: still running after {limit:?}; giving up");
        std::process::exit(3);
    });
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--sweep" => args.sweep = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(WORK_ROOT).join(format!("{tag}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.sweep {
        return sweep(&args);
    }
    let all = cluster::workloads();
    let Some(name) = args.workload.as_deref() else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload is required (one of {names:?})");
        return ExitCode::from(2);
    };
    let Some(w) = all.iter().find(|w| w.name == name) else {
        eprintln!("perfbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    watchdog(StdDuration::from_secs_f64(args.seconds) + WATCHDOG_SLACK);
    let data = match run::run(w, args.seed, args.seconds, args.trace, &work_dir(name)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {name} seed {}: {e}", args.seed);
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        let spans = PathBuf::from(WORK_ROOT)
            .join("out")
            .join(format!("{name}-seed{}.spans.tsv", args.seed));
        layers::per_layer(&data, Some(&spans))
    } else {
        run::end_to_end(&data)
    };
    let shown = if args.trace {
        Vec::new()
    } else {
        run::speed(&data)
    };
    for m in metrics.iter().chain(&shown) {
        eprintln!("{:<34} {:>14.3} {}", m.name, m.value, m.unit);
    }
    let (attempted, failed) = (data.attempted, data.failed);
    let correct = data.violations.is_empty();
    for v in &data.violations {
        eprintln!("perfbench: VIOLATION: {v}");
    }
    if !correct {
        eprintln!(
            "perfbench: measured cluster saw {} agreed-leader changes and re-sent {} commands",
            data.client.leader_changes, data.client.retries
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Offered rates of the knee sweep, ops/s.
const SWEEP_RATES: [f64; 6] = [5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 60_000.0];
/// Latency limit of the sweep: p99 over all commands of a step.
const SWEEP_P99_LIMIT_US: f64 = 2_000.0;

/// One rate of the knee sweep.
struct SweepStep {
    rate: f64,
    answered_per_s: f64,
    p99_us: f64,
    in_flight_mid: usize,
    in_flight_end: usize,
}

impl SweepStep {
    /// Whether the step met the latency limit without a growing backlog
    /// (in flight at its end at most twice its midpoint's, plus 64).
    fn holds(&self) -> bool {
        self.p99_us <= SWEEP_P99_LIMIT_US && self.in_flight_end <= 2 * self.in_flight_mid + 64
    }
}

/// Runs every rate of the sweep on one `mixed-s4-open` cluster.
fn sweep_steps(args: &Args, dir: &std::path::Path) -> Result<Vec<SweepStep>, String> {
    let base = cluster::workloads()
        .into_iter()
        .find(|w| w.name == "mixed-s4-open")
        .expect("the mixed workload exists");
    let epoch = StdInstant::now();
    let mut cl = cluster::spawn(&base, dir, None)?;
    let mut client = Client::new(&base, epoch, args.seed);
    client.await_leader(&cl, StdDuration::from_secs(20))?;
    // Leases and groups settle before the first step is timed.
    let warm = StdInstant::now() + StdDuration::from_secs(1);
    client.run_load(&mut cl, &base, Phase::Warmup, warm, None);
    client.drain(&cl, StdDuration::from_secs(30))?;
    let step = StdDuration::from_secs_f64(args.seconds);
    let mut steps = Vec::new();
    for rate in SWEEP_RATES {
        let w = Workload {
            load: Load::Open {
                rate,
                read_frac: 0.9,
            },
            ..base
        };
        client.reset_schedule();
        let first = client.cmds.len();
        let start = StdInstant::now();
        let t0 = client.now();
        client.run_load(&mut cl, &w, Phase::Window, start + step / 2, None);
        let in_flight_mid = client.in_flight();
        client.run_load(&mut cl, &w, Phase::Window, start + step, None);
        let in_flight_end = client.in_flight();
        let t1 = client.now();
        client.drain(&cl, StdDuration::from_secs(30))?;
        let drained = client.now();
        let cmds = &client.cmds[first..];
        let mut lat: Vec<u64> = cmds.iter().map(|r| run::latency(r, drained)).collect();
        lat.sort_unstable();
        let answered = cmds.iter().filter(|r| r.reply > 0 && r.reply < t1).count();
        let s = SweepStep {
            rate,
            answered_per_s: answered as f64 / ((t1 - t0) as f64 / 1e9),
            p99_us: quantile(&lat, 0.99).unwrap_or(0) as f64 / 1e3,
            in_flight_mid,
            in_flight_end,
        };
        eprintln!(
            "rate {:>8.0}/s  answered {:>9.0}/s  p99 {:>9.1} us  in flight mid {:>6} end {:>6}",
            s.rate, s.answered_per_s, s.p99_us, s.in_flight_mid, s.in_flight_end
        );
        steps.push(s);
    }
    cl.stop();
    Ok(steps)
}

/// Steps `mixed-s4-open` through fixed rates on one cluster and prints
/// the highest rate whose p99 meets [`SWEEP_P99_LIMIT_US`] without a
/// growing backlog. Ungated: for locating the knee by hand.
fn sweep(args: &Args) -> ExitCode {
    let dir = work_dir("sweep");
    let result = sweep_steps(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(steps) => {
            let knee = steps
                .iter()
                .filter(|s| s.holds())
                .map(|s| s.rate)
                .fold(0.0, f64::max);
            let rows: Vec<String> = steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"rate\": {}, \"answered_per_s\": {}, \"p99_us\": {}, \"in_flight_mid\": {}, \"in_flight_end\": {}}}",
                        s.rate, s.answered_per_s, s.p99_us, s.in_flight_mid, s.in_flight_end
                    )
                })
                .collect();
            println!(
                "{{\"p99_limit_us\": {SWEEP_P99_LIMIT_US}, \"knee_ops_s\": {knee}, \"steps\": [{}]}}",
                rows.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: sweep: {e}");
            ExitCode::from(1)
        }
    }
}
