//! The repository benchmark: drives the resident engine (`kcz-engine`)
//! and its serving front (`kcz-serve`) from outside, through their
//! public calls, on four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|publish_batch|publish_trickle|serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with metrics disabled in
//! the program.  `--trace 1` spends half the time untraced and half
//! traced and reports the per-layer metrics of the traced half: the
//! engine and serving front bound to a live `kcz_obs` registry, plus the
//! benchmark's own timers around public calls.  The engine runs on the
//! client thread alone (see [`single_threaded_pool`]).  Every run checks the
//! program's outputs and counts failed ops.  The last line of standard
//! output is the JSON result; `catalog.json` beside this package says
//! what each metric measures and what should move it.

mod checks;
mod gauge;
mod hist;
mod inputs;
mod report;
mod run;

use run::{measure, Workload, SEGMENTS};

const USAGE: &str = "usage: kcz-perfbench --workload <ingest|publish_batch|publish_trickle|serve> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Sizes the engine's shared pool while this thread may run on one CPU
/// only, so the pool gets no workers and every engine call runs on the
/// client thread; then lets the thread run on all its CPUs again.
fn single_threaded_pool() {
    let mut mask = [0u8; 128];
    // SAFETY: both calls read or write exactly `mask.len()` bytes of
    // `mask`, a live local buffer the size of glibc's cpu_set_t.
    unsafe {
        assert_eq!(sched_getaffinity(0, mask.len(), mask.as_mut_ptr()), 0);
        let first = mask.iter().position(|&b| b != 0).expect("some CPU");
        let mut one = [0u8; 128];
        one[first] = 1 << mask[first].trailing_zeros();
        assert_eq!(sched_setaffinity(0, one.len(), one.as_ptr()), 0);
        kcz_engine::global();
        assert_eq!(sched_setaffinity(0, mask.len(), mask.as_ptr()), 0);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("kcz-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    single_threaded_pool();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={:?} seed={} seconds={} trace={} cpus={} pool_workers={} client_threads=1",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        cpus,
        kcz_engine::global().threads()
    );
    let mut ops = checks::Ops::default();
    let metrics = if args.trace {
        let half = args.seconds / 2.0;
        let segments = SEGMENTS / 2;
        let plain = measure(args.workload, args.seed, half, segments, false, &mut ops);
        let traced = measure(args.workload, args.seed, half, segments, true, &mut ops);
        report::per_layer(&plain, &traced)
    } else {
        let run = measure(
            args.workload,
            args.seed,
            args.seconds,
            SEGMENTS,
            false,
            &mut ops,
        );
        let mut paces: Vec<f64> = run.segments.iter().map(|(_, pace)| *pace).collect();
        paces.sort_by(f64::total_cmp);
        println!(
            "# host pace per segment (gauge reading / nominal): min {:.3} median {:.3} max {:.3}",
            paces[0],
            paces[paces.len() / 2],
            paces[paces.len() - 1]
        );
        report::end_to_end(&run)
    };
    report::print(&metrics, &ops);
}
