//! `perfbench`: run one workload and print its metrics.
//!
//! ```text
//! perfbench --workload cold_analyze|vm_run --seed N --seconds S
//!           --trace 0|1 --cli PATH --work DIR
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exit code 0 means every answer and
//! purity check passed, 1 that one failed, 2 that the run could not be made.

use adds_perfbench::report::Outcome;
use adds_perfbench::{cold, vm, Ctx};
use std::path::PathBuf;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(150);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parsed = (|| {
        let workload = get("--workload")?;
        let seed = get("--seed")?.parse().ok()?;
        let seconds: f64 = get("--seconds")?.parse().ok()?;
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => None?,
        };
        let ctx = Ctx {
            cli: PathBuf::from(get("--cli")?),
            work: PathBuf::from(get("--work")?),
            seed,
            seconds: Duration::try_from_secs_f64(seconds).ok()?,
            trace,
        };
        Some((workload, ctx))
    })();
    let Some((workload, ctx)) = parsed else {
        eprintln!(
            "usage: perfbench --workload cold_analyze|vm_run --seed N \
             --seconds S --trace 0|1 --cli PATH --work DIR"
        );
        std::process::exit(2);
    };
    let run = match workload.as_str() {
        "cold_analyze" => cold::run,
        "vm_run" => vm::run,
        other => {
            eprintln!("unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("cannot create {}: {e}", ctx.work.display());
        std::process::exit(2);
    }
    // A run must end well inside the caller's time limit, printing no
    // result when it does not.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: watchdog: the run exceeded {} s",
            WATCHDOG.as_secs()
        );
        std::process::exit(2);
    });
    let mut out = Outcome::default();
    let result = run(&ctx, &mut out);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = result {
        eprintln!("{workload}: {e}");
        std::process::exit(2);
    }
    print!("{}", out.render(&workload, ctx.seed, ctx.trace));
    std::process::exit(if out.correct() { 0 } else { 1 });
}
