//! Exact gate over versioned `BENCH_<seq>.json` snapshots: the results,
//! population and alloc stage digests must match, and the peak live heap
//! must stay within its budget. It measures no time.
//!
//! ```text
//! benchgate --update                 # run and append BENCH_<next>.json
//! benchgate --against BENCH_0010.json # gate this tree against a baseline
//! benchgate                          # gate against the latest snapshot
//! ```
//!
//! Flags:
//!
//! * `--against <file>` — baseline snapshot to gate against.
//! * `--update` — append a new snapshot instead of gating.
//! * `--dir <path>` — snapshot directory (default: current directory).
//! * `--emit <file>` — also write the candidate snapshot (CI artifact).
//!
//! Exit codes: 0 = gate passed (or snapshot written), 1 = gate failed
//! (drift report on stdout), 2 = usage or I/O error.

use ramp_bench::telemetry::{
    compare, latest_snapshot, load_snapshot, next_seq, reference_workload, render_report,
    run_harness, save_snapshot, snapshot_file_name, FLEET_CHIPS,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    against: Option<PathBuf>,
    update: bool,
    dir: PathBuf,
    emit: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        against: None,
        update: false,
        dir: PathBuf::from("."),
        emit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--against" => args.against = Some(PathBuf::from(value("--against")?)),
            "--update" => args.update = true,
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--emit" => args.emit = Some(PathBuf::from(value("--emit")?)),
            other => return Err(format!("unknown flag {other:?} (see the module docs)")),
        }
    }
    if args.update && args.against.is_some() {
        return Err("--update and --against are mutually exclusive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "benchgate: running the reference workload, a {FLEET_CHIPS}-chip fleet and the alloc pass..."
    );
    let (mut candidate, _) = match run_harness(&reference_workload()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "benchgate: results digest {}, population digest {}, alloc digest {} ({} allocs)",
        candidate.numerics.results_digest,
        candidate.fleet.population_digest,
        candidate.alloc.stage_digest,
        candidate.alloc.allocs,
    );

    if let Some(path) = &args.emit {
        if let Err(e) = save_snapshot(&candidate, path) {
            eprintln!("benchgate: --emit: {e}");
            return ExitCode::from(2);
        }
        eprintln!("benchgate: candidate snapshot written to {}", path.display());
    }

    if args.update {
        let seq = next_seq(&args.dir);
        let path = args.dir.join(snapshot_file_name(seq));
        candidate.seq = seq;
        if let Err(e) = save_snapshot(&candidate, &path) {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
        println!("benchgate: baseline written to {}", path.display());
        return ExitCode::SUCCESS;
    }

    let baseline_path = match &args.against {
        Some(p) => p.clone(),
        None => match latest_snapshot(&args.dir) {
            Some((_, p)) => p,
            None => {
                eprintln!(
                    "benchgate: no BENCH_*.json in {}; create one with --update",
                    args.dir.display()
                );
                return ExitCode::from(2);
            }
        },
    };
    let baseline = match load_snapshot(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };

    let report = compare(&baseline, &candidate);
    print!("{}", render_report(&report));
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
