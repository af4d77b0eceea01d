//! Prints the paper's evaluation from one run of the full-length study
//! (~20 s on 2 vCPUs):
//!
//! ```text
//! report [--plot] [--csv DIR] [SECTION...]
//! ```
//!
//! * `SECTION`: `headlines`, `table1`–`table4` or `fig2`–`fig5`, printed
//!   in the order given; all of them by default. `table1` and `table2`
//!   need no study, and alone they run none.
//! * `--plot`: add ASCII charts to Figures 2, 3 and 5.
//! * `--csv DIR`: also write `apps.csv`, `worst_case.csv` and `nodes.csv`.
//!
//! Exit codes: 0 = printed, 1 = the study failed or lacks a result a
//! section prints, 2 = usage error.

use ramp_bench::report::Section;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Default, PartialEq)]
struct Args {
    plot: bool,
    csv: Option<PathBuf>,
    sections: Vec<Section>,
}

fn usage() -> String {
    let names = Section::ALL.map(Section::name).join(" ");
    format!("usage: report [--plot] [--csv DIR] [SECTION...]\nsections: {names}")
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plot" => parsed.plot = true,
            "--csv" => match it.next() {
                Some(dir) if !dir.starts_with("--") => parsed.csv = Some(dir.into()),
                _ => return Err("--csv needs a directory".into()),
            },
            name => parsed
                .sections
                .push(Section::from_name(name).ok_or(format!("unknown section {name:?}"))?),
        }
    }
    if parsed.sections.is_empty() {
        parsed.sections = Section::ALL.to_vec();
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<String, ramp_core::RampError> {
    let results = if args.csv.is_some() || args.sections.iter().any(|s| s.needs_study()) {
        Some(ramp_bench::run_full_study()?)
    } else {
        None
    };
    if let (Some(dir), Some(results)) = (&args.csv, &results) {
        results.write_csv(dir)?;
        ramp_obs::info!(
            "wrote apps.csv / worst_case.csv / nodes.csv to {}",
            dir.display()
        );
    }
    let sections = args
        .sections
        .iter()
        .map(|s| s.render(results.as_ref(), args.plot));
    Ok(sections.collect::<Result<Vec<_>, _>>()?.join("\n"))
}

fn main() -> ExitCode {
    ramp_bench::init_obs();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("report: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sections_keep_their_order_and_default_to_all() {
        let args = parse(&["fig4", "--csv", "out", "table2"]).unwrap();
        assert_eq!(args.sections, [Section::Fig4, Section::Table2]);
        assert_eq!(args.csv, Some(PathBuf::from("out")));
        assert_eq!(parse(&["--plot"]).unwrap().sections, Section::ALL);
    }

    #[test]
    fn unknown_sections_and_a_bare_csv_are_usage_errors() {
        assert!(parse(&["fig4", "study"]).unwrap_err().contains("\"study\""));
        assert!(parse(&["--fresh"]).is_err());
        assert!(parse(&["--csv"]).unwrap_err().contains("--csv"));
        assert!(parse(&["--csv", "--plot"]).is_err());
        assert!(usage().ends_with("headlines table1 table2 table3 table4 fig2 fig3 fig4 fig5"));
    }
}
