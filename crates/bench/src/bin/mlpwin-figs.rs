//! Prints the paper's tables, figures, ablations and studies by name,
//! or with `--check` diffs each against `results/<name>.txt`; see
//! `mlpwin_bench::figs` for the flags. Exits 1 on a failed run, a usage
//! error, or any mismatch or missing golden.

use mlpwin_bench::figs::{self, FigsArgs};
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome = FigsArgs::parse_from(std::env::args().skip(1)).and_then(|args| {
        let mut out = io::BufWriter::new(io::stdout().lock());
        let passed = figs::run(&args, Path::new("results"), &mut out)?;
        out.flush()?;
        Ok(passed)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mlpwin-figs: {e}");
            ExitCode::FAILURE
        }
    }
}
