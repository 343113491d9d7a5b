//! `ppm` binary entry point.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match ppm_cli::run_to_stdout(&argv, std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("ppm: {err}");
            ExitCode::from(err.exit_code() as u8)
        }
    }
}
