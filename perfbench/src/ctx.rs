//! What the code for each surface shares: the program binary, the
//! run's work directory, its stderr log and the failure tally.

use crate::proc;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct Ctx {
    /// The release `claire-cli` binary.
    pub cli: PathBuf,
    /// Scratch directory of this run (relative to the checkout root,
    /// so unix socket paths stay short).
    pub work: PathBuf,
    /// The program's stderr, appended across invocations.
    pub log: File,
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    pub tally: Tally,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// `claire-cli <args>`. Its temporary files (the serve flight
    /// recorder's dumps) go to the work directory.
    pub fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.cli);
        cmd.args(args).env("TMPDIR", &self.work);
        cmd
    }

    /// Runs `claire-cli <args>` to completion; a non-zero exit or a
    /// failure to spawn counts as a failed attempt.
    pub fn run(&mut self, args: &[&str]) -> Option<proc::Run> {
        match proc::run(self.command(args), &self.log) {
            Ok(r) if r.ok => {
                self.tally.ok();
                Some(r)
            }
            Ok(_) => {
                self.tally
                    .fail(format!("`{}` exited non-zero", args.join(" ")));
                None
            }
            Err(e) => {
                self.tally
                    .fail(format!("`{}` failed to run: {e}", args.join(" ")));
                None
            }
        }
    }
}

/// Attempted and failed operations. A failure is a non-zero exit, a
/// non-`ok` response, a missing or duplicate response, an id mismatch
/// or an output-check mismatch.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }

    /// Turns an already-counted attempt into a failure (an output
    /// check that failed after the invocation itself succeeded).
    pub fn mismatch(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }
}

/// Reads a JSON file the program wrote.
pub fn read_json(path: &Path) -> Option<serde::Value> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}
