//! The FTC chain benchmark: deploys one workload, drives it from a single
//! generator thread, checks every released packet and the replicated
//! state, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload nat-read --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, timed by spans the benchmark records around its own
//! calls into each crate (see `NOTES.md`).

mod drive;
mod layers;
mod run;
mod stats;
mod trace;

use std::time::Duration;

/// The workloads, by command-line name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    NatRead,
    MonWrite,
    Failover,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "nat-read" => Some(Kind::NatRead),
            "mon-write" => Some(Kind::MonWrite),
            "failover" => Some(Kind::Failover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::NatRead => "nat-read",
            Kind::MonWrite => "mon-write",
            Kind::Failover => "failover",
        }
    }
}

pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: ftc-perfbench --workload nat-read|mon-write|failover \
                     --seed N --seconds S --trace 0|1";

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run::run(&opts) {
        Ok(r) => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            r.failed == 0,
            r.attempted,
            r.failed,
            r.metrics.json()
        ),
        Err(e) => {
            eprintln!("perfbench {}: {e}", opts.kind.name());
            std::process::exit(1);
        }
    }
}
