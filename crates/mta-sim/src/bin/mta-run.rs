//! `mta-run` — assemble and execute a text assembly program on the
//! simulated Tera MTA.
//!
//! ```text
//! mta-run PROG.asm [--procs N] [--streams N] [--lookahead N] [--arg V]
//!                  [--empty ADDR]... [--dump ADDR..ADDR]
//! ```
//!
//! A bad flag, a missing or unparseable value, zero `--procs` or
//! `--streams`, or an `--empty`/`--dump` address outside memory prints
//! the usage line and exits 1. A run that times out exits 2.

use mta_sim::asm_text::assemble_text;
use mta_sim::{Machine, MtaConfig};
use std::str::FromStr;

const USAGE: &str = "usage: mta-run PROG.asm [--procs N] [--streams N] [--lookahead N] \
                     [--arg V] [--empty ADDR]... [--dump A..B]";

/// Print `msg` and the usage line, then exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("mta-run: {msg}\n{USAGE}");
    std::process::exit(1);
}

/// Parse `flag`'s value, failing on a missing or unparseable one.
fn value<T: FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        fail(&format!("{flag} needs a value"))
    };
    v.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {v:?}")))
}

/// Like [`value`], but zero is rejected too.
fn positive(flag: &str, v: Option<String>) -> usize {
    match value(flag, v) {
        0 => fail(&format!("{flag} must be at least 1")),
        n => n,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut cfg = MtaConfig::tera(1);
    let mut arg_val = 0u64;
    let mut empties: Vec<usize> = Vec::new();
    let mut dump: Option<(usize, usize)> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--procs" => cfg.n_processors = positive(&a, args.next()),
            "--streams" => cfg.streams_per_processor = positive(&a, args.next()),
            "--lookahead" => cfg.lookahead = value(&a, args.next()),
            "--arg" => arg_val = value(&a, args.next()),
            "--empty" => empties.push(value(&a, args.next())),
            "--dump" => {
                let spec: String = value(&a, args.next());
                let Some((lo, hi)) = spec.split_once("..") else {
                    fail(&format!("--dump: expected A..B, got {spec:?}"))
                };
                let lo = value(&a, Some(lo.to_string()));
                let hi = value(&a, Some(hi.to_string()));
                if lo > hi {
                    fail(&format!("--dump: empty range {spec}"));
                }
                dump = Some((lo, hi));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag {flag}")),
            p if path.is_none() => path = Some(p.to_string()),
            p => fail(&format!("unexpected argument {p}")),
        }
    }
    let Some(path) = path else {
        fail("no program given")
    };
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let program = match assemble_text(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}:{e}");
            std::process::exit(1);
        }
    };
    let mut m = Machine::new(cfg.clone(), program).unwrap_or_else(|e| fail(&e));
    for &a in &empties {
        m.memory()
            .check(a)
            .unwrap_or_else(|e| fail(&format!("--empty: {e}")));
        m.memory_mut().set_empty(a);
    }
    if let Some((_, hi)) = dump.filter(|&(lo, hi)| lo < hi) {
        m.memory()
            .check(hi - 1)
            .unwrap_or_else(|e| fail(&format!("--dump: {e}")));
    }
    m.spawn(0, arg_val).unwrap_or_else(|e| fail(&e));
    let r = m.run(10_000_000_000);
    let secs = match r.seconds(cfg.clock_mhz) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "cycles {} ({:.6} s at {} MHz) | instructions {} | utilization {:.1}% | forks {} | sync blocks {}",
        r.cycles,
        secs,
        cfg.clock_mhz,
        r.stats.instructions(),
        100.0 * r.utilization(),
        r.stats.threads.forks,
        r.stats.sync.blocked,
    );
    if r.deadlocked {
        println!("DEADLOCK: all live streams blocked on full/empty bits");
    }
    for f in &r.faults {
        println!("FAULT: {f}");
    }
    if let Some((a, b)) = dump {
        for addr in a..b {
            println!(
                "mem[{addr}] = {} (f64 {:e})",
                m.memory().load(addr),
                m.memory().load_f64(addr)
            );
        }
    }
    if !r.completed && !r.deadlocked {
        std::process::exit(2);
    }
}
