//! Simulator goldens: `Machine::run` on a fixed set of cases must
//! reproduce the lines pinned in `tests/goldens/run.txt` exactly — cycle
//! count, completed/deadlocked flags, fault count, an FNV-1a digest of the
//! whole `RunResult` (every `SimStats` counter and the fault list in
//! order), and an FNV-1a digest of the final memory image (every word and
//! its full/empty bit).
//!
//! The cases are the kernel corpus (incl. mem stride 1 and 64),
//! lookahead, timeout and soft-spawn runs, a deadlock spread across
//! processors, a divide-by-zero fault, and a fixed-seed random-program
//! fuzz smoke. On a mismatch the test prints the line the run actually
//! produced.

use mta_sim::ir::{Instr, Program};
use mta_sim::kernels::{
    alu_kernel, chunked_scan_kernel, mem_kernel, mixed_kernel, pipeline_kernel, ray_sweep_kernel,
    reduce_kernel, vector_add_kernel,
};
use mta_sim::{Machine, MtaConfig};
use std::collections::BTreeSet;

const GOLDENS: &str = include_str!("goldens/run.txt");

const MAX: u64 = 50_000_000;

/// A small-memory Tera config so the memory digest stays cheap.
fn cfg(n_processors: usize) -> MtaConfig {
    MtaConfig {
        mem_words: 1 << 16,
        ..MtaConfig::tera(n_processors)
    }
}

/// One pinned run: a program on a config, with a memory setup applied
/// before the main stream is spawned at pc 0.
struct Case {
    label: String,
    cfg: MtaConfig,
    program: Program,
    max_cycles: u64,
    setup: Box<dyn Fn(&mut Machine)>,
}

fn case(
    label: impl Into<String>,
    cfg: MtaConfig,
    program: Program,
    max_cycles: u64,
    setup: impl Fn(&mut Machine) + 'static,
) -> Case {
    Case {
        label: label.into(),
        cfg,
        program,
        max_cycles,
        setup: Box::new(setup),
    }
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

impl Case {
    /// Run the case and render its golden line.
    fn run(&self) -> (mta_sim::RunResult, String) {
        let mut m =
            Machine::new(self.cfg.clone(), self.program.clone()).expect("machine must validate");
        (self.setup)(&mut m);
        m.spawn(0, 0).expect("spawn main stream");
        let r = m.run(self.max_cycles);
        let mut result = 0xcbf2_9ce4_8422_2325;
        for b in format!("{r:?}").bytes() {
            fnv(&mut result, u64::from(b));
        }
        let mut mem = 0xcbf2_9ce4_8422_2325;
        for addr in 0..m.memory().len() {
            fnv(&mut mem, m.memory().load(addr));
            fnv(&mut mem, u64::from(m.memory().is_full(addr)));
        }
        let line = format!(
            "{} cycles={} completed={} deadlocked={} faults={} result={result:016x} memory={mem:016x}",
            self.label,
            r.cycles,
            r.completed,
            r.deadlocked,
            r.faults.len()
        );
        (r, line)
    }
}

/// The pinned line for `label`.
fn golden(label: &str) -> Option<&'static str> {
    GOLDENS
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label))
}

/// Run every case; fail listing the actual line of each mismatch.
/// Returns the results, in case order.
fn check(cases: &[Case]) -> Vec<mta_sim::RunResult> {
    let mut bad = Vec::new();
    let mut results = Vec::new();
    for c in cases {
        let (r, line) = c.run();
        if golden(&c.label) != Some(line.as_str()) {
            bad.push(line);
        }
        results.push(r);
    }
    assert!(
        bad.is_empty(),
        "runs differ from goldens/run.txt; actual lines:\n{}",
        bad.join("\n")
    );
    results
}

fn corpus_cases() -> Vec<Case> {
    let mut cases = vec![case("alu", cfg(2), alu_kernel(8, 40), MAX, |_| {})];
    // stride 1 spreads banks; stride == n_banks hot-banks one of them.
    for stride in [1, 64] {
        cases.push(case(
            format!("mem_stride{stride}"),
            cfg(2),
            mem_kernel(6, 20, stride, 2048),
            MAX,
            |_| {},
        ));
    }
    cases.push(case(
        "mixed",
        cfg(4),
        mixed_kernel(12, 15, 4, 4096),
        MAX,
        |_| {},
    ));
    let (program, layout) = vector_add_kernel(48, 6);
    cases.push(case("vector_add", cfg(2), program, MAX, move |m| {
        for i in 0..layout.n {
            m.memory_mut().store_f64(layout.a_base + i, i as f64 * 0.5);
            m.memory_mut()
                .store_f64(layout.b_base + i, 100.0 - i as f64);
        }
    }));
    let (program, layout) = reduce_kernel(40, 5);
    cases.push(case("reduce", cfg(2), program, MAX, move |m| {
        for i in 0..layout.n {
            m.memory_mut()
                .store(layout.data_base + i, (i * 7 + 3) as u64);
        }
    }));
    // Producer/consumer chains over full/empty words: the sync-heavy case.
    let (program, layout) = pipeline_kernel(4, 12);
    cases.push(case("pipeline", cfg(2), program, MAX, move |m| {
        for c in 0..=layout.stages {
            m.memory_mut().set_empty(layout.chan_base + c);
        }
    }));
    let (program, layout) = chunked_scan_kernel(10, 6, 4);
    cases.push(case("chunked_scan", cfg(2), program, MAX, move |m| {
        for p in 0..layout.n_pairs {
            let start = (p % 3) as u64;
            let end = if p % 2 == 0 { start + 2 } else { start };
            m.memory_mut().store(layout.windows_base + 2 * p, start);
            m.memory_mut().store(layout.windows_base + 2 * p + 1, end);
        }
    }));
    let (program, layout) = ray_sweep_kernel(6, 8, 4);
    cases.push(case("ray_sweep", cfg(2), program, MAX, move |m| {
        for r in 0..layout.n_rays {
            for k in 0..layout.len {
                let v = ((r * 13 + k * 7) % 31) as f64 - 15.0;
                m.memory_mut()
                    .store_f64(layout.slopes_base + r * layout.len + k, v);
            }
        }
    }));
    cases
}

/// Lookahead > 1 exercises the scoreboard gate's reschedule path.
fn lookahead_cases() -> Vec<Case> {
    let mut c = cfg(2);
    c.lookahead = 4;
    vec![case(
        "lookahead",
        c,
        mem_kernel(6, 20, 1, 2048),
        MAX,
        |_| {},
    )]
}

/// A budget that expires mid-run: the (clamped) cycle count and the
/// partial statistics are pinned.
fn timeout_cases() -> Vec<Case> {
    [100, 1_000, 5_000]
        .into_iter()
        .map(|max| {
            case(
                format!("timeout{max}"),
                cfg(2),
                alu_kernel(8, 10_000),
                max,
                |_| {},
            )
        })
        .collect()
}

/// More forked workers than hardware contexts: forks overflow into the
/// pending-thread queue and soft-spawn onto freed slots.
fn soft_spawn_cases() -> Vec<Case> {
    let mut c = cfg(2);
    c.streams_per_processor = 3;
    vec![case("soft_spawn", c, alu_kernel(12, 25), MAX, |_| {})]
}

/// Main forks four workers (round-robin over both processors); worker
/// `id` then runs `tail`.
fn fork_four(tail: impl FnOnce(&mut mta_sim::asm::Assembler)) -> Program {
    let mut a = mta_sim::asm::Assembler::new();
    a.li(2, 0);
    a.li(3, 4);
    a.label("spawn");
    a.bge_l(2, 3, "spawned");
    a.fork_l("work", 2);
    a.addi(2, 2, 1);
    a.jmp_l("spawn");
    a.label("spawned");
    a.halt();
    a.label("work");
    tail(&mut a);
    a.assemble().expect("program assembles")
}

/// Every stream parked on a full/empty bit, spread over both processors.
fn deadlock_cases() -> Vec<Case> {
    let program = fork_four(|a| {
        a.li(4, 1000);
        a.add(4, 4, 1); // worker `id` waits on word 1000 + id ...
        a.load_sync(5, 4, 0); // ... which stays empty forever: deadlock.
        a.halt();
    });
    vec![case("deadlock", cfg(2), program, MAX, |m| {
        for addr in 1000..1004 {
            m.memory_mut().set_empty(addr);
        }
    })]
}

/// Worker id 0 divides by its own id: one stream faults, others finish.
fn fault_cases() -> Vec<Case> {
    let program = fork_four(|a| {
        a.li(4, 100);
        a.div(5, 4, 1); // id 0 => divide by zero fault
        a.halt();
    });
    vec![case("div_fault", cfg(2), program, MAX, |_| {})]
}

#[test]
fn kernel_corpus() {
    check(&corpus_cases());
}

#[test]
fn lookahead() {
    check(&lookahead_cases());
}

#[test]
fn timeout() {
    check(&timeout_cases());
}

#[test]
fn soft_spawn() {
    check(&soft_spawn_cases());
}

#[test]
fn deadlock_across_processors() {
    let r = &check(&deadlock_cases())[0];
    assert!(r.deadlocked && !r.completed, "must deadlock: {r:?}");
    assert!(
        r.stats
            .streams
            .peak_live_per_processor
            .iter()
            .filter(|&&n| n > 0)
            .count()
            >= 2,
        "deadlocked streams must span at least two processors: {:?}",
        r.stats.streams.peak_live_per_processor
    );
}

#[test]
fn divide_by_zero_fault() {
    let r = &check(&fault_cases())[0];
    assert_eq!(r.faults.len(), 1, "{:?}", r.faults);
    assert!(r.faults[0].contains("divide by zero"), "{:?}", r.faults);
}

#[test]
fn fuzz_smoke() {
    check(&fuzz_cases());
}

#[test]
fn goldens_and_cases_match_one_to_one() {
    let cases: BTreeSet<String> = [
        corpus_cases(),
        lookahead_cases(),
        timeout_cases(),
        soft_spawn_cases(),
        deadlock_cases(),
        fault_cases(),
        fuzz_cases(),
    ]
    .into_iter()
    .flatten()
    .map(|c| c.label)
    .collect();
    let pinned: Vec<&str> = GOLDENS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let unique: BTreeSet<String> = pinned.iter().map(|s| s.to_string()).collect();
    assert_eq!(unique.len(), pinned.len(), "duplicate golden labels");
    assert_eq!(unique, cases, "golden labels must match the case labels");
}

// ───────────────────────── fixed-seed fuzz smoke ─────────────────────────

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but structurally valid program: branch targets stay in range,
/// memory traffic lands in a small shared region with a few words left
/// empty, and forks/syncs/divides are all on the menu — so runs exercise
/// completion, timeout, deadlock, and faults.
fn random_program(rng: &mut XorShift, len: usize) -> Program {
    let mut code = Vec::with_capacity(len);
    for i in 0..len {
        // Destinations skip r0 (read-only); sources may use it.
        let rd = |rng: &mut XorShift| 1 + rng.below(7) as u8;
        let r = |rng: &mut XorShift| rng.below(8) as u8;
        let target = |rng: &mut XorShift| rng.below(len as u64) as usize;
        // Addresses land in [1000, 1032): overlapping streams contend on
        // data words and full/empty bits.
        let offset = |rng: &mut XorShift| 1000 + rng.below(32) as i64;
        let instr = match rng.below(20) {
            0 => Instr::Li {
                rd: rd(rng),
                imm: rng.below(64) as i64 - 8,
            },
            1 => Instr::Add {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            2 => Instr::Addi {
                rd: rd(rng),
                ra: r(rng),
                imm: rng.below(16) as i64 - 8,
            },
            3 => Instr::Mul {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            4 => Instr::Div {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            5 => Instr::Slt {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            6 => Instr::FAdd {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            7 => Instr::Jmp {
                target: target(rng),
            },
            8 => Instr::Beq {
                ra: r(rng),
                rb: r(rng),
                target: target(rng),
            },
            9 => Instr::Bne {
                ra: r(rng),
                rb: r(rng),
                target: target(rng),
            },
            10 | 11 => Instr::Load {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            12 | 13 => Instr::Store {
                rs: r(rng),
                base: 0,
                offset: offset(rng),
            },
            14 => Instr::LoadSync {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            15 => Instr::StoreSync {
                rs: r(rng),
                base: 0,
                offset: offset(rng),
            },
            16 => Instr::FetchAdd {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
                rs: r(rng),
            },
            17 => Instr::Fork {
                entry: target(rng),
                arg: r(rng),
            },
            18 => Instr::ReadFF {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            _ => {
                if i == len - 1 || rng.below(4) == 0 {
                    Instr::Halt
                } else {
                    Instr::Mov {
                        rd: rd(rng),
                        rs: r(rng),
                    }
                }
            }
        };
        code.push(instr);
    }
    code.push(Instr::Halt);
    Program::new(code)
}

fn fuzz_cases() -> Vec<Case> {
    let mut c = cfg(2);
    c.streams_per_processor = 4; // small so forks overflow into soft spawns
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    (0..25)
        .map(|n| {
            let seed = rng.next() | 1;
            let program = random_program(&mut XorShift(seed), 30);
            case(
                format!("fuzz{n:02}_seed{seed:016x}"),
                c.clone(),
                program,
                30_000,
                |m| {
                    for k in 0..4 {
                        m.memory_mut().set_empty(1000 + k * 7);
                    }
                },
            )
        })
        .collect()
}
