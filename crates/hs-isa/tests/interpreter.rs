//! Property tests for the batch interpreter and the paged data memory:
//!
//! * [`advance`] of `n` instructions equals `n` single [`execute_one`]
//!   steps under the same stop rules, on every bundled workload program,
//!   on seeded random programs and on hand-built edge cases;
//! * [`FlatMemory`] agrees with a `HashMap` word model under seeded random
//!   reads and writes.
//!
//! Driven by a small local seeded PRNG (the build is offline).

use hs_isa::machine::execute_one;
use hs_isa::{
    advance, Advance, AluOp, ArchState, BranchCond, FlatMemory, FpOp, FpReg, InstIndex, IntReg,
    Kind, Machine, Operand, Program, ProgramBuilder,
};
use hs_workloads::{Workload, SPEC_SUITE};
use std::collections::{BTreeSet, HashMap};

/// Minimal xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The reference: up to `n` single steps through [`execute_one`], with
/// [`advance`]'s stop rules spelled out one instruction at a time. Records
/// every stored-to address in `written`.
fn step_n(
    program: &Program,
    pc: InstIndex,
    state: &mut ArchState,
    memory: &mut FlatMemory,
    n: u64,
    written: &mut BTreeSet<u64>,
) -> Advance {
    let mut a = Advance {
        next_pc: pc,
        executed: 0,
        halted: false,
    };
    for _ in 0..n {
        let Some(inst) = program.get(a.next_pc) else {
            a.halted = true;
            break;
        };
        let out = execute_one(inst.kind(), a.next_pc, state, memory);
        if let (Kind::Store { .. }, Some(addr)) = (inst.kind(), out.mem_addr) {
            written.insert(addr);
        }
        a.executed += 1;
        a.next_pc = out.next_pc;
        if out.halted {
            a.halted = true;
            break;
        }
    }
    a
}

/// Runs `program` in random-sized batches (including empty ones) through
/// [`advance`] and through [`step_n`] side by side until it halts or
/// `budget` instructions ran, comparing everything observable after every
/// batch.
fn check_batches_equal_steps(name: &str, program: &Program, seed: u64, budget: u64) {
    let mut rng = Rng(seed);
    let (mut fast_state, mut fast_mem) = (ArchState::new(), FlatMemory::new());
    let (mut ref_state, mut ref_mem) = (ArchState::new(), FlatMemory::new());
    let mut written = BTreeSet::new();
    let mut pc = InstIndex(0);
    let mut total = 0;
    while total < budget {
        let n = match rng.below(8) {
            0 => 0,
            1 => 1,
            _ => rng.below(20_000),
        };
        let fast = advance(program, pc, &mut fast_state, &mut fast_mem, n);
        let slow = step_n(program, pc, &mut ref_state, &mut ref_mem, n, &mut written);
        assert_eq!(fast, slow, "{name}: batch of {n} from {pc}");
        assert_eq!(fast_state, ref_state, "{name}: state after {n} from {pc}");
        assert_eq!(
            fast_mem.footprint_words(),
            ref_mem.footprint_words(),
            "{name}: footprint after {n} from {pc}"
        );
        pc = fast.next_pc;
        total += fast.executed;
        if fast.halted {
            break;
        }
    }
    for &addr in &written {
        assert_eq!(
            fast_mem.read(addr),
            ref_mem.read(addr),
            "{name}: word at {addr:#x}"
        );
    }
}

fn bundled_workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = SPEC_SUITE.into_iter().map(Workload::Spec).collect();
    all.extend([
        Workload::Variant1,
        Workload::Variant2,
        Workload::Variant3,
        Workload::EvaderSplit,
        Workload::EvaderHidden,
        Workload::EvaderUnknown,
    ]);
    all
}

#[test]
fn batches_equal_steps_on_every_bundled_workload() {
    let workloads = bundled_workloads();
    assert_eq!(workloads.len(), 22);
    for (i, w) in workloads.into_iter().enumerate() {
        let program = w.program(50.0);
        check_batches_equal_steps(w.name(), &program, 0x5eed + i as u64, 300_000);
    }
}

/// A random program over every instruction kind. Loads and stores hit a
/// small region that straddles a page boundary, at offsets with arbitrary
/// low bits; branches go backwards to the top or forwards past the end.
fn random_program(rng: &mut Rng, len: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let base = IntReg::new(30);
    b.load_imm(base, 0x7_0000 - 64);
    let top = b.label();
    let end = b.forward_label();
    for _ in 0..len {
        let rd = IntReg::new(1 + rng.below(8) as u8);
        let rs = IntReg::new(rng.below(9) as u8);
        let imm = rng.below(300);
        match rng.below(10) {
            0 | 1 => {
                b.int_alu(AluOp::Add, rd, rs, Operand::Imm(imm));
            }
            2 => {
                b.int_alu(AluOp::Mul, rd, rs, Operand::Reg(rd));
            }
            3 => {
                b.load(rd, base, rng.below(128) as i64);
            }
            4 => {
                b.store(rs, base, rng.below(128) as i64);
            }
            5 => {
                let f = |r: &mut Rng| FpReg::new(r.below(4) as u8);
                let (fd, fs1, fs2) = (f(rng), f(rng), f(rng));
                b.fp_alu(FpOp::Add, fd, fs1, fs2);
            }
            6 => {
                b.branch(BranchCond::Lt, rd, Operand::Imm(imm), top);
            }
            7 => {
                b.branch(BranchCond::Eq, rd, Operand::Imm(imm), end);
            }
            8 => {
                b.nop();
            }
            _ => {
                if rng.below(6) == 0 {
                    b.halt();
                } else {
                    b.int_alu(AluOp::Xor, rd, rd, Operand::Reg(rs));
                }
            }
        }
    }
    b.bind(end);
    // Half the programs end in a halt, the rest run off the end.
    if rng.below(2) == 0 {
        b.halt();
    } else {
        b.nop();
    }
    b.build().expect("valid program")
}

#[test]
fn batches_equal_steps_on_random_programs() {
    let mut rng = Rng(0x0ddb_a11);
    for case in 0..200 {
        let len = 4 + rng.below(60) as usize;
        let program = random_program(&mut rng, len);
        check_batches_equal_steps(&format!("random #{case}"), &program, case + 1, 5_000);
    }
}

fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new();
    f(&mut b);
    b.build().expect("valid program")
}

/// Runs one batch both ways from a fresh state and returns the result.
fn batch(program: &Program, pc: InstIndex, n: u64) -> Advance {
    let (mut s1, mut m1) = (ArchState::new(), FlatMemory::new());
    let (mut s2, mut m2) = (ArchState::new(), FlatMemory::new());
    let fast = advance(program, pc, &mut s1, &mut m1, n);
    let slow = step_n(program, pc, &mut s2, &mut m2, n, &mut BTreeSet::new());
    assert_eq!(fast, slow);
    assert_eq!(s1, s2);
    fast
}

#[test]
fn halt_mid_batch_is_counted_and_keeps_the_pc() {
    let r1 = IntReg::new(1);
    let p = build(|b| {
        b.addi(r1, r1, 1);
        b.addi(r1, r1, 1);
        b.halt();
        b.addi(r1, r1, 1);
    });
    let a = batch(&p, InstIndex(0), 10);
    assert_eq!(
        a,
        Advance {
            next_pc: InstIndex(2),
            executed: 3,
            halted: true
        }
    );
}

#[test]
fn running_off_the_end_halts_without_counting() {
    let p = build(|b| {
        b.nop();
        b.nop();
    });
    let a = batch(&p, InstIndex(0), 10);
    assert_eq!(
        a,
        Advance {
            next_pc: InstIndex(2),
            executed: 2,
            halted: true
        }
    );
    // Starting past the end executes nothing.
    let a = batch(&p, InstIndex(2), 10);
    assert_eq!((a.executed, a.halted), (0, true));
}

#[test]
fn an_empty_batch_does_nothing() {
    let p = build(|b| {
        b.halt();
    });
    for pc in [InstIndex(0), InstIndex(1)] {
        let a = batch(&p, pc, 0);
        assert_eq!(
            a,
            Advance {
                next_pc: pc,
                executed: 0,
                halted: false
            }
        );
    }
}

#[test]
fn a_halted_machine_runs_nothing() {
    let r1 = IntReg::new(1);
    let p = build(|b| {
        b.addi(r1, r1, 7);
        b.halt();
    });
    let (mut batched, mut stepped) = (Machine::new(p.clone()), Machine::new(p));
    assert_eq!(batched.run(100), 2);
    while stepped.step().is_some() {}
    assert!(batched.state().halted);
    assert_eq!(batched.state(), stepped.state());
    // Once halted, both forms are inert: the halt does not re-execute.
    assert_eq!(batched.run(100), 0);
    assert!(stepped.step().is_none());
    assert_eq!(batched.retired(), 2);
    assert_eq!(stepped.retired(), 2);
    assert_eq!(batched.state(), stepped.state());
}

/// An address pool that stresses the paging: word pairs on either side of
/// page boundaries, the same word at every low-3-bit offset, and far-apart
/// pages.
fn memory_address(rng: &mut Rng) -> u64 {
    const PAGE: u64 = 4096;
    match rng.below(4) {
        // Last word of one page or first word of the next.
        0 => (1 + rng.below(8)) * PAGE - 8 + rng.below(2) * 8 + rng.below(8),
        // Anywhere in a few dense pages.
        1 => 0x10_0000 + rng.below(3 * PAGE),
        // Far apart, top bit included.
        2 => rng.next_u64(),
        // A handful of words, any low bits.
        _ => 0x20_0000 + rng.below(4) * 8 + rng.below(8),
    }
}

#[test]
fn paged_memory_matches_a_word_model() {
    let mut rng = Rng(0xface_feed);
    let mut mem = FlatMemory::new();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut used = Vec::new();
    // A read of a never-written page, then the first write into it: the
    // read must not leave the page cached as empty.
    for addr in [0x3000_u64, 0x3ff8, 0x4000, 0x3001] {
        assert_eq!(
            mem.read(addr),
            model.get(&(addr & !7)).copied().unwrap_or(0)
        );
        mem.write(addr, addr);
        model.insert(addr & !7, addr);
        assert_eq!(mem.read(addr ^ 7), addr);
        used.push(addr);
    }
    for i in 0..20_000 {
        let addr = if !used.is_empty() && rng.below(2) == 0 {
            used[rng.below(used.len() as u64) as usize] ^ rng.below(8)
        } else {
            memory_address(&mut rng)
        };
        if rng.below(2) == 0 {
            // A quarter of all writes store 0, which must still count.
            let value = if rng.below(4) == 0 { 0 } else { rng.next_u64() };
            mem.write(addr, value);
            model.insert(addr & !7, value);
            used.push(addr);
        } else {
            let want = model.get(&(addr & !7)).copied().unwrap_or(0);
            assert_eq!(mem.read(addr), want, "read {addr:#x} at op {i}");
        }
        assert_eq!(mem.footprint_words(), model.len(), "footprint at op {i}");
    }
    assert!(model.values().any(|&v| v == 0));

    // A clone is independent: mutating it leaves the original unchanged.
    let snapshot = model.clone();
    let mut copy = mem.clone();
    for (&addr, &value) in &snapshot {
        copy.write(addr, !value);
    }
    copy.write(0xdead_0000, 0);
    for (&addr, &value) in &snapshot {
        assert_eq!(mem.read(addr), value);
        assert_eq!(copy.read(addr | 5), !value);
    }
    assert_eq!(mem.read(0xdead_0000), 0);
    assert_eq!(mem.footprint_words(), snapshot.len());
    assert_eq!(copy.footprint_words(), snapshot.len() + 1);
}
