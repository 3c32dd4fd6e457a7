//! Pins the 23 generated Table 2 workloads bit for bit.
//!
//! For every profile this hashes the static program (each instruction's
//! fields and its attached behaviour, in layout order) and the first
//! `STREAM_LEN` entries of its oracle stream (`pc`, `next_pc`, `taken`,
//! `mem_addr`, `exception`). Any change to the generator, the program
//! layout or the oracle's behaviour state that moves a single bit of a
//! workload fails here, naming the profile, long before it shows up as a
//! moved figure.

use atr_isa::{ArchReg, StaticInst};
use atr_workload::{spec, AddrPattern, BranchBehavior, Oracle, Program};

/// Oracle entries hashed per profile.
const STREAM_LEN: u64 = 20_000;

/// `(profile, program digest, stream digest)`.
const PINS: [(&str, u64, u64); 23] = [
    ("500.perlbench_r", 0x2c63503ed0373d04, 0x0fa16b426cd01956),
    ("502.gcc_r", 0x5a3769f2c0e67e58, 0x59b6a54bad85d644),
    ("505.mcf_r", 0x90404cc54913af83, 0xa99e23957a0c6a77),
    ("520.omnetpp_r", 0x518327d1a435bc73, 0xa11855b013cf608e),
    ("523.xalancbmk_r", 0xa3d37c88bda89748, 0x5aedecf3a5564bb7),
    ("525.x264_r", 0xee3c26132393d7b4, 0x94c5e63e8d9afd95),
    ("531.deepsjeng_r", 0x80c1c070d20a79b0, 0x419a5cdd5b9aefa1),
    ("541.leela_r", 0xdf1f74f791b75ad8, 0x4da9803edccd88a3),
    ("548.exchange2_r", 0x1b276a22d3efaf33, 0x18cb7040df91a271),
    ("557.xz_r", 0x2d4736dfa38b7d92, 0x6e3ae6ccf6af611f),
    ("503.bwaves_r", 0xab5a2f7045707b3e, 0x19bc9330bfdc99ab),
    ("507.cactuBSSN_r", 0xe12e9a67500a673f, 0xe88b92c912e3069d),
    ("508.namd_r", 0x107aef1abe32e5a6, 0xbc4e7c18f6eeb9b9),
    ("510.parest_r", 0xac371091b4d5719b, 0x6fdbf4447d18787f),
    ("511.povray_r", 0x30369961e04f1fec, 0x775d0916f7d244bc),
    ("519.lbm_r", 0x621b9e6c7a5e01a0, 0xcd60cd0cb2c9782e),
    ("521.wrf_r", 0xb946c68f9dfb652f, 0x63479bfa19ebac7e),
    ("526.blender_r", 0x3efc05a6530801f1, 0x8f1574bc3dedc345),
    ("527.cam4_r", 0xde9cc86df5b214e3, 0xebc6728ce2bd46c8),
    ("538.imagick_r", 0x6b35eb15619dd1eb, 0xdcf7c84a4525c255),
    ("544.nab_r", 0x62b83ce6f43bcfc7, 0xe409eaf8757f6c14),
    ("549.fotonik3d_r", 0x2d2d8344f4bd7b22, 0xc6cc2b0de909caaa),
    ("554.roms_r", 0x01e5b894b5c1291e, 0xc8028ba54b9e196f),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, w: Option<u64>) {
        match w {
            Some(w) => {
                self.word(1);
                self.word(w);
            }
            None => self.word(0),
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

fn reg(r: Option<ArchReg>) -> Option<u64> {
    r.map(|r| r.flat_index() as u64)
}

fn hash_inst(h: &mut Fnv, i: &StaticInst) {
    h.word(i.pc);
    h.word(u64::from(i.size));
    h.text(i.class.mnemonic());
    for s in i.srcs {
        h.opt(reg(s));
    }
    h.opt(reg(i.dst));
    h.word(i.fallthrough);
    h.opt(i.taken_target);
}

fn hash_branch(h: &mut Fnv, b: &BranchBehavior) {
    match b {
        BranchBehavior::AlwaysTaken => h.word(1),
        BranchBehavior::NeverTaken => h.word(2),
        BranchBehavior::Loop { trip_count } => {
            h.word(3);
            h.word(u64::from(*trip_count));
        }
        BranchBehavior::Biased { taken_prob } => {
            h.word(4);
            h.word(taken_prob.to_bits());
        }
        BranchBehavior::Pattern { bits } => {
            h.word(5);
            h.word(bits.len() as u64);
            for &bit in bits {
                h.word(u64::from(bit));
            }
        }
        BranchBehavior::IndirectUniform { targets } => {
            h.word(6);
            h.word(targets.len() as u64);
            for &t in targets {
                h.word(t);
            }
        }
    }
}

fn hash_addr(h: &mut Fnv, a: &AddrPattern) {
    match *a {
        AddrPattern::Stride { base, stride, footprint } => {
            h.word(1);
            h.word(base);
            h.word(stride as u64);
            h.word(footprint);
        }
        AddrPattern::UniformRandom { base, footprint, align } => {
            h.word(2);
            h.word(base);
            h.word(footprint);
            h.word(align);
        }
        AddrPattern::PointerChase { base, footprint } => {
            h.word(3);
            h.word(base);
            h.word(footprint);
        }
    }
}

/// Every instruction and its behaviour, in layout order, plus the
/// program's entry and seed.
fn program_digest(p: &Program) -> u64 {
    let mut h = Fnv::new();
    h.word(p.entry());
    h.word(p.seed());
    h.word(p.len() as u64);
    for i in p.instructions() {
        hash_inst(&mut h, i);
        match p.branch_behavior(i.pc) {
            Some(b) => hash_branch(&mut h, b),
            None => h.word(0),
        }
        match p.addr_pattern(i.pc) {
            Some(a) => hash_addr(&mut h, a),
            None => h.word(0),
        }
    }
    h.0
}

/// The architectural stream's first `STREAM_LEN` entries.
fn stream_digest(oracle: &mut Oracle) -> u64 {
    let mut h = Fnv::new();
    for idx in 0..STREAM_LEN {
        let d = *oracle.get(idx);
        h.word(d.sinst.pc);
        h.word(d.outcome.next_pc);
        h.word(u64::from(d.outcome.taken));
        h.opt(d.outcome.mem_addr);
        h.opt(d.outcome.exception.map(|e| e as u64));
        oracle.release_before(idx);
    }
    h.0
}

#[test]
fn every_table2_workload_matches_its_pinned_program_and_stream() {
    let profiles = spec::all_profiles();
    assert_eq!(profiles.len(), PINS.len(), "Table 2 has 23 profiles");
    let mut mismatches = Vec::new();
    for (profile, &(name, want_program, want_stream)) in profiles.iter().zip(&PINS) {
        assert_eq!(profile.name, name, "profile order changed");
        let program = profile.build();
        let got_program = program_digest(&program);
        let got_stream = stream_digest(&mut Oracle::new(program));
        if (got_program, got_stream) != (want_program, want_stream) {
            mismatches.push(format!(
                "{name}: program {got_program:#018x} (pinned {want_program:#018x}), \
                 stream {got_stream:#018x} (pinned {want_stream:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "generated workloads moved:\n{}", mismatches.join("\n"));
}
