//! The assembled out-of-order core and its cycle loop.
//!
//! Stage order within a cycle is reverse-pipeline (commit → precommit →
//! writeback → issue → dispatch → fetch) so state written by a younger
//! stage is consumed by an older stage in the *next* cycle.
//!
//! The loop is event-driven: dispatch files each uop on the wakeup lists
//! of the registers it waits for, writeback pops due completions from a
//! queue and broadcasts their tags, and issue walks only the ready set.
//! A cycle that changes nothing beyond the per-cycle counters is
//! *quiet*; [`OooCore::tick`] then skips straight to the next timed
//! event and credits the skipped cycles with the quiet cycle's record,
//! through the same function that credits every simulated cycle
//! (DESIGN.md "Cycle loop").

use crate::config::CoreConfig;
use crate::iq::IssueQueue;
use crate::lsq::{LoadCheck, Lsq};
use crate::rob::{CompletionQueue, Rob, RobEntry, RobId, RobState};
use crate::stats::CoreStats;
use crate::telemetry::{CoreTelemetry, CycleRecord};
use atr_core::{FlushRecord, RenameAuditor, Renamer};
use atr_frontend::{Bpu, Prediction};
use atr_isa::{DynInst, FuKind, InstSeq, OpClass, RegClass};
use atr_mem::{AccessKind, MemoryHierarchy, ServiceLevel};
use atr_workload::{synthesize_outcome, Oracle, Program};
use std::collections::VecDeque;
use std::sync::Arc;

/// Cycles without a commit after which [`OooCore::run`] declares a model
/// deadlock (always a bug).
const DEADLOCK_CYCLES: u64 = 200_000;

/// How the core services an interrupt (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptMode {
    /// Option (a): stop fetching and drain the ROB, then service. Needs
    /// no ATR modifications.
    Drain,
    /// Option (b): flush the ROB and re-execute after the handler —
    /// lower latency, but ATR must first commit past every open atomic
    /// claim (the §4.1 region counter), since a flushed redefiner's
    /// already-released register cannot be restored.
    FlushAtRegionBoundary,
}

/// One retired instruction of the architectural stream: the unit the
/// cross-scheme differential tests compare. Two runs of the same
/// program retire identical streams exactly when their release schemes
/// are architecturally equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInst {
    /// Index into the oracle's architectural stream.
    pub oracle_idx: u64,
    /// The instruction's PC.
    pub pc: u64,
    /// Architectural successor PC.
    pub next_pc: u64,
    /// Control flow taken?
    pub taken: bool,
    /// Memory address touched, for loads and stores.
    pub mem_addr: Option<u64>,
}

/// Functional-unit ports still free in the current issue cycle.
#[derive(Debug, Clone, Copy)]
struct FuPorts {
    alu: usize,
    load: usize,
    store: usize,
}

/// A fetched instruction waiting in the frontend pipe for rename.
#[derive(Debug, Clone)]
struct Fetched {
    inst: DynInst,
    prediction: Option<Prediction>,
    mispredicted: bool,
    ready_at: u64,
}

/// The cycle-level out-of-order core.
///
/// Construct with a [`CoreConfig`] and an [`Oracle`], then call
/// [`OooCore::run`]. See the [crate docs](crate) for the model overview.
pub struct OooCore {
    cfg: CoreConfig,
    cycle: u64,
    oracle: Oracle,
    program: Arc<Program>,
    bpu: Bpu,
    mem: MemoryHierarchy,
    renamer: Renamer,
    rob: Rob,
    iq: IssueQueue,
    /// Issued entries by completion cycle (writeback's event source).
    completions: CompletionQueue,
    /// Writeback's reused buffer of this cycle's due completions.
    due: Vec<RobId>,
    /// The flush walk's reused buffer of squashed entries' records.
    flush_records: Vec<FlushRecord>,
    lsq: Lsq,
    frontend: VecDeque<Fetched>,
    // Fetch state.
    fetch_pc: u64,
    next_oracle_idx: u64,
    on_wrong_path: bool,
    /// Wrong-path fetch ran off the program text; wait for the flush.
    wrong_path_dead: bool,
    wp_salt: u64,
    fetch_stall_until: u64,
    seq: InstSeq,
    // Execution state.
    div_busy_until: u64,
    stats: CoreStats,
    last_commit_cycle: u64,
    pending_interrupt: Option<InterruptMode>,
    /// Cycle-level invariant checker ([`atr_core::audit`]), attached
    /// when the rename config sets `audit`.
    auditor: Option<RenameAuditor>,
    /// Retired-stream capture for differential validation; off unless
    /// [`OooCore::enable_retire_log`] was called.
    retire_log: Option<Vec<RetiredInst>>,
    /// The observer ([`crate::telemetry`]): its CPI stack is accounted
    /// on every run; its histograms record only at `stats`.
    telemetry: CoreTelemetry,
    /// What the current (or, between ticks, the last simulated) cycle
    /// did; [`OooCore::account`] credits it.
    record: CycleRecord,
    /// End of the current exception/interrupt serialization window (CPI
    /// attribution only — timing uses `fetch_stall_until`).
    serialize_until: u64,
    /// End of the current misprediction redirect window (CPI
    /// attribution only).
    badspec_until: u64,
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("cycle", &self.cycle)
            .field("retired", &self.stats.retired)
            .finish_non_exhaustive()
    }
}

impl OooCore {
    /// Builds a core over `oracle`'s program.
    #[must_use]
    pub fn new(cfg: CoreConfig, oracle: Oracle) -> Self {
        let program = oracle.program().clone();
        OooCore {
            bpu: Bpu::new(&cfg.bpu),
            mem: MemoryHierarchy::new(&cfg.mem),
            renamer: Renamer::new(&cfg.rename),
            rob: Rob::new(cfg.rob_size),
            iq: IssueQueue::new(cfg.rs_size, cfg.rob_size),
            completions: CompletionQueue::new(),
            due: Vec::new(),
            flush_records: Vec::new(),
            lsq: Lsq::new(cfg.load_buffer, cfg.store_buffer),
            frontend: VecDeque::new(),
            fetch_pc: program.entry(),
            next_oracle_idx: 0,
            on_wrong_path: false,
            wrong_path_dead: false,
            wp_salt: program.seed(),
            fetch_stall_until: 0,
            seq: 0,
            div_busy_until: 0,
            stats: CoreStats::default(),
            last_commit_cycle: 0,
            pending_interrupt: None,
            auditor: cfg.rename.audit.then(RenameAuditor::new),
            retire_log: None,
            telemetry: CoreTelemetry::new(&cfg.telemetry, cfg.retire_width as u64),
            record: CycleRecord::default(),
            serialize_until: 0,
            badspec_until: 0,
            cycle: 1,
            oracle,
            program,
            cfg,
        }
    }

    /// Runs until `max_insts` more instructions retire. Returns the
    /// accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for 200k cycles
    /// (a model deadlock — always a bug).
    pub fn run(&mut self, max_insts: u64) -> CoreStats {
        self.run_with(max_insts, OooCore::tick)
    }

    /// [`OooCore::run`] stepping exactly one cycle at a time, never
    /// skipping quiet cycles: the reference the skip-ahead equivalence
    /// tests compare [`OooCore::run`] against. Not for production use.
    #[doc(hidden)]
    pub fn run_without_skip(&mut self, max_insts: u64) -> CoreStats {
        self.run_with(max_insts, |core| {
            core.step();
        })
    }

    fn run_with(&mut self, max_insts: u64, mut advance: impl FnMut(&mut Self)) -> CoreStats {
        let target = self.stats.retired + max_insts;
        while self.stats.retired < target {
            advance(self);
            assert!(
                self.cycle - self.last_commit_cycle < DEADLOCK_CYCLES,
                "pipeline deadlock at cycle {}: head={:?}",
                self.cycle,
                self.rob.head().map(|e| (e.inst.seq, e.inst.sinst.class, e.state))
            );
        }
        let stats = self.snapshot_stats();
        if self.auditor.is_some() {
            if let Err(e) = stats.check_consistency() {
                panic!("CoreStats consistency audit failed: {e}");
            }
        }
        stats
    }

    /// Statistics snapshot including substrate counters.
    #[must_use]
    pub fn snapshot_stats(&self) -> CoreStats {
        let mut s = self.stats.clone();
        s.cycles = self.cycle;
        s.int_prf = *self.renamer.prf_stats(RegClass::Int);
        s.fp_prf = *self.renamer.prf_stats(RegClass::Fp);
        s.caches = self.mem.stats();
        s.dram = self.mem.dram_stats();
        s.markings = self.renamer.markings();
        s
    }

    /// Simulated cycles so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Current renamer (occupancy inspection in tests and examples).
    #[must_use]
    pub fn renamer(&self) -> &Renamer {
        &self.renamer
    }

    /// The attached invariant auditor, when the rename config enables
    /// auditing.
    #[must_use]
    pub fn auditor(&self) -> Option<&RenameAuditor> {
        self.auditor.as_ref()
    }

    /// The observer, when telemetry is at `stats` or above (below that
    /// it accounts only the CPI stack, which [`OooCore::into_telemetry`]
    /// hands over at every level).
    #[must_use]
    pub fn telemetry(&self) -> Option<&CoreTelemetry> {
        self.telemetry.stats_enabled().then_some(&self.telemetry)
    }

    /// Consumes the core and returns its observer (runner aggregation
    /// after a finished run).
    #[must_use]
    pub fn into_telemetry(self) -> CoreTelemetry {
        self.telemetry
    }

    /// Starts capturing every retired instruction for differential
    /// comparison. Call before [`OooCore::run`].
    pub fn enable_retire_log(&mut self) {
        self.retire_log = Some(Vec::new());
    }

    /// The captured retired stream (empty unless
    /// [`OooCore::enable_retire_log`] was called).
    #[must_use]
    pub fn retire_log(&self) -> &[RetiredInst] {
        self.retire_log.as_deref().unwrap_or(&[])
    }

    /// Requests an interrupt to be serviced with the given mode (§4.1).
    /// At most one can be pending; a second request is ignored.
    pub fn request_interrupt(&mut self, mode: InterruptMode) {
        if self.pending_interrupt.is_none() {
            self.pending_interrupt = Some(mode);
        }
    }

    /// Is an interrupt still waiting to be serviced?
    #[must_use]
    pub fn interrupt_pending(&self) -> bool {
        self.pending_interrupt.is_some()
    }

    /// Advances the model by at least one cycle.
    ///
    /// The cycle at [`OooCore::cycles`] runs through every stage. If it
    /// was *quiet* — it changed no state beyond what its
    /// [`CycleRecord`] credits (stall counts, PRF occupancy sums, CPI
    /// slots, occupancy histograms) and the audited-cycle count — then
    /// every cycle up to the next timed event would repeat it exactly,
    /// so `tick` jumps straight to that event and credits the same
    /// record once per skipped cycle. The events are the next
    /// completion, a pending redefine, the end of a fetch stall, the
    /// frontend head's arrival at rename, the divider freeing, the end
    /// of a serialization or redirect window, and the deadlock horizon
    /// (DESIGN.md "Cycle loop"). Every result is bit-identical to
    /// stepping one cycle at a time, whether telemetry and audit are on
    /// or off. A quiet cycle retires nothing, so at most `retire_width`
    /// instructions retire per call.
    pub fn tick(&mut self) {
        if !self.step() {
            self.skip_quiet_cycles();
        }
    }

    /// Simulates exactly one cycle: the stages fill in its record as
    /// they run, the end-of-cycle state and CPI cause complete it, and
    /// it is credited once. Returns whether the cycle changed any state
    /// beyond what the record credits (`false`: a quiet cycle).
    fn step(&mut self) -> bool {
        self.record = CycleRecord::default();
        let mut active = self.renamer.tick(self.cycle);
        active |= self.commit();
        active |= self.service_interrupt();
        active |= self.advance_precommit();
        active |= self.writeback();
        active |= self.issue();
        active |= self.dispatch();
        active |= self.fetch();
        self.enforce_audit_cycle();
        let r = &mut self.record;
        r.serializing = self.pending_interrupt.is_some() || self.cycle < self.serialize_until;
        r.redirecting = self.cycle < self.badspec_until;
        r.rob = self.rob.len() as u64;
        r.int_prf = self.renamer.occupancy(RegClass::Int) as u64;
        r.fp_prf = self.renamer.occupancy(RegClass::Fp) as u64;
        let rob = &self.rob;
        r.cause = self.telemetry.classify(r, || {
            rob.head().and_then(|h| {
                (h.inst.sinst.class.is_load() && h.state == RobState::Issued)
                    .then_some(h.mem_level)
                    .flatten()
            })
        });
        self.account(1);
        active
    }

    /// Credits `n` cycles that each did what the current record says —
    /// the one just simulated (`n = 1`) or the quiet cycles skipped
    /// after it — to the per-cycle counters and the observer, and
    /// advances the clock past them. Under audit, checks the CPI stack's
    /// slot sum afterwards.
    fn account(&mut self, n: u64) {
        let r = self.record;
        let s = &mut self.stats;
        s.rename_freelist_stalls += n * u64::from(r.freelist_stalled);
        s.rename_backpressure_stalls += n * u64::from(r.backpressure_stalled);
        s.interrupt_wait_cycles += n * u64::from(r.interrupt_waited);
        s.int_prf_occupancy_sum += u128::from(n) * u128::from(r.int_prf);
        s.fp_prf_occupancy_sum += u128::from(n) * u128::from(r.fp_prf);
        self.telemetry.account(&r, n);
        let from = self.cycle;
        self.cycle += n;
        if self.auditor.is_some() {
            if let Err(e) = self.telemetry.cpi.check() {
                panic!("cycles {from}..{}: {e}", self.cycle);
            }
        }
    }

    /// The earliest cycle at or after `from` at which a timed condition
    /// of the cycle loop flips: a completion falls due, a redefine
    /// becomes effective, fetch's stall ends, the frontend head reaches
    /// rename, the divider frees, or a serialization/redirect window
    /// closes.
    fn next_event(&self, from: u64) -> u64 {
        [
            self.completions.next_at(),
            self.renamer.next_redefine_at(),
            self.frontend.front().map(|f| f.ready_at),
            Some(self.fetch_stall_until),
            Some(self.div_busy_until),
            Some(self.serialize_until),
            Some(self.badspec_until),
        ]
        .into_iter()
        .flatten()
        .filter(|&at| at >= from)
        .min()
        .unwrap_or(u64::MAX)
    }

    /// Called after a quiet cycle: every cycle before the next event
    /// (capped by the deadlock horizon) would repeat it exactly, so jump
    /// there and credit the skipped cycles with the quiet cycle's
    /// record.
    fn skip_quiet_cycles(&mut self) {
        let from = self.cycle;
        let to = self.next_event(from).min(self.last_commit_cycle + DEADLOCK_CYCLES);
        if to <= from {
            return;
        }
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.credit_cycles(to - from);
        }
        self.account(to - from);
    }

    /// Runs the renamer invariant audit and the schedule audit.
    fn enforce_audit_cycle(&mut self) {
        let Some(auditor) = self.auditor.as_mut() else { return };
        let (renamer, rob, cycle) = (&self.renamer, &self.rob, self.cycle);
        auditor.enforce_cycle(renamer, rob.iter().map(|e| (&e.uop, e.issued())), cycle);
        audit_schedule(renamer, rob, &self.iq, &self.completions, cycle);
    }

    // ----------------------------------------------------------- fetch

    /// Returns whether fetch touched the I-cache (any fetch activity).
    fn fetch(&mut self) -> bool {
        if self.cycle < self.fetch_stall_until || self.wrong_path_dead {
            return false;
        }
        // Drain-mode interrupts stop fetching new instructions (§4.1a).
        if self.pending_interrupt == Some(InterruptMode::Drain) {
            return false;
        }
        let mut active = false;
        let cap = self.cfg.fetch_width * (self.cfg.frontend_depth as usize + 2);
        let mut taken_targets = 0usize;
        let mut cur_block = u64::MAX;
        let mut block_ready = self.cycle;

        for _ in 0..self.cfg.fetch_width {
            if self.frontend.len() >= cap {
                break;
            }
            // One I-cache access per touched 64 B block.
            let this_block = self.fetch_pc & !(self.cfg.fetch_block_bytes - 1);
            if this_block != cur_block {
                cur_block = this_block;
                active = true;
                block_ready = self.mem.access(AccessKind::InstFetch, this_block, self.cycle);
                if block_ready > self.cycle + self.cfg.mem.l1i.latency {
                    // I-cache miss: resume when the line arrives.
                    self.fetch_stall_until = block_ready;
                    break;
                }
            }

            // Build the dynamic instance and its prediction.
            let fetched = if self.on_wrong_path {
                let Some(sinst) = self.program.at(self.fetch_pc).copied() else {
                    // Fell off the program text down the wrong path.
                    self.wrong_path_dead = true;
                    break;
                };
                let prediction = if sinst.class.is_control_flow() {
                    Some(self.bpu.predict(&sinst))
                } else {
                    None
                };
                self.wp_salt = self.wp_salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let (ptaken, ptarget) =
                    prediction.as_ref().map_or((false, 0), |p| (p.taken, p.next_pc));
                let outcome = synthesize_outcome(&sinst, ptaken, ptarget, self.wp_salt);
                Fetched {
                    inst: DynInst {
                        seq: self.seq,
                        sinst,
                        outcome,
                        on_wrong_path: true,
                        oracle_idx: self.next_oracle_idx,
                    },
                    prediction,
                    mispredicted: false,
                    ready_at: 0,
                }
            } else {
                let d = *self.oracle.get(self.next_oracle_idx);
                debug_assert_eq!(
                    d.sinst.pc, self.fetch_pc,
                    "on-path fetch diverged from the oracle"
                );
                let (prediction, mispredicted) = if d.sinst.class.is_control_flow() {
                    let p = self.bpu.predict(&d.sinst);
                    let mis = p.next_pc != d.outcome.next_pc;
                    (Some(p), mis)
                } else {
                    (None, false)
                };
                self.next_oracle_idx += 1;
                Fetched {
                    inst: DynInst { seq: self.seq, ..d },
                    prediction,
                    mispredicted,
                    ready_at: 0,
                }
            };
            self.seq += 1;
            self.stats.fetched += 1;
            if fetched.inst.on_wrong_path {
                self.stats.wrong_path_fetched += 1;
            }

            // Fetch follows the prediction; a misprediction sends the
            // stream down the wrong path until the branch resolves.
            let next_pc = match &fetched.prediction {
                Some(p) => p.next_pc,
                None => fetched.inst.sinst.fallthrough,
            };
            let predicted_taken = next_pc != fetched.inst.sinst.fallthrough;
            let btb_hit = fetched.prediction.as_ref().is_none_or(|p| p.btb_hit);
            if fetched.mispredicted {
                self.on_wrong_path = true;
            }
            self.fetch_pc = next_pc;

            let ready_at = block_ready.max(self.cycle) + u64::from(self.cfg.frontend_depth);
            self.frontend.push_back(Fetched { ready_at, ..fetched });

            if predicted_taken {
                if !btb_hit {
                    // Taken branch the BTB did not know: fetch bubble.
                    self.fetch_stall_until = self.cycle + u64::from(self.cfg.btb_miss_bubble);
                    break;
                }
                taken_targets += 1;
                if taken_targets >= self.cfg.fetch_targets_per_cycle {
                    break;
                }
                cur_block = u64::MAX; // force an access at the target block
            }
        }
        active
    }

    // -------------------------------------------------------- dispatch

    /// Returns whether anything was renamed.
    fn dispatch(&mut self) -> bool {
        let mut active = false;
        for _ in 0..self.cfg.rename_width {
            let Some(front) = self.frontend.front() else { break };
            if front.ready_at > self.cycle {
                break;
            }
            let class = front.inst.sinst.class;
            if self.rob.free() == 0
                || !self.iq.has_space()
                || (class.is_load() && !self.lsq.has_load_space())
                || (class.is_store() && !self.lsq.has_store_space())
            {
                self.record.backpressure_stalled = true;
                break;
            }
            if !self.renamer.can_rename() {
                self.record.freelist_stalled = true;
                break;
            }
            let f = self.frontend.pop_front().expect("checked front");
            active = true;
            let seq = f.inst.seq;
            let uop = self.renamer.rename(&f.inst.sinst, self.cycle, f.inst.on_wrong_path);
            if f.inst.on_wrong_path {
                self.stats.wrong_path_renamed += 1;
            }
            if class.is_load() {
                self.lsq.push_load(seq);
            } else if class.is_store() {
                self.lsq.push_store(seq);
            }
            // An eliminated move (§6) allocates nothing and executes
            // nowhere: it completes at dispatch and skips the issue
            // queue; its result register is the (already tracked)
            // source.
            let eliminated = uop.pdst.is_none() && uop.alias.is_some();
            let psrcs = uop.psrcs;
            let id = self.rob.push(RobEntry {
                inst: f.inst,
                uop,
                state: if eliminated { RobState::Completed } else { RobState::Dispatched },
                prediction: f.prediction,
                mispredicted: f.mispredicted,
                renamed_at: self.cycle,
                mem_level: None,
            });
            if !eliminated {
                let renamer = &self.renamer;
                self.iq.insert(
                    id,
                    seq,
                    psrcs.iter().flatten().copied().filter(|&p| !renamer.is_ready(p)),
                );
            }
        }
        active
    }

    // ----------------------------------------------------------- issue

    /// Walks the ready set oldest first, issuing what the ports, the
    /// divider and memory ordering allow. Returns whether anything
    /// issued.
    fn issue(&mut self) -> bool {
        let mut ports =
            FuPorts { alu: self.cfg.num_alu, load: self.cfg.num_load, store: self.cfg.num_store };
        let mut active = false;
        let mut idx = 0;
        while let Some(&id) = self.iq.ready().get(idx) {
            if ports.alu == 0 && ports.load == 0 && ports.store == 0 {
                break;
            }
            if self.try_issue(id, &mut ports) {
                self.iq.issue(idx);
                active = true;
            } else {
                idx += 1;
            }
        }
        active
    }

    /// Issues the ready entry `id` if a port of its kind is free, the
    /// divider is idle (for divides) and no older store blocks it (for
    /// loads). Returns whether it issued.
    fn try_issue(&mut self, id: RobId, ports: &mut FuPorts) -> bool {
        let entry = self.rob.get(id).expect("ready entry is in the ROB");
        let seq = entry.inst.seq;
        let class = entry.inst.sinst.class;
        let psrcs = entry.uop.psrcs;
        let mem_addr = entry.inst.outcome.mem_addr;
        match class.fu_kind() {
            FuKind::Alu if ports.alu == 0 => return false,
            FuKind::Load if ports.load == 0 => return false,
            FuKind::Store if ports.store == 0 => return false,
            _ => {}
        }
        if class.is_unpipelined() && self.div_busy_until > self.cycle {
            return false;
        }

        let mut mem_level: Option<ServiceLevel> = None;
        let complete_at = match class {
            OpClass::Load => {
                let addr = mem_addr.expect("load without an address");
                match self.lsq.check_load(seq, addr) {
                    LoadCheck::Wait => return false,
                    LoadCheck::Forward { data_ready } => {
                        ports.load -= 1;
                        mem_level = Some(ServiceLevel::L1);
                        (self.cycle + 1).max(data_ready) + u64::from(self.cfg.forward_latency)
                    }
                    LoadCheck::GoToMemory => {
                        ports.load -= 1;
                        let done = self.mem.access(AccessKind::Load, addr, self.cycle + 1);
                        mem_level = Some(self.mem.last_service_level());
                        done
                    }
                }
            }
            OpClass::Store => {
                let addr = mem_addr.expect("store without an address");
                ports.store -= 1;
                self.lsq.store_address_ready(seq, addr, self.cycle + 1);
                self.cycle + 1
            }
            _ => {
                ports.alu -= 1;
                let done = self.cycle + u64::from(class.exec_latency());
                if class.is_unpipelined() {
                    self.div_busy_until = done;
                }
                done
            }
        };

        let entry = self.rob.get_mut(id).expect("entry exists");
        entry.state = RobState::Issued;
        entry.mem_level = mem_level;
        self.completions.push(complete_at, id);
        self.renamer.on_issue(&psrcs, self.cycle);
        true
    }

    // ------------------------------------------------------- writeback

    /// Completes the entries due this cycle, oldest first, broadcasting
    /// their destination tags. Returns whether anything completed.
    fn writeback(&mut self) -> bool {
        let mut due = std::mem::take(&mut self.due);
        self.completions.pop_due(self.cycle, &mut due);
        let mut resolved_mispredict: Option<RobId> = None;
        for &id in &due {
            let e = self.rob.get_mut(id).expect("completing entry");
            e.state = RobState::Completed;
            if let Some(p) = e.uop.pdst {
                self.renamer.set_ready(p);
                self.iq.wake(p);
            }
            if e.inst.sinst.class.is_control_flow() && !e.inst.on_wrong_path {
                // Counted where `handle_mispredict` counts its
                // mispredicts, so a run that stops with a resolved
                // branch still in flight counts both or neither.
                if e.inst.sinst.class.is_conditional() {
                    self.stats.cond_branches += 1;
                }
                if self.telemetry.stats_enabled() {
                    let latency = self.cycle.saturating_sub(e.renamed_at);
                    self.telemetry.branch_resolution.record(latency);
                }
                // Train at resolve with the architectural outcome.
                if let Some(pred) = &e.prediction {
                    self.bpu.train(&e.inst.sinst, &pred.snapshot, e.inst.taken(), e.inst.next_pc());
                }
                if e.mispredicted {
                    debug_assert!(resolved_mispredict.is_none(), "two live on-path mispredicts");
                    resolved_mispredict = Some(id);
                }
            }
        }
        let active = !due.is_empty();
        self.due = due;
        if let Some(id) = resolved_mispredict {
            self.handle_mispredict(id);
        }
        active
    }

    /// Squashes everything in flight younger than the ROB entry `keep`
    /// (everything when `None`): the ROB entries, youngest first,
    /// through the reused flush-record buffer, the flush telemetry and
    /// the renamer's flush walk; then the issue queue, the completion
    /// queue, the load/store queues and the frontend pipe. Ends with the
    /// one SRT recovery every flush cause shares: the rebuild from the
    /// committed RAT plus the surviving entries, oldest first (§4.2.1).
    fn squash(&mut self, keep: Option<RobId>) {
        let mut records = std::mem::take(&mut self.flush_records);
        records.clear();
        let cycle = self.cycle;
        let visit = |e: &RobEntry| records.push(e.uop.flush_record(&e.inst.sinst, e.issued()));
        let squashed = match keep {
            Some(id) => self.rob.squash_younger(id, visit),
            None => self.rob.squash_all(visit),
        };
        if self.telemetry.stats_enabled() {
            self.telemetry.flush_walk_len.record(squashed as u64);
        }
        self.renamer.flush_walk(&records, cycle);
        self.flush_records = records;
        match keep {
            Some(id) => {
                let seq = self.rob.get(id).expect("the flush point survives").inst.seq;
                self.iq.squash_younger(id);
                self.completions.squash_younger(id);
                self.lsq.squash_younger(seq);
            }
            None => {
                self.iq.clear();
                self.completions.clear();
                self.lsq.clear();
            }
        }
        self.frontend.clear();
        self.renamer.restore_after_flush(self.rob.iter().map(|e| &e.uop));
    }

    /// Rewinds the frontend's speculative state to before the oldest
    /// prediction among the ROB entries from position `from` on (the
    /// ones a flush is about to squash). If none was made, the
    /// histories contain only committed outcomes and are already
    /// consistent.
    fn restore_bpu_before(&mut self, from: usize) {
        let oldest = self.rob.iter().skip(from).find_map(|e| e.prediction.as_ref());
        if let Some(p) = oldest {
            self.bpu.restore(&p.snapshot);
        }
    }

    fn handle_mispredict(&mut self, id: RobId) {
        self.stats.flushes += 1;
        let e = self.rob.get_mut(id).expect("mispredicted entry");
        e.mispredicted = false;
        let (sinst, taken, target) = (e.inst.sinst, e.inst.taken(), e.inst.next_pc());
        let oracle_idx = e.inst.oracle_idx;
        if sinst.class.is_conditional() {
            self.stats.cond_mispredicts += 1;
        } else {
            self.stats.target_mispredicts += 1;
        }

        // Frontend recovery: restore speculative state, re-apply the
        // corrected outcome.
        let prediction = e.prediction.as_ref().expect("control flow has a prediction");
        self.bpu.recover(&sinst, &prediction.snapshot, taken, target);

        // Backend recovery: squash, walk, rebuild the SRT.
        self.squash(Some(id));

        // Redirect fetch to the architectural path.
        self.restart_fetch(oracle_idx + 1, target, self.cfg.redirect_penalty);
        // Telemetry: the bad-speculation window covers the redirect
        // penalty plus the frontend refill before corrected-path
        // instructions can reach rename again.
        self.badspec_until = self.fetch_stall_until + u64::from(self.cfg.frontend_depth);
    }

    // ------------------------------------------------------- precommit

    /// Advances the precommit pointer (§2.3): an instruction precommits
    /// once every older branch is resolved and every older
    /// exception-capable instruction is known safe. The walk resumes
    /// after the already-precommitted prefix. Returns whether the
    /// pointer moved.
    fn advance_precommit(&mut self) -> bool {
        let head_seq = match self.rob.head() {
            Some(h) => h.inst.seq,
            None => return false,
        };
        let start = self.rob.precommitted_len();
        while let Some(e) = self.rob.at(self.rob.precommitted_len()) {
            // Bounded confirmation-tracking hardware: the pointer can
            // only run `precommit_lead` instructions past the head.
            if e.inst.seq.saturating_sub(head_seq) > self.cfg.precommit_lead as u64 {
                break;
            }
            let safe = match e.inst.sinst.class {
                OpClass::CondBranch | OpClass::IndirectJump | OpClass::Return => {
                    e.completed() && !e.mispredicted
                }
                // §3.1: loads/stores must be "guaranteed not to cause
                // an exception" — i.e. their address is generated and
                // translated. The paper's own Fig 5 shows the load I1
                // precommitting at its execute time (675), not at data
                // return (839), so issue/AGU is the gate.
                OpClass::Load | OpClass::Store => e.issued() && e.inst.outcome.exception.is_none(),
                OpClass::IntDiv | OpClass::FpDiv => {
                    e.completed() && e.inst.outcome.exception.is_none()
                }
                _ => true,
            };
            if !safe {
                break;
            }
            debug_assert!(
                !e.inst.on_wrong_path,
                "wrong-path instruction precommitting: seq {} class {:?}",
                e.inst.seq, e.inst.sinst.class
            );
            let e = self.rob.precommit();
            self.renamer.on_precommit(&mut e.uop, self.cycle);
        }
        self.rob.precommitted_len() > start
    }

    // ---------------------------------------------------------- commit

    /// Returns whether anything retired (or an exception was taken).
    fn commit(&mut self) -> bool {
        let mut active = false;
        for _ in 0..self.cfg.retire_width {
            let Some(head) = self.rob.head() else { break };
            if head.inst.outcome.exception.is_some() {
                if head.completed() {
                    self.handle_exception();
                    active = true;
                }
                break;
            }
            if !head.completed() || self.rob.precommitted_len() == 0 {
                break;
            }
            assert!(
                !head.inst.on_wrong_path,
                "committing a wrong-path instruction: seq {} pc {:#x} class {:?} oracle_idx {}",
                head.inst.seq, head.inst.sinst.pc, head.inst.sinst.class, head.inst.oracle_idx
            );

            let head = self.rob.pop_head().expect("head exists");
            let (inst, uop) = (head.inst, head.uop);
            active = true;
            let seq = inst.seq;
            match inst.sinst.class {
                OpClass::Load => self.lsq.retire_load(seq),
                OpClass::Store => {
                    // Stores write the cache after commit (drain from the
                    // store buffer); bandwidth is charged, commit is not
                    // stalled.
                    let addr = inst.outcome.mem_addr.expect("store address");
                    let _ = self.mem.access(AccessKind::Store, addr, self.cycle);
                    self.lsq.retire_store(seq);
                }
                _ => {}
            }
            self.renamer.on_commit(&uop, self.cycle);
            if let Some(log) = self.retire_log.as_mut() {
                log.push(RetiredInst {
                    oracle_idx: inst.oracle_idx,
                    pc: inst.sinst.pc,
                    next_pc: inst.next_pc(),
                    taken: inst.taken(),
                    mem_addr: inst.outcome.mem_addr,
                });
            }
            self.stats.retired += 1;
            self.record.retired += 1;
            self.last_commit_cycle = self.cycle;
            if self.stats.retired.is_multiple_of(4096) {
                self.oracle.release_before(inst.oracle_idx);
            }
        }
        active
    }

    /// Services a pending interrupt when its mode's condition is met.
    /// Returns whether it was serviced.
    fn service_interrupt(&mut self) -> bool {
        let Some(mode) = self.pending_interrupt else { return false };
        match mode {
            InterruptMode::Drain => {
                // Fetch is stopped; wait for the ROB and frontend pipe
                // to drain, then run the handler.
                if !(self.rob.is_empty() && self.frontend.is_empty()) {
                    return false;
                }
                self.pending_interrupt = None;
                self.stats.interrupts += 1;
                self.fetch_stall_until = self.cycle + u64::from(self.cfg.exception_penalty);
                self.enter_handler();
            }
            InterruptMode::FlushAtRegionBoundary => {
                // §4.1b: wait until no atomic claim spans the flush
                // point, then flush the *unprecommitted* tail of the ROB
                // and re-execute it after the handler. Precommitted
                // instructions are past the point of no return — their
                // previous registers may already be ER-released — so
                // the flush point is the precommit pointer, and in the
                // unlikely worst case the interrupt fully drains the
                // ROB first.
                if self.renamer.open_atr_claims() > 0 {
                    self.record.interrupt_waited = true;
                    return false;
                }
                let precommitted = self.rob.precommitted_len();
                if precommitted > 0 && precommitted == self.rob.len() {
                    // Everything in flight is precommitted: let commit
                    // drain it and retry.
                    self.record.interrupt_waited = true;
                    return false;
                }
                // Resume at the oldest discarded architectural
                // instruction — it may sit in the squashed ROB suffix
                // or still in the frontend pipe (e.g. an unresolved
                // mispredicted branch that never renamed); with nothing
                // architectural discarded anywhere, the fetch cursor's
                // oracle index is the continuation.
                let resume_idx = self
                    .rob
                    .iter()
                    .skip(precommitted)
                    .find(|e| !e.inst.on_wrong_path)
                    .map(|e| e.inst.oracle_idx)
                    .or_else(|| {
                        self.frontend
                            .iter()
                            .find(|f| !f.inst.on_wrong_path)
                            .map(|f| f.inst.oracle_idx)
                    })
                    .unwrap_or(self.next_oracle_idx);
                self.pending_interrupt = None;
                self.stats.interrupts += 1;
                self.restore_bpu_before(precommitted);
                // The flush point: the newest precommitted entry.
                let flush_point = precommitted.checked_sub(1).map(|i| self.rob.id_at(i));
                self.squash(flush_point);
                let resume_pc = self.oracle.get(resume_idx).sinst.pc;
                self.restart_fetch(resume_idx, resume_pc, self.cfg.exception_penalty);
                self.enter_handler();
            }
        }
        true
    }

    fn handle_exception(&mut self) {
        self.stats.exceptions += 1;
        let oldest = self.rob.head().expect("exception implies a head entry");
        let (resume_idx, resume_pc) = (oldest.inst.oracle_idx, oldest.inst.sinst.pc);
        self.restore_bpu_before(0);
        self.squash(None);

        // Service the fault, then re-execute from the faulting
        // instruction (its injected exception is now resolved).
        self.oracle.clear_exception(resume_idx);
        self.restart_fetch(resume_idx, resume_pc, self.cfg.exception_penalty);
        self.enter_handler();
    }

    /// Sends fetch back to the architectural path: oracle instruction
    /// `oracle_idx` at `pc`, after `penalty` stall cycles.
    fn restart_fetch(&mut self, oracle_idx: u64, pc: u64, penalty: u32) {
        self.on_wrong_path = false;
        self.wrong_path_dead = false;
        self.next_oracle_idx = oracle_idx;
        self.fetch_pc = pc;
        self.fetch_stall_until = self.cycle + u64::from(penalty);
    }

    /// Runs a handler behind the fetch stall: rename waits for the
    /// frontend to refill after it, and the commit watchdog restarts.
    fn enter_handler(&mut self) {
        self.serialize_until = self.fetch_stall_until + u64::from(self.cfg.frontend_depth);
        self.last_commit_cycle = self.cycle;
    }
}

/// Audits the event-driven scheduling state against a re-derivation
/// from the ROB and the scoreboard: every issue-queue entry's
/// outstanding-source count equals its not-yet-produced sources, the
/// ready set holds exactly the entries with none outstanding, and every
/// issued ROB entry waits in the completion queue (and nothing else
/// does).
///
/// # Panics
///
/// Panics on the first divergence.
fn audit_schedule(
    renamer: &Renamer,
    rob: &Rob,
    iq: &IssueQueue,
    completions: &CompletionQueue,
    cycle: u64,
) {
    let (mut filed, mut ready) = (0, 0);
    for (id, e) in rob.iter_ids() {
        let Some((seq, outstanding)) = iq.filed(id) else { continue };
        filed += 1;
        assert_eq!(
            seq, e.inst.seq,
            "cycle {cycle}: issue-queue slot of ROB entry {id} holds {seq}, the ROB {}",
            e.inst.seq
        );
        let unproduced = e.uop.psrcs.iter().flatten().filter(|&&p| !renamer.is_ready(p)).count();
        assert_eq!(
            outstanding as usize, unproduced,
            "cycle {cycle}: issue-queue entry {seq} waits on {outstanding} sources, \
             the scoreboard has {unproduced} unproduced"
        );
        if unproduced == 0 {
            ready += 1;
            assert!(
                iq.ready().binary_search(&id).is_ok(),
                "cycle {cycle}: entry {seq} has every source but is missing from the ready set"
            );
        }
    }
    assert_eq!(iq.len(), filed, "cycle {cycle}: the issue queue holds entries not in the ROB");
    assert_eq!(
        iq.ready().len(),
        ready,
        "cycle {cycle}: the ready set holds entries that still wait on sources"
    );
    let mut queued: Vec<RobId> = completions.ids().collect();
    queued.sort_unstable();
    let mut issued = 0;
    for (id, e) in rob.iter_ids().filter(|(_, e)| e.state == RobState::Issued) {
        issued += 1;
        assert!(
            queued.binary_search(&id).is_ok(),
            "cycle {cycle}: issued entry {} is missing from the completion queue",
            e.inst.seq
        );
    }
    assert_eq!(
        queued.len(),
        issued,
        "cycle {cycle}: the completion queue holds entries that are not issued"
    );
}
