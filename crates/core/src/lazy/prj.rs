//! Parallel Radix Join (PRJ), after Kim et al. / Balkesen et al.
//!
//! Both inputs are radix-partitioned on the low `#r` key bits so each
//! R-partition fits in cache; partitions then get joined independently with
//! a cache-resident build+probe, pulled from a shared work queue. The first
//! pass is a cooperative parallel partition (per-thread histograms → prefix
//! sums → contention-free scatter); when `#r` exceeds the per-pass budget a
//! second, thread-local refinement pass runs inside the work queue, exactly
//! like the original's two-pass scheme.

use crate::clock::EventClock;
use crate::config::{KernelConfig, RunConfig};
use crate::lazy::{steal_scan, EmitClock, Slots};
use crate::output::WorkerOut;
use iawj_common::kernel::tuple_buckets_into;
use iawj_common::{KernelBackend, Phase, Sink, Ts, Tuple};
use iawj_exec::morsel::{for_each_morsel, MorselQueue, MARK_CLAIM, MARK_STEAL};
use iawj_exec::pool::{barrier, chunk_range};
use iawj_exec::radix::{histogram, partition_seq, ScatterPlan, SharedOut};
use iawj_exec::{Executor, LocalTable, PhaseTimer};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed morsel grid used by the steal-mode partition pass: cell `g` of an
/// input of `len` tuples is `g*m..(g+1)*m`. The grid is deterministic so a
/// cell's histogram and its scatter use the same slice no matter which
/// worker claims it — the contract `ScatterPlan::scatter_chunk` relies on.
#[inline]
fn grid_chunk(len: usize, m: usize, g: usize) -> std::ops::Range<usize> {
    (g * m)..((g + 1) * m).min(len)
}

/// Number of grid cells for `len` tuples at morsel size `m` (at least one,
/// so empty inputs still yield a valid all-zero scatter plan).
#[inline]
fn grid_cells(len: usize, m: usize) -> usize {
    len.div_ceil(m).max(1)
}

/// One input side of the cooperative first pass. Its scatter-plan slots
/// are one contiguous chunk per worker in static mode, or a fixed morsel
/// grid in steal mode: each grid cell is a slot, so any worker can claim
/// any cell's histogram or scatter without violating the
/// histogram-matches-chunk contract.
struct Side<'a> {
    tuples: &'a [Tuple],
    threads: usize,
    /// Grid morsel size in steal mode; `None` in static mode.
    grid: Option<usize>,
    /// One histogram per slot, published before the plan barrier.
    hists: Slots<Vec<u32>>,
    hist_q: MorselQueue,
    scatter_q: MorselQueue,
}

impl<'a> Side<'a> {
    fn new(tuples: &'a [Tuple], threads: usize, grid: Option<usize>) -> Self {
        let cells = grid.map_or(0, |m| grid_cells(tuples.len(), m));
        Side {
            tuples,
            threads,
            grid,
            hists: Slots::new(if grid.is_some() { cells } else { threads }),
            hist_q: MorselQueue::new(cells, threads, 1),
            scatter_q: MorselQueue::new(cells, threads, 1),
        }
    }

    /// The input slice of slot `g`.
    fn slot(&self, g: usize) -> &'a [Tuple] {
        let len = self.tuples.len();
        &self.tuples[match self.grid {
            Some(m) => grid_chunk(len, m, g),
            None => chunk_range(len, self.threads, g),
        }]
    }

    /// Run `f` on each slot worker `tid` handles: its own chunk in static
    /// mode, every grid cell it claims or steals from `q` in steal mode.
    fn for_each_slot(
        &self,
        q: &MorselQueue,
        tid: usize,
        timer: &mut PhaseTimer,
        mut f: impl FnMut(usize),
    ) {
        if self.grid.is_some() {
            steal_scan(q, tid, timer, |cells| cells.for_each(&mut f));
        } else {
            f(tid);
        }
    }

    fn histograms(&self, tid: usize, timer: &mut PhaseTimer, bits: u32, kernel: KernelBackend) {
        self.for_each_slot(&self.hist_q, tid, timer, |g| {
            self.hists.set(g, histogram(self.slot(g), 0, bits, kernel))
        });
    }

    /// The scatter plan and output arena, once every histogram is published.
    fn plan(&self, bits: u32, first_touch: bool) -> (ScatterPlan, SharedOut) {
        let hists: Vec<Vec<u32>> = (0..self.hists.len())
            .map(|g| self.hists.get(g).clone())
            .collect();
        let len = self.tuples.len();
        let out = if first_touch {
            SharedOut::new_first_touch(len)
        } else {
            SharedOut::new(len)
        };
        (ScatterPlan::from_histograms(&hists, 0, bits), out)
    }

    fn scatter(
        &self,
        tid: usize,
        timer: &mut PhaseTimer,
        plan: &ScatterPlan,
        out: &SharedOut,
        first_touch: bool,
        kernel: KernelBackend,
    ) {
        self.for_each_slot(&self.scatter_q, tid, timer, |g| {
            if first_touch {
                // SAFETY: slot `g` is exactly the region this worker
                // scatters next — toucher and writer are the same thread.
                unsafe { plan.touch_chunk(g, out) };
            }
            plan.scatter_chunk(self.slot(g), g, out, kernel);
        });
    }
}

/// Run PRJ. Convenience wrapper over [`run_on`] that builds the executor
/// [`RunConfig`] asks for.
pub fn run(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
) -> Vec<WorkerOut> {
    run_on(r, s, cfg, clock, arrive_by, &cfg.make_executor())
}

/// Run PRJ on an existing executor (reused across runs / window closes).
pub fn run_on(
    r: &[Tuple],
    s: &[Tuple],
    cfg: &RunConfig,
    clock: &EventClock,
    arrive_by: Ts,
    exec: &Executor,
) -> Vec<WorkerOut> {
    let threads = cfg.threads;
    let bits_total = cfg.prj.radix_bits.max(1);
    let bits1 = bits_total.min(cfg.prj.max_bits_per_pass).max(1);
    let bits2 = bits_total - bits1;

    let grid = cfg.sched.stealing().then(|| cfg.sched.morsel_size.max(1));
    let (r_side, s_side) = (Side::new(r, threads, grid), Side::new(s, threads, grid));
    let plans: Slots<[(ScatterPlan, SharedOut); 2]> = Slots::new(1);
    let hist_done = barrier(threads);
    let plan_done = barrier(threads);
    let scatter_done = barrier(threads);
    let next_partition = AtomicUsize::new(0);
    let fanout1 = 1usize << bits1;
    let join_q = cfg.sched.item_queue(fanout1, threads);

    // With pinned workers the partition arenas use first-touch allocation:
    // zeroed, lazily mapped pages that each scattering worker faults onto
    // its own NUMA node by pre-touching exactly the slot it scatters.
    let first_touch = exec.pinned();
    exec.run(threads, |tid| {
        let mut out = WorkerOut::new(cfg.sample_every);
        let mut timer = cfg.timer_for(Phase::Wait, clock.epoch());
        clock.wait_until(arrive_by);

        // --- Pass 1: cooperative parallel partition of R and S ---
        let kernel = cfg.kernel.backend;
        timer.switch_to(Phase::Partition);
        r_side.histograms(tid, &mut timer, bits1, kernel);
        s_side.histograms(tid, &mut timer, bits1, kernel);
        hist_done.wait();
        timer.instant("barrier:histograms_done");
        if tid == 0 {
            plans.set(
                0,
                [
                    r_side.plan(bits1, first_touch),
                    s_side.plan(bits1, first_touch),
                ],
            );
        }
        plan_done.wait();
        let [(r_plan, r_out), (s_plan, s_out)] = plans.get(0);
        r_side.scatter(tid, &mut timer, r_plan, r_out, first_touch, kernel);
        s_side.scatter(tid, &mut timer, s_plan, s_out, first_touch, kernel);
        timer.switch_to(Phase::Other);
        scatter_done.wait();
        timer.instant("barrier:scatter_done");
        // SAFETY: the barrier orders all scatter writes before these reads.
        let r_part: &[Tuple] = unsafe { r_out.as_slice() };
        let s_part: &[Tuple] = unsafe { s_out.as_slice() };

        if tid == 0 && cfg.mem_sample_every > 0 {
            // Partitioned copies of both inputs are PRJ's footprint.
            out.mem_samples.push((
                clock.now_ms(),
                (r.len() + s.len()) * std::mem::size_of::<Tuple>(),
            ));
        }

        // --- Per-partition cache-resident joins from a shared queue ---
        let mut emit = EmitClock::new(clock);
        let kcfg = cfg.kernel;
        // Per-worker scratch for the batched bucket pipeline, reused across
        // every partition this worker joins.
        let mut buckets: Vec<usize> = Vec::new();
        let mut do_partition =
            |p: usize, timer: &mut PhaseTimer, emit: &mut EmitClock, out: &mut WorkerOut| {
                let rp = &r_part[r_plan.bounds[p]..r_plan.bounds[p + 1]];
                let sp = &s_part[s_plan.bounds[p]..s_plan.bounds[p + 1]];
                if rp.is_empty() || sp.is_empty() {
                    return;
                }
                if bits2 > 0 {
                    // --- Pass 2: thread-local refinement ---
                    timer.switch_to(Phase::Partition);
                    let rr = partition_seq(rp, bits1, bits2, kernel);
                    let ss = partition_seq(sp, bits1, bits2, kernel);
                    for q in 0..rr.fanout() {
                        join_partition(
                            rr.partition(q),
                            ss.partition(q),
                            &kcfg,
                            &mut buckets,
                            timer,
                            emit,
                            out,
                        );
                    }
                } else {
                    join_partition(rp, sp, &kcfg, &mut buckets, timer, emit, out);
                }
            };
        if grid.is_some() {
            // Per-worker deques of partition ids with steal-half: a worker
            // stuck on a heavy Zipf partition sheds the rest of its deque.
            for_each_morsel(&join_q, tid, |range, stolen| {
                timer.instant(if stolen { MARK_STEAL } else { MARK_CLAIM });
                for p in range {
                    do_partition(p, &mut timer, &mut emit, &mut out);
                }
            });
        } else {
            loop {
                let p = next_partition.fetch_add(1, Ordering::Relaxed);
                if p >= fanout1 {
                    break;
                }
                do_partition(p, &mut timer, &mut emit, &mut out);
            }
        }
        out.set_timing(timer.finish_parts());
        out
    })
}

/// Cache-resident hash join of one partition pair: build a private table
/// over the R side, probe with the S side.
///
/// Under [`KernelBackend::Simd`] both loops run as batched pipelines:
/// bucket indices come from the 8-wide hash kernel and each access
/// prefetches the bucket head `dist` tuples ahead. The partition is mostly
/// cache-resident already, so the win here is smaller than NPJ's — but the
/// pipeline keeps the A/B symmetric across algorithms. `Scalar` keeps the
/// original per-tuple loops byte-for-byte.
fn join_partition(
    rp: &[Tuple],
    sp: &[Tuple],
    kcfg: &KernelConfig,
    buckets: &mut Vec<usize>,
    timer: &mut PhaseTimer,
    emit: &mut EmitClock<'_>,
    out: &mut WorkerOut,
) {
    if rp.is_empty() || sp.is_empty() {
        return;
    }
    let (kernel, dist) = (kcfg.backend, kcfg.prefetch_dist.max(1));
    timer.switch_to(Phase::BuildSort);
    let mut table = LocalTable::with_capacity(rp.len());
    if kernel.is_simd() {
        tuple_buckets_into(kernel, rp, table.mask(), buckets);
        for (i, t) in rp.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + dist) {
                table.prefetch_bucket(ahead);
            }
            table.insert_at(buckets[i], t.key, t.ts);
        }
        timer.switch_to(Phase::Probe);
        tuple_buckets_into(kernel, sp, table.mask(), buckets);
        for (i, t) in sp.iter().enumerate() {
            if let Some(&ahead) = buckets.get(i + dist) {
                table.prefetch_bucket(ahead);
            }
            let now = emit.now();
            table.probe_at(buckets[i], t.key, |r_ts| {
                out.sink.push(t.key, r_ts, t.ts, now)
            });
        }
    } else {
        for t in rp {
            table.insert(t.key, t.ts);
        }
        timer.switch_to(Phase::Probe);
        for t in sp {
            let now = emit.now();
            table.probe(t.key, |r_ts| out.sink.push(t.key, r_ts, t.ts, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nested_loop_join;
    use iawj_common::{Rng, Window};

    fn random_stream(n: usize, keys: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % keys, (i % 64) as u32))
            .collect()
    }

    fn canonical(outs: &[WorkerOut]) -> Vec<(u32, u32, u32)> {
        let mut got: Vec<_> = outs
            .iter()
            .flat_map(|w| w.sink.samples.iter().map(|m| (m.key, m.r_ts, m.s_ts)))
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_reference_single_pass() {
        let r = random_stream(800, 256, 1);
        let s = random_stream(600, 256, 2);
        let mut cfg = RunConfig::with_threads(4).record_all();
        cfg.prj.radix_bits = 6; // single pass
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn matches_reference_two_pass() {
        let r = random_stream(3000, 1 << 12, 3);
        let s = random_stream(3000, 1 << 12, 4);
        let mut cfg = RunConfig::with_threads(3).record_all();
        cfg.prj.radix_bits = 10;
        cfg.prj.max_bits_per_pass = 6; // force a refinement pass
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        assert_eq!(
            canonical(&outs),
            nested_loop_join(&r, &s, Window::of_len(64))
        );
    }

    #[test]
    fn skewed_keys_still_correct() {
        // Everything in one partition: exercises the empty-partition skips.
        let r: Vec<Tuple> = (0..200).map(|i| Tuple::new(1024, i % 64)).collect();
        let s: Vec<Tuple> = (0..100).map(|i| Tuple::new(1024, i % 64)).collect();
        let cfg = RunConfig::with_threads(4).record_all();
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        let total: u64 = outs.iter().map(|w| w.sink.count()).sum();
        assert_eq!(total, 200 * 100);
    }

    #[test]
    fn kernel_backends_agree_bitwise() {
        use iawj_exec::Scheduler;
        let r = random_stream(2500, 1 << 10, 71);
        let s = random_stream(2500, 1 << 10, 72);
        for scheduler in [Scheduler::Static, Scheduler::Steal] {
            for (bits, per_pass) in [(6u32, 8u32), (10, 6)] {
                let collect = |backend: KernelBackend| {
                    let mut cfg = RunConfig::with_threads(4)
                        .record_all()
                        .scheduler(scheduler)
                        .morsel_size(128)
                        .kernel(backend)
                        .prefetch_dist(4);
                    cfg.prj.radix_bits = bits;
                    cfg.prj.max_bits_per_pass = per_pass;
                    let clock = EventClock::ungated();
                    canonical(&run(&r, &s, &cfg, &clock, 0))
                };
                assert_eq!(
                    collect(KernelBackend::Scalar),
                    collect(KernelBackend::Simd),
                    "scheduler {scheduler:?} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn steal_scheduler_matches_reference_both_pass_shapes() {
        use iawj_exec::Scheduler;
        let r = random_stream(2500, 1 << 10, 21);
        let s = random_stream(2500, 1 << 10, 22);
        let expect = nested_loop_join(&r, &s, Window::of_len(64));
        for (bits, per_pass) in [(6, 8), (10, 6)] {
            let mut cfg = RunConfig::with_threads(4)
                .record_all()
                .scheduler(Scheduler::Steal)
                .morsel_size(128);
            cfg.prj.radix_bits = bits;
            cfg.prj.max_bits_per_pass = per_pass;
            let clock = EventClock::ungated();
            let outs = run(&r, &s, &cfg, &clock, 0);
            assert_eq!(canonical(&outs), expect, "bits={bits}");
        }
    }

    #[test]
    fn steal_scheduler_journals_grid_claims() {
        use iawj_exec::morsel::{MARK_CLAIM, MARK_STEAL};
        use iawj_exec::Scheduler;
        let r = random_stream(1000, 128, 23);
        let s = random_stream(1000, 128, 24);
        let mut cfg = RunConfig::with_threads(4)
            .record_all()
            .scheduler(Scheduler::Steal)
            .morsel_size(100)
            .with_journal();
        cfg.prj.radix_bits = 6;
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        let marks: usize = outs
            .iter()
            .filter_map(|w| w.journal.as_ref())
            .map(|j| j.count_marks(MARK_CLAIM) + j.count_marks(MARK_STEAL))
            .sum();
        // 10 histogram cells + 10 scatter cells per side, plus 64 join
        // partitions: every unit of claimable work shows up in the journal.
        assert_eq!(marks, 10 + 10 + 10 + 10 + 64);
    }

    #[test]
    fn partition_phase_is_timed() {
        let r = random_stream(5000, 512, 5);
        let s = random_stream(5000, 512, 6);
        let cfg = RunConfig::with_threads(2);
        let clock = EventClock::ungated();
        let outs = run(&r, &s, &cfg, &clock, 0);
        let part: u64 = outs.iter().map(|w| w.breakdown[Phase::Partition]).sum();
        assert!(part > 0);
    }
}
