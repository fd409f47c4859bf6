//! Histogram-based radix partitioning — the substrate of the Parallel Radix
//! Join (PRJ) and of the Figure 18 `#radix-bits` sensitivity study.
//!
//! Tuples are partitioned on the binary digits of their *keys* (not a hash),
//! exactly as Kim et al.'s original PRJ does: `partition = (key >> shift) &
//! (fanout-1)`. The parallel pass (driven by PRJ) follows the classic
//! three-step shape — per-slot [`histogram`]s, global prefix sums in
//! [`ScatterPlan::from_histograms`], contention-free
//! [`ScatterPlan::scatter_chunk`] into disjoint output ranges;
//! [`partition_seq`] is the single-threaded reference it must match.

use iawj_common::kernel::{partition_batch8, HASH_BLOCK};
use iawj_common::{KernelBackend, Key, Tuple};

/// Number of partitions produced by `bits` radix bits.
#[inline]
pub const fn fanout(bits: u32) -> usize {
    1 << bits
}

/// Partition index of a key for the given pass.
#[inline]
pub fn partition_of(key: Key, shift: u32, bits: u32) -> usize {
    ((key >> shift) as usize) & (fanout(bits) - 1)
}

/// Call `f(partition, tuple)` for every tuple in input order. Under
/// [`KernelBackend::Simd`] partition indices come 8 keys at a time from the
/// batched shift-and-mask kernel; the derivation is pure bit arithmetic, so
/// every backend yields the same indices. [`KernelBackend::Scalar`] is the
/// portable (and Miri) path.
#[inline(always)]
fn for_each_partition(
    tuples: &[Tuple],
    shift: u32,
    bits: u32,
    kernel: KernelBackend,
    mut f: impl FnMut(usize, &Tuple),
) {
    let mut rest = tuples;
    if kernel.is_simd() {
        let mask32 = (fanout(bits) - 1) as u32;
        let mut chunks = tuples.chunks_exact(HASH_BLOCK);
        let mut keys = [0 as Key; HASH_BLOCK];
        for block in &mut chunks {
            for (k, t) in keys.iter_mut().zip(block) {
                *k = t.key;
            }
            let parts = partition_batch8(kernel, &keys, shift, mask32);
            for (t, &p) in block.iter().zip(parts.iter()) {
                f(p, t);
            }
        }
        rest = chunks.remainder();
    }
    for t in rest {
        f(partition_of(t.key, shift, bits), t);
    }
}

/// Per-partition counts of a tuple slice. Counts are bitwise-identical
/// across kernel backends.
pub fn histogram(tuples: &[Tuple], shift: u32, bits: u32, kernel: KernelBackend) -> Vec<u32> {
    let mut hist = vec![0u32; fanout(bits)];
    for_each_partition(tuples, shift, bits, kernel, |p, _| hist[p] += 1);
    hist
}

/// A radix-partitioned relation: `data[bounds[p]..bounds[p+1]]` is
/// partition `p`.
#[derive(Clone, Debug)]
pub struct Partitioned {
    /// Tuples grouped by partition.
    pub data: Vec<Tuple>,
    /// Partition boundaries; length `fanout + 1`, first 0, last `data.len()`.
    pub bounds: Vec<usize>,
}

impl Partitioned {
    /// Number of partitions.
    pub fn fanout(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Tuples of partition `p`.
    #[inline]
    pub fn partition(&self, p: usize) -> &[Tuple] {
        &self.data[self.bounds[p]..self.bounds[p + 1]]
    }
}

/// Sequential single-pass partitioning; output is bitwise-identical across
/// kernel backends.
pub fn partition_seq(
    tuples: &[Tuple],
    shift: u32,
    bits: u32,
    kernel: KernelBackend,
) -> Partitioned {
    let hist = histogram(tuples, shift, bits, kernel);
    let f = fanout(bits);
    let mut bounds = Vec::with_capacity(f + 1);
    let mut acc = 0usize;
    bounds.push(0);
    for &h in &hist {
        acc += h as usize;
        bounds.push(acc);
    }
    let mut cursor: Vec<usize> = bounds[..f].to_vec();
    let mut data = vec![Tuple::default(); tuples.len()];
    for_each_partition(tuples, shift, bits, kernel, |p, t| {
        data[cursor[p]] = *t;
        cursor[p] += 1;
    });
    Partitioned { data, bounds }
}

/// A shared output buffer that scatter workers write disjoint slots of.
///
/// The buffer is plain `Vec<Tuple>` storage behind an `UnsafeCell`; the
/// radix prefix-sum construction guarantees writers never alias (each
/// `(thread, partition)` pair owns an exclusive index range), and callers
/// separate the write epoch from the read epoch with a barrier.
pub struct SharedOut {
    buf: std::cell::UnsafeCell<Vec<Tuple>>,
}

// SAFETY: all mutation goes through `write`, whose contract requires
// disjoint indices across threads; reads require the write epoch to be over.
unsafe impl Sync for SharedOut {}
unsafe impl Send for SharedOut {}

impl SharedOut {
    /// Zero-filled buffer of `len` tuples.
    pub fn new(len: usize) -> Self {
        SharedOut {
            buf: std::cell::UnsafeCell::new(vec![Tuple::default(); len]),
        }
    }

    /// Zero-filled buffer of `len` tuples whose pages the allocating
    /// thread does **not** touch: the memory comes from `alloc_zeroed`,
    /// so the kernel maps copy-on-write zero pages and physical placement
    /// is deferred to whichever thread writes each page first. Combined
    /// with [`ScatterPlan::touch_chunk`] this gives NUMA first-touch
    /// locality for the scatter arenas: each pinned worker faults in
    /// exactly the ranges it will scatter into.
    ///
    /// `Tuple` is `#[repr(C)]` over two `u32`s, so the zeroed contents
    /// are bitwise-identical to [`SharedOut::new`] — this is purely a
    /// page-placement knob, never an output change.
    pub fn new_first_touch(len: usize) -> Self {
        if len == 0 {
            return SharedOut::new(0);
        }
        let layout = std::alloc::Layout::array::<Tuple>(len).expect("arena layout overflow");
        // SAFETY: layout is non-zero-sized (len > 0, Tuple is 8 bytes);
        // zeroed bytes are a valid `Tuple` (two plain u32s); the Vec takes
        // ownership with the exact allocation layout it would free with.
        let buf = unsafe {
            let ptr = std::alloc::alloc_zeroed(layout) as *mut Tuple;
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Vec::from_raw_parts(ptr, len, len)
        };
        SharedOut {
            buf: std::cell::UnsafeCell::new(buf),
        }
    }

    /// Number of slots in the buffer.
    pub fn len(&self) -> usize {
        // SAFETY: the Vec header is written only at construction; workers
        // mutate elements through raw pointers, never the header.
        unsafe { (*self.buf.get()).len() }
    }

    /// True when the buffer has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write the default tuple over `range`, faulting those pages into
    /// the calling thread's NUMA node (first-touch). Contents are
    /// unchanged observationally — slots are zero before and after.
    ///
    /// # Safety
    /// Same contract as [`SharedOut::write`] over the whole `range`: it
    /// must be in bounds, disjoint from every other concurrent writer's
    /// range, and free of concurrent readers.
    pub unsafe fn touch(&self, range: std::ops::Range<usize>) {
        let buf = &mut *self.buf.get();
        debug_assert!(range.end <= buf.len());
        let ptr = buf.as_mut_ptr();
        for idx in range {
            // Volatile: the store must reach memory even though it writes
            // the value the slot already holds.
            std::ptr::write_volatile(ptr.add(idx), Tuple::default());
        }
    }

    /// Write one slot.
    ///
    /// # Safety
    /// No two concurrent callers may pass the same `idx`, `idx` must be in
    /// bounds, and no reader may run concurrently with writers.
    #[inline]
    pub unsafe fn write(&self, idx: usize, t: Tuple) {
        debug_assert!(idx < (*self.buf.get()).len());
        *(*self.buf.get()).as_mut_ptr().add(idx) = t;
    }

    /// View the contents.
    ///
    /// # Safety
    /// All writes must have happened-before this call (e.g. via a barrier).
    pub unsafe fn as_slice(&self) -> &[Tuple] {
        &*self.buf.get()
    }

    /// Consume into the underlying vector (single-owner, hence safe).
    pub fn into_vec(self) -> Vec<Tuple> {
        self.buf.into_inner()
    }
}

/// The scatter offsets computed from per-thread histograms: everything a
/// worker needs to place its chunk's tuples without contention.
pub struct ScatterPlan {
    /// Global partition boundaries (`fanout + 1` entries).
    pub bounds: Vec<usize>,
    starts: Vec<usize>,
    fanout: usize,
    shift: u32,
    bits: u32,
}

impl ScatterPlan {
    /// Build the plan from one histogram per thread (thread order must
    /// match the chunk order used for scatter).
    pub fn from_histograms(hists: &[Vec<u32>], shift: u32, bits: u32) -> Self {
        let threads = hists.len();
        let f = fanout(bits);
        let mut bounds = Vec::with_capacity(f + 1);
        bounds.push(0usize);
        let mut starts = vec![0usize; threads * f];
        let mut acc = 0usize;
        for p in 0..f {
            for (t, hist) in hists.iter().enumerate() {
                starts[t * f + p] = acc;
                acc += hist[p] as usize;
            }
            bounds.push(acc);
        }
        ScatterPlan {
            bounds,
            starts,
            fanout: f,
            shift,
            bits,
        }
    }

    /// Total tuples the plan accounts for.
    pub fn total(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// Number of scatter slots (threads or grid cells) the plan was built
    /// for.
    pub fn slots(&self) -> usize {
        self.starts.len() / self.fanout
    }

    /// Pre-fault slot `tid`'s scatter destination ranges (first-touch):
    /// writes the default tuple over exactly the slots
    /// [`ScatterPlan::scatter_chunk`] will later fill for `tid`, so on a
    /// pinned worker those pages land on the worker's own NUMA node before
    /// the timed scatter runs. Contents are unchanged — the ranges are zero
    /// before and after.
    ///
    /// # Safety
    /// Same contract as [`SharedOut::write`] over the touched ranges: the
    /// caller must be the only writer of slot `tid`'s ranges while this
    /// runs, with no concurrent readers. `out` must have [`ScatterPlan::total`]
    /// slots.
    pub unsafe fn touch_chunk(&self, tid: usize, out: &SharedOut) {
        let f = self.fanout;
        let slots = self.slots();
        debug_assert!(tid < slots);
        for p in 0..f {
            let start = self.starts[tid * f + p];
            let end = if tid + 1 < slots {
                self.starts[(tid + 1) * f + p]
            } else {
                self.bounds[p + 1]
            };
            out.touch(start..end);
        }
    }

    /// Scatter slot `tid`'s input chunk into the shared output. `chunk`
    /// must be exactly the slice whose histogram was `hists[tid]`. The
    /// stores are data-dependent scalar scatters under every kernel; only
    /// the partition derivation is batched (see [`histogram`]), so output
    /// is bitwise-identical across backends.
    pub fn scatter_chunk(
        &self,
        chunk: &[Tuple],
        tid: usize,
        out: &SharedOut,
        kernel: KernelBackend,
    ) {
        let f = self.fanout;
        let mut cursor = self.starts[tid * f..(tid + 1) * f].to_vec();
        for_each_partition(chunk, self.shift, self.bits, kernel, |p, t| {
            // SAFETY: cursor[p] walks starts[tid*f+p] .. +hists[tid][p]; the
            // prefix sum makes those ranges disjoint across (tid, p) pairs
            // and they tile 0..total().
            unsafe { out.write(cursor[p], *t) };
            cursor[p] += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::chunk_range;
    use iawj_common::Rng;

    const SCALAR: KernelBackend = KernelBackend::Scalar;

    fn random_tuples(n: usize, key_space: u32, seed: u64) -> Vec<Tuple> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|i| Tuple::new(rng.next_u32() % key_space, i as u32))
            .collect()
    }

    fn check_partitioned(p: &Partitioned, input: &[Tuple], shift: u32, bits: u32) {
        // Same multiset.
        let mut a: Vec<u64> = input.iter().map(|t| t.pack()).collect();
        let mut b: Vec<u64> = p.data.iter().map(|t| t.pack()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "partitioning changed the multiset");
        // Every tuple in the right partition.
        for part in 0..p.fanout() {
            for t in p.partition(part) {
                assert_eq!(partition_of(t.key, shift, bits), part);
            }
        }
        assert_eq!(*p.bounds.last().unwrap(), input.len());
    }

    #[test]
    fn sequential_partition_correct() {
        let input = random_tuples(1000, 512, 1);
        let p = partition_seq(&input, 0, 4, SCALAR);
        check_partitioned(&p, &input, 0, 4);
        assert_eq!(p.fanout(), 16);
    }

    #[test]
    fn shifted_pass_uses_higher_bits() {
        let input = random_tuples(500, 1 << 10, 3);
        let p = partition_seq(&input, 4, 4, SCALAR);
        check_partitioned(&p, &input, 4, 4);
    }

    #[test]
    fn empty_input() {
        let p = partition_seq(&[], 0, 5, SCALAR);
        assert_eq!(p.fanout(), 32);
        assert_eq!(p.data.len(), 0);
        assert!(p.bounds.iter().all(|&b| b == 0));
    }

    #[test]
    fn skewed_keys_pile_into_one_partition() {
        let input: Vec<Tuple> = (0..100).map(|i| Tuple::new(64, i)).collect();
        let p = partition_seq(&input, 0, 4, SCALAR);
        // key 64 -> low 4 bits are 0.
        assert_eq!(p.partition(0).len(), 100);
        for q in 1..16 {
            assert!(p.partition(q).is_empty());
        }
    }

    /// The Simd derivation kernel is pure bit math: histograms, sequential
    /// partitioning, and the scatter must be bitwise-identical to the
    /// scalar loops across block-boundary sizes.
    #[test]
    fn simd_derivation_is_bitwise_identical() {
        for n in [0usize, 1, 7, 8, 9, 16, 17, 1000, 4097] {
            let input = random_tuples(n, 1 << 12, n as u64 + 3);
            for (shift, bits) in [(0u32, 6u32), (4, 4), (6, 8)] {
                let scalar_hist = histogram(&input, shift, bits, SCALAR);
                let simd_hist = histogram(&input, shift, bits, KernelBackend::Simd);
                assert_eq!(scalar_hist, simd_hist, "n={n} shift={shift} bits={bits}");

                let scalar_part = partition_seq(&input, shift, bits, SCALAR);
                let simd_part = partition_seq(&input, shift, bits, KernelBackend::Simd);
                assert_eq!(scalar_part.bounds, simd_part.bounds);
                assert_eq!(scalar_part.data, simd_part.data);

                let plan =
                    ScatterPlan::from_histograms(std::slice::from_ref(&scalar_hist), shift, bits);
                let out = SharedOut::new(input.len());
                plan.scatter_chunk(&input, 0, &out, KernelBackend::Simd);
                assert_eq!(out.into_vec(), scalar_part.data, "scatter n={n}");
            }
        }
    }

    /// The first-touch arena and per-slot touch pass are observationally
    /// invisible: untouched slots are zero (like `SharedOut::new`), touched
    /// slots stay zero, and a touched-then-scattered arena — with the slots
    /// scattered concurrently from scoped threads, so Miri checks the
    /// disjointness argument — matches the sequential partitioner exactly.
    #[test]
    fn first_touch_multi_slot_scatter_matches_seq() {
        let eager = SharedOut::new(1000);
        let lazy = SharedOut::new_first_touch(1000);
        assert_eq!(lazy.len(), 1000);
        assert!(!lazy.is_empty());
        assert!(SharedOut::new_first_touch(0).is_empty());
        // SAFETY: no concurrent writers exist here.
        unsafe {
            lazy.touch(0..500);
            assert_eq!(eager.as_slice(), lazy.as_slice());
        }
        assert_eq!(eager.into_vec(), lazy.into_vec());

        let input = random_tuples(1024, 1 << 10, 77);
        let slots = 4;
        let chunk = |t: usize| &input[chunk_range(input.len(), slots, t)];
        let hists: Vec<Vec<u32>> = (0..slots)
            .map(|t| histogram(chunk(t), 0, 6, SCALAR))
            .collect();
        let plan = ScatterPlan::from_histograms(&hists, 0, 6);
        assert_eq!(plan.slots(), slots);
        let out = SharedOut::new_first_touch(input.len());
        std::thread::scope(|sc| {
            for t in 0..slots {
                let (plan, out) = (&plan, &out);
                sc.spawn(move || {
                    // SAFETY: each thread touches and writes only slot
                    // `t`'s ranges, disjoint across slots by the prefix sum.
                    unsafe { plan.touch_chunk(t, out) };
                    plan.scatter_chunk(chunk(t), t, out, SCALAR);
                });
            }
        });
        assert_eq!(plan.bounds, partition_seq(&input, 0, 6, SCALAR).bounds);
        assert_eq!(out.into_vec(), partition_seq(&input, 0, 6, SCALAR).data);
    }

    #[test]
    fn histogram_counts() {
        let input = vec![Tuple::new(0, 0), Tuple::new(1, 0), Tuple::new(17, 0)];
        let h = histogram(&input, 0, 4, SCALAR);
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 2, "keys 1 and 17 share low nibble 1");
    }
}
