//! Access traces and request streams: generation, replay and summary
//! statistics.
//!
//! Traces decouple *what* an application touches from *when* the device
//! can serve it. The `layout` and `fft2d` crates generate request
//! streams for the row-wise and column-wise FFT phases under different
//! data layouts and replay them here to measure achieved bandwidth.
//!
//! Two forms exist:
//!
//! * [`RequestSource`] — a **lazy, pull-based stream** of burst
//!   requests with a byte total known up front. Generators hold O(1)
//!   state (loop counters), so an N×N phase costs constant memory no
//!   matter how large N grows. This is the primary form; the closed-loop
//!   driver (`fft2d::run_phase`) and [`replay_stream`] consume it.
//! * [`AccessTrace`] — the **materialized** form: a `Vec` of the same
//!   ops, O(ops) memory. Still useful for small traces, golden tests and
//!   ad-hoc inspection; [`AccessTrace::stream`] turns it back into a
//!   [`RequestSource`], and [`RequestSource::collect_trace`] goes the
//!   other way, so the two forms are freely interchangeable.

use crate::{AddressMapKind, Direction, MemorySystem, Picos, Result, RunPacing, Stats};

/// One logical access of a request stream or an [`AccessTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Flat byte address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub bytes: u32,
    /// Read or write.
    pub dir: Direction,
}

/// A maximal run of equally-sized, equally-spaced ops pulled off a
/// stream in one step: beat *i* (`0 ≤ i < beats`) accesses
/// `op.addr + i·stride` with `op.bytes` bytes in direction `op.dir`.
///
/// A run carries no timing — it is purely an access-pattern
/// descriptor. Consumers that cannot exploit the structure simply
/// iterate the beats; [`MemorySystem::service_span`] serves a whole
/// strided run in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRun {
    /// The first beat.
    pub op: TraceOp,
    /// Number of beats (≥ 1).
    pub beats: u32,
    /// Address distance between consecutive beats (0 for a single
    /// beat).
    pub stride: u64,
}

impl TraceRun {
    /// Wraps one burst as a single-beat run.
    pub fn single(op: TraceOp) -> TraceRun {
        TraceRun {
            op,
            beats: 1,
            stride: 0,
        }
    }
}

/// A lazy, pull-based stream of burst requests with a known byte total.
///
/// Implementors are ordinary iterators of [`TraceOp`] that additionally
/// promise how many payload bytes the whole stream moves — the driver
/// uses the total for progress accounting without materializing the
/// stream. Generators are expected to hold O(1) state.
///
/// # Example
///
/// ```
/// use mem3d::{Direction, RequestSource, StridedSource};
///
/// let mut src = StridedSource::read(0, 8, 64, 4);
/// assert_eq!(src.total_bytes(), 32);
/// assert_eq!(src.next().unwrap().addr, 0);
/// assert_eq!(src.next().unwrap().addr, 64);
/// let rest = src.collect_trace();
/// assert_eq!(rest.len(), 2);
/// ```
pub trait RequestSource: Iterator<Item = TraceOp> {
    /// Total payload bytes the stream moves, known before pulling.
    fn total_bytes(&self) -> u64;

    /// Pulls the next [`TraceRun`]: a maximal strided run when the
    /// generator can describe one in O(1) (column walks over affine
    /// layouts), otherwise one single-beat run per op.
    ///
    /// Expanding every returned run beat by beat MUST reproduce the
    /// exact op sequence [`next`](Iterator::next) would have produced —
    /// runs only group the stream, they never reorder or merge it.
    fn next_run(&mut self) -> Option<TraceRun> {
        self.next().map(TraceRun::single)
    }

    /// Drains the stream into a materialized [`AccessTrace`].
    fn collect_trace(self) -> AccessTrace
    where
        Self: Sized,
    {
        self.collect()
    }
}

impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        (**self).next_run()
    }
}

impl<S: RequestSource + ?Sized> RequestSource for Box<S> {
    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        (**self).next_run()
    }
}

/// A strided request stream: `count` chunks of `bytes`, consecutive
/// chunk addresses `stride` bytes apart. O(1) state — the streaming
/// counterpart of [`AccessTrace::strided_read`].
#[derive(Debug, Clone)]
pub struct StridedSource {
    base: u64,
    bytes: u32,
    stride: u64,
    count: u64,
    next: u64,
    dir: Direction,
}

impl StridedSource {
    /// A strided read stream.
    pub fn read(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        Self::new(base, bytes, stride, count, Direction::Read)
    }

    /// A strided write stream.
    pub fn write(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        Self::new(base, bytes, stride, count, Direction::Write)
    }

    fn new(base: u64, bytes: u32, stride: u64, count: usize, dir: Direction) -> Self {
        StridedSource {
            base,
            bytes,
            stride,
            count: count as u64,
            next: 0,
            dir,
        }
    }
}

impl Iterator for StridedSource {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.next >= self.count {
            return None;
        }
        let op = TraceOp {
            addr: self.base + self.next * self.stride,
            bytes: self.bytes,
            dir: self.dir,
        };
        self.next += 1;
        Some(op)
    }
}

impl RequestSource for StridedSource {
    fn total_bytes(&self) -> u64 {
        self.count * self.bytes as u64
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        if self.next >= self.count {
            return None;
        }
        let beats = (self.count - self.next).min(u32::MAX as u64) as u32;
        let op = TraceOp {
            addr: self.base + self.next * self.stride,
            bytes: self.bytes,
            dir: self.dir,
        };
        self.next += beats as u64;
        Some(TraceRun {
            op,
            beats,
            stride: self.stride,
        })
    }
}

/// A borrowed stream over a materialized [`AccessTrace`] (see
/// [`AccessTrace::stream`]).
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    ops: std::slice::Iter<'a, TraceOp>,
    total: u64,
}

impl Iterator for TraceStream<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        self.ops.next().copied()
    }
}

impl RequestSource for TraceStream<'_> {
    fn total_bytes(&self) -> u64 {
        self.total
    }
}

/// Every beat of an open-loop replay arrives at time zero: an unbounded
/// prefetch window and no kernel pacing, so the device runs flat out.
pub(crate) const OPEN_LOOP: RunPacing = RunPacing {
    t_kernel_fs: 0,
    window_fs: u128::MAX,
    op_fs: 0,
    floor: Picos::ZERO,
    probe_beat: None,
};

/// Replays a request stream against `mem` using address map `map_kind`,
/// **open loop**: every access is available at time zero and the device
/// runs flat out (memory-bound bandwidth measurement). Constant memory
/// regardless of stream length.
///
/// Each pulled [`TraceRun`] is served whole by the phase driver's span
/// primitive, [`MemorySystem::service_span`], with an unbounded
/// prefetch window — bit-identical to servicing every op in stream
/// order.
///
/// Statistics accumulated in `mem` before the call are not cleared;
/// call [`MemorySystem::reset_stats`] first for an isolated
/// measurement. The returned [`TraceStats`] covers only this replay.
///
/// # Errors
///
/// Returns the first address-decoding error. The span stops at the
/// failing beat, so on error the [`ServicePath::Fast`] and
/// [`ServicePath::Reference`] paths have serviced the same prefix.
///
/// [`ServicePath::Fast`]: crate::ServicePath::Fast
/// [`ServicePath::Reference`]: crate::ServicePath::Reference
pub fn replay_stream(
    src: &mut dyn RequestSource,
    mem: &mut MemorySystem,
    map_kind: AddressMapKind,
) -> Result<TraceStats> {
    let before = mem.stats();
    let mut makespan = Picos::ZERO;
    while let Some(run) = src.next_run() {
        makespan = makespan.max(mem.service_span(map_kind, run, &OPEN_LOOP)?.last_done);
    }
    Ok(TraceStats {
        stats: mem.stats().delta(&before),
        makespan,
    })
}

/// An ordered sequence of memory accesses, materialized in memory.
///
/// # Example
///
/// ```
/// use mem3d::{replay_stream, AccessTrace, AddressMapKind, Geometry, MemorySystem, TimingParams};
///
/// let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
/// let trace = AccessTrace::strided_read(0, 8, 8192, 1024);
/// let stats = replay_stream(&mut trace.stream(), &mut mem, AddressMapKind::Chunked).unwrap();
/// assert_eq!(stats.stats.bytes_read, 8 * 1024);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    ops: Vec<TraceOp>,
}

impl AccessTrace {
    /// An empty trace.
    pub fn new() -> Self {
        AccessTrace::default()
    }

    /// A unit-stride read of `count` chunks of `bytes` starting at `base`.
    pub fn sequential_read(base: u64, bytes: u32, count: usize) -> Self {
        Self::strided_read(base, bytes, bytes as u64, count)
    }

    /// A strided read: `count` chunks of `bytes`, consecutive chunk
    /// addresses `stride` bytes apart.
    pub fn strided_read(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        StridedSource::read(base, bytes, stride, count).collect_trace()
    }

    /// A strided write with the same shape as [`strided_read`].
    ///
    /// [`strided_read`]: AccessTrace::strided_read
    pub fn strided_write(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        StridedSource::write(base, bytes, stride, count).collect_trace()
    }

    /// Appends one access.
    pub fn push(&mut self, addr: u64, bytes: u32, dir: Direction) {
        self.ops.push(TraceOp { addr, bytes, dir });
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the accesses in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceOp> {
        self.ops.iter()
    }

    /// A borrowing [`RequestSource`] over this trace, so materialized
    /// traces plug into every stream-consuming API.
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream {
            ops: self.ops.iter(),
            total: self.total_bytes(),
        }
    }

    /// Total bytes the trace moves.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|op| op.bytes as u64).sum()
    }
}

impl FromIterator<TraceOp> for AccessTrace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        AccessTrace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceOp> for AccessTrace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// Summary of one trace replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Counter deltas attributable to this replay.
    pub stats: Stats,
    /// When the last byte of the replay crossed the TSVs.
    pub makespan: Picos,
}

impl TraceStats {
    /// Achieved bandwidth for this replay in GB/s, over `[0, makespan]`.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.makespan == Picos::ZERO {
            return 0.0;
        }
        self.stats.bytes_total() as f64 / self.makespan.as_ps() as f64 * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, Geometry, MemorySystem, ServicePath, TimingParams};
    use std::collections::VecDeque;

    fn mem() -> MemorySystem {
        MemorySystem::new(Geometry::default(), TimingParams::default())
    }

    fn replay(t: &AccessTrace, m: &mut MemorySystem) -> Result<TraceStats> {
        replay_stream(&mut t.stream(), m, AddressMapKind::Chunked)
    }

    /// Strided sources back to back: a column walk's worth of runs in
    /// one stream.
    #[derive(Clone)]
    struct Runs(VecDeque<StridedSource>);

    impl Runs {
        fn one(src: StridedSource) -> Self {
            Runs(VecDeque::from([src]))
        }
    }

    impl Iterator for Runs {
        type Item = TraceOp;

        fn next(&mut self) -> Option<TraceOp> {
            loop {
                if let Some(op) = self.0.front_mut()?.next() {
                    return Some(op);
                }
                self.0.pop_front();
            }
        }
    }

    impl RequestSource for Runs {
        fn total_bytes(&self) -> u64 {
            self.0.iter().map(|s| s.total_bytes()).sum()
        }

        fn next_run(&mut self) -> Option<TraceRun> {
            loop {
                if let Some(run) = self.0.front_mut()?.next_run() {
                    return Some(run);
                }
                self.0.pop_front();
            }
        }
    }

    /// The default device, the same with refresh windows, and a
    /// non-power-of-two geometry (div/mod decode on the fast path).
    fn devices() -> [(Geometry, TimingParams); 3] {
        let odd = Geometry {
            vaults: 3,
            layers: 3,
            banks_per_layer: 5,
            rows_per_bank: 7,
            row_bytes: 256,
        };
        [
            (Geometry::default(), TimingParams::default()),
            (Geometry::default(), TimingParams::default().with_refresh()),
            (odd, TimingParams::default()),
        ]
    }

    /// Run-emitting streams covering every span shape: same-bank
    /// ascending rows (fused) with bank crossings and one-beat
    /// stretches, whole-row bursts hopping banks, non-row strides and
    /// row-splitting beats (all paced beat by beat).
    fn run_sources(g: &Geometry) -> Vec<Runs> {
        let row = g.row_bytes as u64;
        let rows = g.capacity_bytes() / row;
        let column_walk = |beats: u64| {
            Runs(
                (0..8)
                    .map(|c| StridedSource::read(c * 8, 8, row, beats as usize))
                    .collect(),
            )
        };
        let bank_end = (g.rows_per_bank as u64 - 1) * row;
        let hops = (rows / 2 - 1).min(40) as usize;
        let splits = (rows / 3 - 1).min(10) as usize;
        vec![
            column_walk(rows.min(64)),
            column_walk(rows.min(3 * g.rows_per_bank as u64)),
            Runs::one(StridedSource::read(bank_end, 8, row, 6)),
            Runs::one(StridedSource::write(row, row as u32, 2 * row, hops)),
            Runs::one(StridedSource::read(0, 8, 24, 100)),
            Runs::one(StridedSource::read(row / 2, row as u32, 3 * row, splits)),
        ]
    }

    /// Single-beat materialized traces: contiguous ops, a row split,
    /// and direction and size breaks.
    fn traces(g: &Geometry) -> Vec<AccessTrace> {
        let row = g.row_bytes as u64;
        let mut mixed = AccessTrace::sequential_read(64, 64, 32);
        mixed.push(64 + 32 * 64, 64, Direction::Write);
        mixed.push(0, 8, Direction::Read);
        vec![
            AccessTrace::sequential_read(0, 8, 512),
            AccessTrace::sequential_read(row - 16, 8, 64),
            mixed,
        ]
    }

    /// Replays the same stream on a Fast and a Reference device and
    /// asserts identical results (errors included) and statistics.
    fn assert_paths_agree(
        geom: Geometry,
        timing: TimingParams,
        kind: AddressMapKind,
        fast_src: &mut dyn RequestSource,
        ref_src: &mut dyn RequestSource,
    ) -> Result<TraceStats> {
        let mut fast = MemorySystem::new(geom, timing);
        let mut reference = MemorySystem::new(geom, timing);
        reference.set_service_path(ServicePath::Reference);
        let a = replay_stream(fast_src, &mut fast, kind);
        let b = replay_stream(ref_src, &mut reference, kind);
        assert_eq!(a, b, "{geom:?} {kind:?}");
        assert_eq!(fast.stats(), reference.stats(), "{geom:?} {kind:?}");
        a
    }

    #[test]
    fn builders_have_expected_shape() {
        let t = AccessTrace::sequential_read(0, 8, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_bytes(), 32);
        assert_eq!(t.iter().nth(3).unwrap().addr, 24);

        let s = AccessTrace::strided_read(100, 8, 64, 3);
        let addrs: Vec<u64> = s.iter().map(|o| o.addr).collect();
        assert_eq!(addrs, vec![100, 164, 228]);

        let w = AccessTrace::strided_write(0, 16, 32, 2);
        assert!(w.iter().all(|o| o.dir == Direction::Write));
        assert!(!w.is_empty());
        assert!(AccessTrace::new().is_empty());
    }

    #[test]
    fn strided_source_matches_materialized_trace() {
        let src = StridedSource::read(64, 8, 4096, 100);
        assert_eq!(src.total_bytes(), 800);
        let collected = src.collect_trace();
        assert_eq!(collected, AccessTrace::strided_read(64, 8, 4096, 100));
    }

    #[test]
    fn trace_stream_round_trips() {
        let t = AccessTrace::strided_write(8, 16, 32, 5);
        let s = t.stream();
        assert_eq!(s.total_bytes(), t.total_bytes());
        assert_eq!(s.collect_trace(), t);
    }

    #[test]
    fn open_loop_replay_matches_reference_path() {
        // The fast path fuses spans of each pulled run; the reference
        // path services op by op. Results and device statistics must be
        // bit-identical.
        for (geom, timing) in devices() {
            for kind in AddressMapKind::ALL {
                for src in run_sources(&geom) {
                    let stats =
                        assert_paths_agree(geom, timing, kind, &mut src.clone(), &mut src.clone())
                            .expect("in-range stream");
                    assert_eq!(stats.stats.bytes_total(), src.total_bytes());
                }
                for t in traces(&geom) {
                    assert_paths_agree(geom, timing, kind, &mut t.stream(), &mut t.stream())
                        .expect("in-range trace");
                }
            }
        }
    }

    #[test]
    fn replay_errors_leave_identical_state_on_both_paths() {
        // A stream running off the end of the device fails on the same
        // beat on both paths: spans fuse only bounds-checked beats.
        for (geom, timing) in devices() {
            let row = geom.row_bytes as u64;
            let cap = geom.capacity_bytes();
            let off_the_end = [
                Runs::one(StridedSource::read(cap - 3 * row, 8, row, 8)),
                Runs::one(StridedSource::read(cap - 5 * row, row as u32, row, 8)),
                Runs::one(StridedSource::read(cap - 64, 8, 8, 16)),
            ];
            for kind in AddressMapKind::ALL {
                for src in &off_the_end {
                    let err =
                        assert_paths_agree(geom, timing, kind, &mut src.clone(), &mut src.clone());
                    assert!(
                        matches!(err, Err(Error::OutOfRange { .. })),
                        "{geom:?} {kind:?}: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_replay_matches_trace_replay() {
        let t = AccessTrace::strided_read(0, 8, 8192, 512);
        let a = replay(&t, &mut mem()).unwrap();
        let b = replay_stream(
            &mut StridedSource::read(0, 8, 8192, 512),
            &mut mem(),
            AddressMapKind::Chunked,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: AccessTrace = (0..3)
            .map(|i| TraceOp {
                addr: i * 8,
                bytes: 8,
                dir: Direction::Read,
            })
            .collect();
        t.extend([TraceOp {
            addr: 64,
            bytes: 8,
            dir: Direction::Write,
        }]);
        t.push(128, 8, Direction::Read);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn replay_measures_only_its_own_delta() {
        let mut m = mem();
        // Pollute stats first.
        replay(&AccessTrace::sequential_read(0, 8, 10), &mut m).unwrap();
        let stats = replay(&AccessTrace::sequential_read(4096, 8, 5), &mut m).unwrap();
        assert_eq!(stats.stats.requests, 5);
        assert_eq!(stats.stats.bytes_read, 40);
    }

    #[test]
    fn sequential_beats_strided_on_chunked_map() {
        let mut m = mem();
        let seq = replay(&AccessTrace::sequential_read(0, 8, 2048), &mut m).unwrap();
        m.reset();
        let strided = replay(&AccessTrace::strided_read(0, 8, 8192, 2048), &mut m).unwrap();
        assert!(seq.bandwidth_gbps() > 10.0 * strided.bandwidth_gbps());
    }

    #[test]
    fn replay_propagates_decode_errors() {
        let mut m = mem();
        let cap = m.geometry().capacity_bytes();
        let t = AccessTrace::sequential_read(cap - 8, 8, 2);
        assert!(replay(&t, &mut m).is_err());
    }

    #[test]
    fn empty_trace_replay_is_zero() {
        let s = replay(&AccessTrace::new(), &mut mem()).unwrap();
        assert_eq!(s.bandwidth_gbps(), 0.0);
        assert_eq!(s.makespan, Picos::ZERO);
    }
}
