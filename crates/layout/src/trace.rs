//! Request-stream generation for the two FFT phases under any layout.
//!
//! The generators walk the matrix exactly as the corresponding
//! architecture does and *coalesce* runs of contiguous addresses into
//! single burst requests, as a real memory controller front-end would.
//!
//! Every generator is a **lazy stream** ([`mem3d::RequestSource`]): it
//! holds O(1) state (a handful of loop counters plus the current
//! coalescing run) and produces bursts on demand, so an N×N phase costs
//! constant memory instead of the O(N²) a materialized trace needs.
//! [`collect_stream`] materializes any of them into an [`AccessTrace`]
//! for small problems and golden tests.

use mem3d::{AccessTrace, Direction, RequestSource, TraceOp, TraceRun};

use crate::MatrixLayout;

/// Maximum burst length in bytes (one full 8 KiB row); longer runs are
/// chopped here and the memory system splits at row boundaries anyway.
pub const MAX_BURST_BYTES: u32 = 8192;

/// Stream adapter that coalesces an element-address stream into burst
/// requests.
///
/// Consecutive addresses that extend the current run are merged until
/// [`MAX_BURST_BYTES`]; any discontinuity emits the finished run and
/// starts a new one. The adapter holds only the current run — state is
/// O(1) no matter how long the input stream is.
///
/// The inner iterator yields `(addr, bytes)` element accesses; the
/// adapter implements [`RequestSource`] with the byte total supplied at
/// construction (the generators know it in closed form).
#[derive(Debug, Clone)]
pub struct Coalescer<I> {
    inner: I,
    dir: Direction,
    total: u64,
    run_start: u64,
    run_len: u32,
}

impl<I: Iterator<Item = (u64, u32)>> Coalescer<I> {
    /// Wraps an element-address stream, coalescing in the given
    /// direction. `total_bytes` is the payload total the inner stream
    /// will produce (reported via [`RequestSource::total_bytes`]).
    pub fn new(inner: I, dir: Direction, total_bytes: u64) -> Self {
        Coalescer {
            inner,
            dir,
            total: total_bytes,
            run_start: 0,
            run_len: 0,
        }
    }
}

impl<I: Iterator<Item = (u64, u32)>> Iterator for Coalescer<I> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        loop {
            match self.inner.next() {
                Some((addr, bytes)) => {
                    if self.run_len > 0
                        && addr == self.run_start + self.run_len as u64
                        && self.run_len + bytes <= MAX_BURST_BYTES
                    {
                        self.run_len += bytes;
                    } else {
                        let flushed = (self.run_len > 0).then_some(TraceOp {
                            addr: self.run_start,
                            bytes: self.run_len,
                            dir: self.dir,
                        });
                        self.run_start = addr;
                        self.run_len = bytes;
                        if flushed.is_some() {
                            return flushed;
                        }
                    }
                }
                None => {
                    if self.run_len > 0 {
                        let op = TraceOp {
                            addr: self.run_start,
                            bytes: self.run_len,
                            dir: self.dir,
                        };
                        self.run_len = 0;
                        return Some(op);
                    }
                    return None;
                }
            }
        }
    }
}

impl<I: Iterator<Item = (u64, u32)>> RequestSource for Coalescer<I> {
    fn total_bytes(&self) -> u64 {
        self.total
    }
}

/// Four-level nested-counter walk over matrix coordinates: the odometer
/// behind every rectangular phase walk. `map` turns the current digit
/// vector into one element access; state is four counters.
struct Walk4<F> {
    lens: [usize; 4],
    idx: [usize; 4],
    done: bool,
    map: F,
}

impl<F: FnMut(&[usize; 4]) -> (u64, u32)> Walk4<F> {
    fn new(lens: [usize; 4], map: F) -> Self {
        Walk4 {
            lens,
            idx: [0; 4],
            done: lens.contains(&0),
            map,
        }
    }
}

impl<F: FnMut(&[usize; 4]) -> (u64, u32)> Iterator for Walk4<F> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.done {
            return None;
        }
        let out = (self.map)(&self.idx);
        for d in (0..4).rev() {
            self.idx[d] += 1;
            if self.idx[d] < self.lens[d] {
                return Some(out);
            }
            self.idx[d] = 0;
        }
        self.done = true;
        Some(out)
    }
}

fn matrix_bytes(layout: &dyn MatrixLayout) -> u64 {
    (layout.n() * layout.n() * layout.elem_bytes()) as u64
}

/// The row phase as a lazy stream: every matrix row in order (read for
/// the row-wise FFT inputs, or write for storing its results).
pub fn row_phase_stream(layout: &dyn MatrixLayout, dir: Direction) -> impl RequestSource + '_ {
    let n = layout.n();
    let e = layout.elem_bytes() as u32;
    let walk = Walk4::new([1, 1, n, n], move |i: &[usize; 4]| {
        (layout.addr(i[2], i[3]), e)
    });
    Coalescer::new(walk, dir, matrix_bytes(layout))
}

/// A run of equally-spaced element accesses: element *i* lives at
/// `base + i·stride`. The column-phase walk is a concatenation of such
/// segments, so describing it segment-wise costs O(1) per *segment*
/// instead of one virtual [`MatrixLayout::addr`] call per *element* —
/// and hands [`RequestSource::next_run`] whole strided runs for the
/// memory system's paced fast path.
#[derive(Debug, Clone, Copy)]
struct Seg {
    base: u64,
    count: u64,
    stride: u64,
}

/// Segment decomposition of the column-phase walk (ragged final band
/// included): columns in groups of `group`, each group swept band by
/// band of `run` rows, all `group` columns' segments per band before
/// moving down.
///
/// Four regimes, finest last:
/// * `group == 1` with a constant [`MatrixLayout::row_stride`] — one
///   segment per whole column (bands of one column concatenate into a
///   single arithmetic progression); this is the baseline strided sweep.
/// * constant `row_stride` — one segment per (group, band, column).
/// * **whole-group blocks** — no constant stride, but the layout stores
///   each aligned `group × run` cell contiguously
///   ([`MatrixLayout::group_block_addr`]): one unit-stride segment per
///   cell, O(1) instead of `group·run` element steps. This is the
///   grouped block-DDL column phase — the walk that used to fall all
///   the way through to the per-element regime and pay ~`N²` virtual
///   address calls on both service paths.
/// * no constant stride (tile seams, misaligned groups) — one segment
///   per element, preserving today's per-element walk exactly.
struct ColSegs<'a> {
    layout: &'a dyn MatrixLayout,
    n: usize,
    group: usize,
    run: usize,
    row_stride: Option<u64>,
    /// Element size in bytes (the block regime's segment stride).
    elem: u64,
    /// Whole-group block regime engaged (see above).
    block: bool,
    /// First column of the current group.
    g: usize,
    /// First row of the current band.
    band: usize,
    /// Column offset within the group.
    c: usize,
    /// Row offset within the band (per-element regime only).
    r: usize,
    done: bool,
}

impl Iterator for ColSegs<'_> {
    type Item = Seg;

    fn next(&mut self) -> Option<Seg> {
        if self.done {
            return None;
        }
        if self.block {
            // One contiguous segment per aligned (group, band) cell; the
            // element expansion (base, base+e, …) is exactly the
            // per-element regime's visit order, columns-outer /
            // rows-inner — that is the `group_block_addr` contract.
            let seg = Seg {
                base: self
                    .layout
                    .group_block_addr(self.band, self.g, self.group)
                    .expect("every aligned cell of an engaged block regime is contiguous"),
                count: (self.group * self.run) as u64,
                stride: self.elem,
            };
            self.band += self.run;
            if self.band >= self.n {
                self.band = 0;
                self.g += self.group;
                self.done = self.g >= self.n;
            }
            return Some(seg);
        }
        if let Some(stride) = self.row_stride {
            if self.group == 1 {
                // Bands of one column are vertically contiguous: the
                // whole column is one arithmetic progression.
                let seg = Seg {
                    base: self.layout.addr(0, self.g),
                    count: self.n as u64,
                    stride,
                };
                self.g += 1;
                self.done = self.g >= self.n;
                return Some(seg);
            }
            let band_rows = (self.n - self.band).min(self.run);
            let seg = Seg {
                base: self.layout.addr(self.band, self.g + self.c),
                count: band_rows as u64,
                stride,
            };
            self.c += 1;
            if self.c >= self.group {
                self.c = 0;
                self.band += self.run;
                if self.band >= self.n {
                    self.band = 0;
                    self.g += self.group;
                    self.done = self.g >= self.n;
                }
            }
            return Some(seg);
        }
        // Per-element fallback: the layout's column walk has no single
        // stride, so segments degenerate to single accesses.
        let seg = Seg {
            base: self.layout.addr(self.band + self.r, self.g + self.c),
            count: 1,
            stride: 0,
        };
        self.r += 1;
        if self.r >= (self.n - self.band).min(self.run) {
            self.r = 0;
            self.c += 1;
            if self.c >= self.group {
                self.c = 0;
                self.band += self.run;
                if self.band >= self.n {
                    self.band = 0;
                    self.g += self.group;
                    if self.g >= self.n {
                        self.done = true;
                    }
                }
            }
        }
        Some(seg)
    }
}

/// The column-phase request stream: expands [`ColSegs`] element by
/// element through exactly the [`Coalescer`] merge rule (so `next()` is
/// bit-identical to the historical walk), while
/// [`next_run`](RequestSource::next_run) short-circuits a strided
/// segment into one [`TraceRun`] descriptor — O(1) instead of O(count).
pub struct ColPhaseStream<'a> {
    segs: ColSegs<'a>,
    e: u32,
    dir: Direction,
    total: u64,
    /// Current segment being expanded, with the next element's index.
    cur: Option<Seg>,
    pos: u64,
    /// Pending coalescing run (same invariants as [`Coalescer`]).
    run_start: u64,
    run_len: u32,
}

impl ColPhaseStream<'_> {
    /// Next element address, advancing the segment cursor.
    fn next_element(&mut self) -> Option<u64> {
        loop {
            if let Some(s) = self.cur {
                if self.pos < s.count {
                    let addr = s.base + self.pos * s.stride;
                    self.pos += 1;
                    return Some(addr);
                }
            }
            self.cur = Some(self.segs.next()?);
            self.pos = 0;
        }
    }

    /// Loads the segment cursor without consuming, returning the
    /// upcoming segment (with `pos` pointing at its next element), or
    /// `None` when the walk is exhausted.
    fn peek_segment(&mut self) -> Option<Seg> {
        loop {
            match self.cur {
                Some(s) if self.pos < s.count => return Some(s),
                _ => {
                    self.cur = Some(self.segs.next()?);
                    self.pos = 0;
                }
            }
        }
    }
}

impl Iterator for ColPhaseStream<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        // Verbatim `Coalescer` logic over the expanded element stream.
        loop {
            match self.next_element() {
                Some(addr) => {
                    if self.run_len > 0
                        && addr == self.run_start + self.run_len as u64
                        && self.run_len + self.e <= MAX_BURST_BYTES
                    {
                        self.run_len += self.e;
                    } else {
                        let flushed = (self.run_len > 0).then_some(TraceOp {
                            addr: self.run_start,
                            bytes: self.run_len,
                            dir: self.dir,
                        });
                        self.run_start = addr;
                        self.run_len = self.e;
                        if flushed.is_some() {
                            return flushed;
                        }
                    }
                }
                None => {
                    if self.run_len > 0 {
                        let op = TraceOp {
                            addr: self.run_start,
                            bytes: self.run_len,
                            dir: self.dir,
                        };
                        self.run_len = 0;
                        return Some(op);
                    }
                    return None;
                }
            }
        }
    }
}

impl RequestSource for ColPhaseStream<'_> {
    fn total_bytes(&self) -> u64 {
        self.total
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        let Some(s) = self.peek_segment() else {
            // Exhausted: `next()` drains the pending run, if any.
            return self.next().map(TraceRun::single);
        };
        let addr = s.base + self.pos * s.stride;
        if self.run_len > 0 {
            let mergeable = addr == self.run_start + self.run_len as u64
                && self.run_len + self.e <= MAX_BURST_BYTES;
            if mergeable {
                // The pending burst grows into the upcoming element:
                // only the scalar path tracks that.
                return self.next().map(TraceRun::single);
            }
            // The upcoming element cannot extend the pending burst, so
            // the burst is complete: emit it without touching the
            // cursor — exactly what `next()` would return.
            let op = TraceOp {
                addr: self.run_start,
                bytes: self.run_len,
                dir: self.dir,
            };
            self.run_len = 0;
            return Some(TraceRun::single(op));
        }
        if self.pos == 0
            && s.stride == self.e as u64
            && s.count * self.e as u64 == MAX_BURST_BYTES as u64
        {
            // A fully-contiguous segment of exactly one maximum-size
            // burst: nothing pending precedes it (checked above) and no
            // later element can extend it (the cap is reached), so the
            // coalescer would emit it verbatim — recognized here in
            // O(1) instead of O(count) element steps. A train of
            // equally-spaced such segments then folds into one
            // multi-beat run of whole-row bursts: the shape the grouped
            // block-DDL column phase emits and the memory system's
            // cross-bank span fuser consumes.
            let first = s.base;
            self.pos = s.count;
            let mut beats: u64 = 1;
            let mut last = first;
            let mut delta = 0u64;
            while beats < u32::MAX as u64 {
                let Some(next) = self.peek_segment() else {
                    break;
                };
                if next.stride != self.e as u64
                    || next.count * self.e as u64 != MAX_BURST_BYTES as u64
                {
                    break;
                }
                // The burst-to-burst step must be constant and forward;
                // the block layouts' diagonal wrap-around seams show up
                // as a backwards step and end the run here.
                let Some(step) = next.base.checked_sub(last).filter(|&d| d > 0) else {
                    break;
                };
                if beats == 1 {
                    delta = step;
                } else if step != delta {
                    break;
                }
                self.pos = next.count;
                last = next.base;
                beats += 1;
            }
            return Some(TraceRun {
                op: TraceOp {
                    addr: first,
                    bytes: MAX_BURST_BYTES,
                    dir: self.dir,
                },
                beats: beats as u32,
                stride: delta,
            });
        }
        let rem = s.count - self.pos;
        if rem >= 3 && s.stride != self.e as u64 {
            // No two elements of a non-unit-stride segment coalesce, so
            // all but the segment's last element form one strided run.
            // The last element stays behind: it may yet coalesce with
            // whatever follows the segment, and only `next()` knows.
            let beats = (rem - 1).min(u32::MAX as u64) as u32;
            self.pos += beats as u64;
            return Some(TraceRun {
                op: TraceOp {
                    addr,
                    bytes: self.e,
                    dir: self.dir,
                },
                beats,
                stride: s.stride,
            });
        }
        self.next().map(TraceRun::single)
    }
}

/// The column phase as a lazy stream: columns are processed in groups of
/// `group` consecutive columns (the paper: "data inputs of several
/// consecutive column-wise 1D FFTs will be moved from vaults to local
/// memory together"). Within a group the walk is block-friendly: for
/// each band of [`column_run`](MatrixLayout::column_run) rows, all
/// `group` columns' segments are fetched before moving down.
///
/// With `group = 1` this degenerates to the baseline strided column walk.
///
/// # Panics
///
/// Panics if `group` is zero or does not divide `n`.
pub fn col_phase_stream(
    layout: &dyn MatrixLayout,
    dir: Direction,
    group: usize,
) -> impl RequestSource + '_ {
    let n = layout.n();
    assert!(
        group > 0 && n.is_multiple_of(group),
        "group {group} must divide n {n}"
    );
    let run = layout.column_run().min(n);
    let row_stride = layout.row_stride();
    // The whole-group block regime needs unragged bands and a layout
    // that stores the first aligned cell contiguously; by the
    // `group_block_addr` contract (alignment-only conditions) every
    // later cell of the walk is then contiguous too.
    let block = row_stride.is_none()
        && n.is_multiple_of(run)
        && layout.group_block_addr(0, 0, group).is_some();
    ColPhaseStream {
        segs: ColSegs {
            layout,
            n,
            group,
            run,
            row_stride,
            elem: layout.elem_bytes() as u64,
            block,
            g: 0,
            band: 0,
            c: 0,
            r: 0,
            done: n == 0,
        },
        e: layout.elem_bytes() as u32,
        dir,
        total: matrix_bytes(layout),
        cur: None,
        pos: 0,
        run_start: 0,
        run_len: 0,
    }
}

/// The banded write-back stream shared by every block family: after the
/// permutation network has buffered a band of `h` matrix rows, whole
/// `w × h` blocks are emitted left to right, band by band, in the
/// within-block *column-major* order the block families store — so each
/// block coalesces into one contiguous burst wherever the layout keeps
/// it contiguous.
///
/// [`band_block_write_stream`] is the [`crate::BlockDynamic`]
/// instantiation; the burst-interleaved and irredundant families reuse
/// the same walk with their own `(w, h)`.
pub fn block_write_stream(
    layout: &dyn MatrixLayout,
    w: usize,
    h: usize,
) -> impl RequestSource + '_ {
    let n = layout.n();
    let e = layout.elem_bytes() as u32;
    let walk = Walk4::new([n / h, n / w, w, h], move |i: &[usize; 4]| {
        (layout.addr(i[0] * h + i[3], i[1] * w + i[2]), e)
    });
    Coalescer::new(walk, Direction::Write, matrix_bytes(layout))
}

/// The write-back stream of the optimized row phase: after the
/// permutation network has buffered a band of `h` matrix rows, it emits
/// whole `w × h` blocks — full memory rows — left to right, band by
/// band. Every burst is one contiguous DRAM row.
pub fn band_block_write_stream(layout: &crate::BlockDynamic) -> impl RequestSource + '_ {
    block_write_stream(layout, layout.w, layout.h)
}

/// The column phase of the tiled (Akin et al.) architecture as a lazy
/// stream: whole tiles are fetched — one contiguous burst each — in
/// tile-*column*-major order, and an on-chip transposer
/// (`permute::TileTransposer`) peels the column segments out locally.
pub fn tile_sweep_stream(layout: &crate::Tiled, dir: Direction) -> impl RequestSource + '_ {
    let n = layout.n();
    let e = layout.elem_bytes() as u32;
    let (tr, tc) = (layout.tile_rows(), layout.tile_cols());
    // Row-major within the tile = ascending addresses.
    let walk = Walk4::new([n / tc, n / tr, tr, tc], move |i: &[usize; 4]| {
        (layout.addr(i[1] * tr + i[2], i[0] * tc + i[3]), e)
    });
    Coalescer::new(walk, dir, matrix_bytes(layout))
}

/// The write-back stream of the tiled architecture's row phase: after
/// buffering `tile_rows` matrix rows, whole tiles are emitted left to
/// right (mirror of [`band_block_write_stream`] for the Akin layout).
pub fn tile_band_write_stream(layout: &crate::Tiled) -> impl RequestSource + '_ {
    let n = layout.n();
    let e = layout.elem_bytes() as u32;
    let (tr, tc) = (layout.tile_rows(), layout.tile_cols());
    let walk = Walk4::new([n / tr, n / tc, tr, tc], move |i: &[usize; 4]| {
        (layout.addr(i[0] * tr + i[2], i[1] * tc + i[3]), e)
    });
    Coalescer::new(walk, Direction::Write, matrix_bytes(layout))
}

/// Materializes any stream — including a boxed [`crate::LayoutFamily`]
/// stream — into an [`AccessTrace`] for small problems and golden
/// tests.
pub fn collect_stream(src: &mut dyn RequestSource) -> AccessTrace {
    let mut trace = AccessTrace::new();
    for op in &mut *src {
        trace.push(op.addr, op.bytes, op.dir);
    }
    trace
}

/// Convenience: the number of burst requests the column phase generates
/// per column, a direct proxy for row-activation pressure. Counts the
/// stream without materializing it.
pub fn col_bursts_per_column(layout: &dyn MatrixLayout, group: usize) -> f64 {
    let bursts = col_phase_stream(layout, Direction::Read, group).count();
    bursts as f64 / layout.n() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDynamic, LayoutParams, RowMajor};
    use mem3d::{Geometry, TimingParams};

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    /// Coalesces a literal element list (push-style shim for the tests).
    fn coalesce(elems: &[(u64, u32)], dir: Direction) -> AccessTrace {
        let total = elems.iter().map(|&(_, b)| b as u64).sum();
        Coalescer::new(elems.iter().copied(), dir, total).collect_trace()
    }

    #[test]
    fn coalescer_merges_contiguous_runs() {
        let t = coalesce(
            &[(0, 8), (8, 8), (16, 8), (100, 8), (108, 8)],
            Direction::Read,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_bytes(), 40);
        let ops: Vec<_> = t.iter().collect();
        assert_eq!((ops[0].addr, ops[0].bytes), (0, 24));
        assert_eq!((ops[1].addr, ops[1].bytes), (100, 16));
    }

    #[test]
    fn coalescer_respects_burst_cap() {
        let elems: Vec<(u64, u32)> = (0..3000u64).map(|i| (i * 8, 8)).collect();
        let t = coalesce(&elems, Direction::Write);
        assert!(t.iter().all(|op| op.bytes <= MAX_BURST_BYTES));
        assert_eq!(t.total_bytes(), 24_000);
    }

    #[test]
    fn coalescer_reports_total_up_front() {
        let n = 128;
        let l = RowMajor::new(&params(n));
        let s = row_phase_stream(&l, Direction::Read);
        assert_eq!(s.total_bytes(), (n * n * 8) as u64);
        // The promise holds after draining too.
        let drained: u64 = s.map(|op| op.bytes as u64).sum();
        assert_eq!(drained, (n * n * 8) as u64);
    }

    #[test]
    fn row_phase_on_row_major_is_fully_coalesced() {
        let n = 64;
        let l = RowMajor::new(&params(n));
        let t = collect_stream(&mut row_phase_stream(&l, Direction::Read));
        // Adjacent rows are themselves contiguous, so the whole 32 KiB
        // matrix coalesces into max-size bursts.
        assert_eq!(t.len(), (n * n * 8) / MAX_BURST_BYTES as usize);
        assert!(t.iter().all(|op| op.bytes == MAX_BURST_BYTES));
        assert_eq!(t.total_bytes(), (n * n * 8) as u64);
    }

    #[test]
    fn col_phase_on_row_major_cannot_coalesce() {
        let n = 64;
        let l = RowMajor::new(&params(n));
        let t = collect_stream(&mut col_phase_stream(&l, Direction::Read, 1));
        assert_eq!(t.len(), n * n, "every element is its own burst");
    }

    #[test]
    fn col_phase_on_block_layout_coalesces_into_segments() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        let t = collect_stream(&mut col_phase_stream(&l, Direction::Read, 1));
        // Each column is n/h = 8 segments of h = 64 elements; the walk
        // occasionally merges a group boundary, so allow a small slack.
        let expect = n * (n / 64);
        assert!(t.len() <= expect && t.len() >= expect - n);
        let per_col = col_bursts_per_column(&l, 1);
        assert!((per_col - 8.0).abs() < 0.5, "got {per_col} bursts/column");
    }

    #[test]
    fn grouped_col_phase_reads_whole_blocks() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        // Group = w = 16 columns: each block is one contiguous memory row.
        let t = collect_stream(&mut col_phase_stream(&l, Direction::Read, l.w));
        assert_eq!(
            t.len(),
            (n / 64) * (n / l.w),
            "one burst per block: blocks_down × block_cols"
        );
        assert!(t.iter().all(|op| op.bytes == 8192));
    }

    #[test]
    fn traces_cover_the_whole_matrix_once() {
        let n = 128;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 16).unwrap();
        for t in [
            collect_stream(&mut row_phase_stream(&l, Direction::Read)),
            collect_stream(&mut col_phase_stream(&l, Direction::Read, 1)),
            collect_stream(&mut col_phase_stream(&l, Direction::Read, l.w)),
        ] {
            assert_eq!(t.total_bytes(), (n * n * 8) as u64);
        }
    }

    #[test]
    fn tile_traces_move_whole_tiles() {
        use crate::Tiled;
        let n = 256;
        let p = params(n);
        let t = Tiled::row_buffer_sized(&p).unwrap(); // 32x32 tiles
        let sweep = collect_stream(&mut tile_sweep_stream(&t, Direction::Read));
        assert_eq!(sweep.total_bytes(), (n * n * 8) as u64);
        // Each tile is one row-buffer-sized burst (up to coalescing of
        // address-adjacent tiles, capped at one row).
        assert!(sweep
            .iter()
            .all(|op| (op.bytes as usize).is_multiple_of(p.s * p.elem_bytes)));
        let writes = collect_stream(&mut tile_band_write_stream(&t));
        assert_eq!(writes.total_bytes(), (n * n * 8) as u64);
        assert!(writes.iter().all(|op| op.dir == Direction::Write));
    }

    #[test]
    fn band_block_writes_are_whole_rows() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        let t = collect_stream(&mut band_block_write_stream(&l));
        // Bursts coalesce across consecutive block indexes too, so each
        // op is a multiple of the 8 KiB row up to the cap.
        assert!(t
            .iter()
            .all(|op| (op.bytes as usize).is_multiple_of(p.s * p.elem_bytes)));
        assert_eq!(t.total_bytes(), (n * n * 8) as u64);
        assert!(t.iter().all(|op| op.dir == Direction::Write));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn col_phase_group_must_divide_n() {
        let l = RowMajor::new(&params(64));
        let _ = collect_stream(&mut col_phase_stream(&l, Direction::Read, 3));
    }

    /// Expands `next_run()` beat by beat into the op sequence it stands
    /// for (the [`RequestSource`] contract).
    fn expand_runs(src: &mut dyn RequestSource) -> Vec<TraceOp> {
        let mut out = Vec::new();
        while let Some(run) = src.next_run() {
            let mut op = run.op;
            for _ in 0..run.beats {
                out.push(op);
                op.addr += run.stride;
            }
        }
        out
    }

    #[test]
    fn next_run_expansion_reproduces_the_op_sequence() {
        // The run-granular view must describe the exact op stream:
        // grouping only, never reordering or re-coalescing — across the
        // baseline strided sweep (multi-beat runs), contiguous
        // column-major columns (coalesced bursts), grouped block
        // layouts and the per-element tile fallback.
        let n = 64;
        let p = params(n);
        let rm = RowMajor::new(&p);
        let rmi = RowMajor::interleaved(&p);
        let cm = crate::ColMajor::new(&p);
        let ddl = BlockDynamic::with_height(&p, 16).unwrap();
        let t = crate::Tiled::row_buffer_sized(&p).unwrap();
        let cases: Vec<(Vec<TraceOp>, Vec<TraceOp>)> = vec![
            (
                expand_runs(&mut col_phase_stream(&rm, Direction::Read, 1)),
                col_phase_stream(&rm, Direction::Read, 1).collect(),
            ),
            (
                expand_runs(&mut col_phase_stream(&rmi, Direction::Write, 4)),
                col_phase_stream(&rmi, Direction::Write, 4).collect(),
            ),
            (
                expand_runs(&mut col_phase_stream(&cm, Direction::Read, 1)),
                col_phase_stream(&cm, Direction::Read, 1).collect(),
            ),
            (
                expand_runs(&mut col_phase_stream(&ddl, Direction::Read, ddl.w)),
                col_phase_stream(&ddl, Direction::Read, ddl.w).collect(),
            ),
            (
                expand_runs(&mut col_phase_stream(&ddl, Direction::Read, 1)),
                col_phase_stream(&ddl, Direction::Read, 1).collect(),
            ),
            (
                expand_runs(&mut tile_sweep_stream(&t, Direction::Read)),
                tile_sweep_stream(&t, Direction::Read).collect(),
            ),
        ];
        for (i, (runs, ops)) in cases.iter().enumerate() {
            assert_eq!(runs, ops, "case {i} diverged");
        }
        // The baseline sweep really is run-granular: one (n−1)-beat run
        // plus the held-back last element per column.
        let mut s = col_phase_stream(&rm, Direction::Read, 1);
        let first = s.next_run().unwrap();
        assert_eq!(first.beats as usize, n - 1);
        assert_eq!(first.stride, (n * 8) as u64);
    }

    #[test]
    fn next_run_interleaves_with_next() {
        // Mixing granularities on one stream must still walk the same
        // sequence: alternate next()/next_run() and compare against the
        // pure op stream.
        let n = 64;
        let p = params(n);
        let rm = RowMajor::new(&p);
        let pure: Vec<TraceOp> = col_phase_stream(&rm, Direction::Read, 1).collect();
        let mut mixed = Vec::new();
        let mut s = col_phase_stream(&rm, Direction::Read, 1);
        while let Some(op) = s.next() {
            mixed.push(op);
            let Some(run) = s.next_run() else { break };
            let mut op = run.op;
            for _ in 0..run.beats {
                mixed.push(op);
                op.addr += run.stride;
            }
        }
        assert_eq!(mixed, pure);
    }
}
