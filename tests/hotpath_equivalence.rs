//! The request-servicing fast path's contract: the cached shift/mask +
//! decode-once + closed-form-run implementation
//! ([`mem3d::ServicePath::Fast`]) must be **byte-identical** to the
//! original scalar path ([`mem3d::ServicePath::Reference`]) in every
//! observable — per-request [`mem3d::RequestOutcome`]s, accumulated
//! [`mem3d::Stats`], and whole-phase [`PhaseReport`]s — across random
//! layouts, geometries and driver configurations. If this holds, the
//! hot-path overhaul is invisible to every consumer.

use fft2d::{run_phase, DriverConfig, Fft2dError, PhaseReport};
use layout::{
    band_block_write_stream, col_phase_stream, row_phase_stream, tile_band_write_stream,
    tile_sweep_stream, BlockDynamic, LayoutParams, MatrixLayout, RowMajor, Tiled,
};
use mem3d::{
    AddressMapKind, Direction, Geometry, MemorySystem, Picos, RequestSource, ServicePath,
    StridedSource, TimingParams, TraceOp,
};
use sim_util::{par_check, prop_assert, prop_assert_eq};

/// Draws a valid geometry; roughly half the draws have a
/// non-power-of-two dimension, exercising the div/mod decode fallback
/// on the fast path as well.
fn random_geom(rng: &mut sim_util::SimRng) -> Geometry {
    let dim = |rng: &mut sim_util::SimRng, pow2: bool| -> usize {
        if pow2 {
            1 << rng.gen_range(0u32..4)
        } else {
            rng.gen_range(1usize..12)
        }
    };
    let pow2 = rng.gen_bool();
    Geometry {
        vaults: dim(rng, pow2),
        layers: dim(rng, pow2),
        banks_per_layer: dim(rng, pow2),
        rows_per_bank: dim(rng, pow2).max(2),
        row_bytes: 1 << rng.gen_range(6u32..12),
    }
}

/// Runs one phase twice — on a fast-path device and on a reference-path
/// device — from identically-generated streams, returning both reports
/// and both devices for state comparison.
fn phase_both_paths(
    geom: Geometry,
    timing: TimingParams,
    cfg: &DriverConfig,
    start: Picos,
    reads: (&mut dyn RequestSource, &mut dyn RequestSource),
    read_map: AddressMapKind,
    writes: Option<(
        &mut dyn RequestSource,
        &mut dyn RequestSource,
        AddressMapKind,
    )>,
) -> (PhaseReport, PhaseReport, MemorySystem, MemorySystem) {
    let (reads_fast, reads_ref) = reads;
    let (writes_fast, writes_ref, write_map) = match writes {
        Some((a, b, map)) => (Some(a), Some(b), Some(map)),
        None => (None, None, None),
    };

    let mut fast = MemorySystem::new(geom, timing);
    assert_eq!(fast.service_path(), ServicePath::Fast);
    let fast_report = run_phase(
        &mut fast,
        cfg,
        reads_fast,
        read_map,
        writes_fast.map(|w| (w, write_map.unwrap())),
        start,
    )
    .expect("fast-path phase");

    let mut reference = MemorySystem::new(geom, timing);
    reference.set_service_path(ServicePath::Reference);
    let ref_report = run_phase(
        &mut reference,
        cfg,
        reads_ref,
        read_map,
        writes_ref.map(|w| (w, write_map.unwrap())),
        start,
    )
    .expect("reference-path phase");

    (fast_report, ref_report, fast, reference)
}

#[test]
fn fast_and_reference_phases_are_byte_identical() {
    par_check!(cases: 48, |rng| {
        let n = 1usize << rng.gen_range(4u32..8); // 16..=128
        let cfg = DriverConfig {
            ps_per_byte: [3.9, 31.25, 125.0][rng.gen_range(0usize..3)],
            window_bytes: 1u64 << rng.gen_range(10u32..19),
            write_delay: Picos::from_ns(rng.gen_range(0u64..2000)),
            latency_probe_bytes: if rng.gen_bool() { (n * 8) as u64 } else { 0 },
        };
        let start = Picos(rng.gen_range(0u64..1 << 40));
        let with_writes = rng.gen_bool();
        let timing = if rng.gen_bool() {
            TimingParams::default()
        } else {
            TimingParams::default().with_refresh()
        };

        let (fast, reference, mem_fast, mem_ref) = match rng.gen_range(0usize..3) {
            // Column phase over a row-major layout on a *random* pow2
            // geometry (the strided baseline pattern), row-major
            // write-back.
            0 => {
                let geom = Geometry {
                    vaults: 1 << rng.gen_range(0u32..5),
                    layers: 1 << rng.gen_range(0u32..3),
                    banks_per_layer: 1 << rng.gen_range(0u32..4),
                    rows_per_bank: 1 << rng.gen_range(10u32..14),
                    row_bytes: 1 << rng.gen_range(10u32..14),
                };
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = if rng.gen_bool() {
                    RowMajor::new(&p)
                } else {
                    RowMajor::interleaved(&p)
                };
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    with_writes.then_some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        l.map_kind(),
                    )),
                );
                r
            }
            // Column phase over the block DDL, band write-back.
            1 => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let heights = p.valid_block_heights();
                let h = heights[rng.gen_range(0usize..heights.len())];
                let ddl = BlockDynamic::with_height(&p, h).expect("feasible height");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                    ),
                    ddl.map_kind(),
                    with_writes.then_some((
                        &mut band_block_write_stream(&ddl) as &mut dyn RequestSource,
                        &mut band_block_write_stream(&ddl) as &mut dyn RequestSource,
                        ddl.map_kind(),
                    )),
                );
                r
            }
            // Tile sweep over the Akin et al. tiling, tile write-back.
            _ => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let t = Tiled::row_buffer_sized(&p).expect("tiled layout");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut tile_sweep_stream(&t, Direction::Read),
                        &mut tile_sweep_stream(&t, Direction::Read),
                    ),
                    t.map_kind(),
                    with_writes.then_some((
                        &mut tile_band_write_stream(&t) as &mut dyn RequestSource,
                        &mut tile_band_write_stream(&t) as &mut dyn RequestSource,
                        t.map_kind(),
                    )),
                );
                r
            }
        };
        prop_assert!(
            fast == reference,
            "reports diverged for n = {n}:\n  fast:      {fast:?}\n  reference: {reference:?}"
        );
        prop_assert_eq!(
            mem_fast.stats(),
            mem_ref.stats(),
            "device statistics diverged for n = {}",
            n
        );
    });
}

#[test]
fn event_core_fallback_boundaries_are_byte_identical() {
    // The skip-ahead core's contention boundaries, each differentially
    // proven against the Reference pipeline: refresh windows (always on
    // here — the same-bank closed form declines, every span is paced
    // beat by beat *through* them), TSV-saturation crossings (kernel rates
    // from far-memory-bound to far-kernel-bound, windows from a few
    // beats to effectively unbounded) and non-power-of-two geometries
    // (div/mod decode underneath `service_span`).
    par_check!(cases: 64, |rng| {
        let n = 1usize << rng.gen_range(4u32..8); // 16..=128
        let cfg = DriverConfig {
            // 0.5 ps/B: the kernel outruns the TSVs, every span is
            // memory-bound and crosses the saturation boundary.
            // 2000 ps/B: arrivals spread out, spans are conflict-free.
            ps_per_byte: [0.5, 3.9, 125.0, 2000.0][rng.gen_range(0usize..4)],
            window_bytes: 1u64 << rng.gen_range(3u32..22),
            write_delay: Picos::from_ns(rng.gen_range(0u64..500)),
            latency_probe_bytes: if rng.gen_bool() { (n * 4) as u64 } else { 0 },
        };
        let start = Picos(rng.gen_range(0u64..1 << 30));
        let timing = TimingParams::default().with_refresh();

        let (fast, reference, mem_fast, mem_ref) = match rng.gen_range(0usize..3) {
            // Grouped block-DDL column phase: whole-row cross-bank runs
            // paced through refresh windows.
            0 => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let heights = p.valid_block_heights();
                let h = heights[rng.gen_range(0usize..heights.len())];
                let ddl = BlockDynamic::with_height(&p, h).expect("feasible height");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                    ),
                    ddl.map_kind(),
                    None,
                );
                r
            }
            // Baseline strided sweep on a non-power-of-two geometry
            // sized to hold the matrix: row-multiple and odd strides
            // alike go through the span's per-beat loop.
            1 => {
                let vaults = rng.gen_range(1usize..12);
                let layers = rng.gen_range(1usize..5);
                let banks = rng.gen_range(1usize..7);
                let row_bytes = 1usize << rng.gen_range(6u32..12);
                let need = (n * n * 8) as u64;
                let rows = (need.div_ceil((vaults * layers * banks * row_bytes) as u64) as usize)
                    .max(2);
                let geom = Geometry {
                    vaults,
                    layers,
                    banks_per_layer: banks,
                    rows_per_bank: rows,
                    row_bytes,
                };
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = RowMajor::new(&p);
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    None,
                );
                r
            }
            // Interleaved strided sweep with a write side: the event
            // driver must keep every beat scalar (writes need per-beat
            // attention) and still match exactly.
            _ => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = RowMajor::interleaved(&p);
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    Some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        l.map_kind(),
                    )),
                );
                r
            }
        };
        prop_assert!(
            fast == reference,
            "reports diverged for n = {n}:\n  fast:      {fast:?}\n  reference: {reference:?}"
        );
        prop_assert_eq!(
            mem_fast.stats(),
            mem_ref.stats(),
            "device statistics diverged for n = {}",
            n
        );
    });
}

#[test]
fn zero_byte_reads_fail_identically_on_both_paths() {
    // A run of empty beats must surface the same BadRequest through the
    // event core as through the reference pipeline, and leave both
    // devices untouched.
    let geom = Geometry::default();
    let cfg = DriverConfig {
        ps_per_byte: 31.25,
        window_bytes: 1 << 16,
        write_delay: Picos::ZERO,
        latency_probe_bytes: 64,
    };
    let mut results = Vec::new();
    for path in [ServicePath::Fast, ServicePath::Reference] {
        let mut mem = MemorySystem::new(geom, TimingParams::default());
        mem.set_service_path(path);
        let mut reads = StridedSource::read(0, 0, geom.row_bytes as u64, 8);
        let r = run_phase(
            &mut mem,
            &cfg,
            &mut reads,
            AddressMapKind::Chunked,
            None,
            Picos::ZERO,
        );
        assert!(
            matches!(r, Err(Fft2dError::Mem(mem3d::Error::BadRequest(_)))),
            "{path:?}: {r:?}"
        );
        assert_eq!(mem.stats().requests, 0, "{path:?}");
        results.push(r);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn per_burst_outcome_sequences_match_on_random_geometries() {
    // Below the driver: every single service_burst outcome — including
    // multi-fragment bursts, arbitrary arrival times and the error
    // cases — must equal the reference path's, over random geometries
    // (power-of-two and not) and every address map kind.
    par_check!(cases: 96, |rng| {
        let g = random_geom(rng);
        let timing = if rng.gen_bool() {
            TimingParams::default()
        } else {
            TimingParams::default().with_refresh()
        };
        let kind = AddressMapKind::ALL[rng.gen_range(0usize..3)];
        let mut fast = MemorySystem::new(g, timing);
        let mut reference = MemorySystem::new(g, timing);
        reference.set_service_path(ServicePath::Reference);
        let cap = g.capacity_bytes();
        let row = g.row_bytes as u64;
        for i in 0..64u64 {
            let addr = match rng.gen_range(0usize..4) {
                // Anywhere, typically a single-fragment burst.
                0 | 1 => rng.gen_range(0u64..cap),
                // Near a row boundary, typically multi-fragment.
                2 => (rng.gen_range(0u64..cap / row) * row).saturating_sub(rng.gen_range(1u64..64)),
                // Near the device end: exercises the range check.
                _ => cap - rng.gen_range(1u64..(4 * row).min(cap)),
            };
            let bytes = match rng.gen_range(0usize..4) {
                0 => rng.gen_range(1u64..64) as u32,
                1 => rng.gen_range(1u64..2 * row) as u32,
                2 => rng.gen_range(1u64..4 * row) as u32,
                _ => 0, // zero-length: BadRequest on both paths
            };
            let dir = if rng.gen_bool() {
                Direction::Read
            } else {
                Direction::Write
            };
            let at = Picos(rng.gen_range(0u64..1 << 40));
            let op = TraceOp { addr, bytes, dir };
            let a = fast.service_burst(kind, op, at);
            let b = reference.service_burst(kind, op, at);
            prop_assert_eq!(
                a,
                b,
                "op {} diverged: {:?} {:?}+{} over {:?} ({:?})",
                i,
                dir,
                addr,
                bytes,
                g,
                kind
            );
        }
        prop_assert_eq!(fast.stats(), reference.stats(), "stats over {:?}", g);
    });
}

#[test]
fn whole_system_results_are_path_independent() {
    // At the very top of the stack: Table-1/Table-2 style results from
    // `fft2d::System` must not depend on the configured service path.
    use fft2d::{Architecture, System, SystemConfig};
    let fast = System::new(SystemConfig::default());
    let reference = System::new(SystemConfig {
        service_path: ServicePath::Reference,
        ..SystemConfig::default()
    });
    for arch in Architecture::ALL {
        let n = 128;
        let a = fast.column_phase(arch, n).expect("fast column phase");
        let b = reference
            .column_phase(arch, n)
            .expect("reference column phase");
        assert_eq!(a, b, "{arch:?} column phase diverged");
        let a = fast.run_app(arch, n).expect("fast app");
        let b = reference.run_app(arch, n).expect("reference app");
        assert_eq!(a, b, "{arch:?} app diverged");
    }
}
