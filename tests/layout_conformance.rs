//! Layout-family conformance: every family the registry enumerates
//! must honor the [`layout::LayoutFamily`] contract, and the
//! virtualized streams must be bit-identical to the free-function
//! streams the concrete layouts shipped with before the trait existed.
//!
//! Four properties, checked across the whole registry:
//!
//! 1. **Coverage** — each phase stream (row, column, write-back)
//!    touches every element slot of the `N × N` arena exactly once,
//!    never reaches outside it, and moves exactly the bytes its
//!    `total_bytes` promised.
//! 2. **Run fidelity** — expanding every [`mem3d::TraceRun`] a stream's
//!    `next_run` hands out beat by beat reproduces the exact op
//!    sequence `next()` would have produced: the fast-path hook may
//!    group the stream, never reorder or merge it.
//! 3. **Trace thinness** — a stream materialized with
//!    [`layout::collect_stream`] is the stream: same ops, same order.
//! 4. **Phase bit-identity** — for the four families that predate the
//!    trait (row-major, col-major, tiled, block-DDL), a `run_phase`
//!    fed by the family's streams produces a [`fft2d::PhaseReport`]
//!    bit-identical to one fed by the original free-function streams.

use fft2d::{run_phase, DriverConfig, PhaseReport};
use layout::{
    band_block_write_stream, col_phase_stream, collect_stream, enumerate_candidates, optimal_h,
    row_phase_stream, tile_sweep_stream, BlockDynamic, ColMajor, FamilyId, LayoutParams,
    MatrixLayout, RowMajor, Tiled,
};
use mem3d::{
    Direction, Geometry, MemorySystem, Picos, RequestSource, TimingParams, TraceOp, TraceRun,
};

fn params(n: usize) -> LayoutParams {
    LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
}

fn driver() -> DriverConfig {
    DriverConfig {
        ps_per_byte: 31.25,
        window_bytes: 256 * 1024,
        write_delay: Picos::from_ns(1000),
        latency_probe_bytes: 0,
    }
}

/// Drains `src` and checks it covers every `elem`-sized slot of the
/// `[0, n²·elem)` arena exactly once, in bounds, for exactly the bytes
/// it promised up front.
fn assert_covers(src: &mut dyn RequestSource, n: usize, elem: usize, what: &str) {
    let arena = (n * n * elem) as u64;
    assert_eq!(src.total_bytes(), arena, "{what}: total_bytes");
    let mut seen = vec![false; n * n];
    let mut moved = 0u64;
    for op in &mut *src {
        assert!(
            (op.bytes as usize).is_multiple_of(elem),
            "{what}: ragged op {op:?}"
        );
        assert!(
            op.addr.is_multiple_of(elem as u64),
            "{what}: misaligned op at {:#x}",
            op.addr
        );
        assert!(
            op.addr + op.bytes as u64 <= arena,
            "{what}: op at {:#x}+{} leaves the arena",
            op.addr,
            op.bytes
        );
        for slot in 0..(op.bytes as usize / elem) {
            let idx = op.addr as usize / elem + slot;
            assert!(!seen[idx], "{what}: slot {idx} touched twice");
            seen[idx] = true;
        }
        moved += op.bytes as u64;
    }
    assert_eq!(moved, arena, "{what}: bytes moved");
    // Every slot marked: moved == arena and no slot twice imply it,
    // but say so explicitly for the failure message.
    assert!(seen.iter().all(|&s| s), "{what}: uncovered slots");
}

/// Expands a stream run by run into the flat op sequence.
fn expand_runs(src: &mut dyn RequestSource) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    while let Some(run) = src.next_run() {
        let TraceRun { op, beats, stride } = run;
        for beat in 0..beats as u64 {
            ops.push(TraceOp {
                addr: op.addr + beat * stride,
                ..op
            });
        }
    }
    ops
}

#[test]
fn every_family_stream_covers_the_arena_exactly_once() {
    for n in [64, 256] {
        let p = params(n);
        for spec in enumerate_candidates(&p) {
            let fam = spec.build(&p).expect("registry candidates build");
            let elem = p.elem_bytes;
            for dir in [Direction::Read, Direction::Write] {
                assert_covers(&mut *fam.row_stream(dir), n, elem, &format!("{spec:?} row"));
                assert_covers(&mut *fam.col_stream(dir), n, elem, &format!("{spec:?} col"));
            }
            assert_covers(
                &mut *fam.write_stream(),
                n,
                elem,
                &format!("{spec:?} write"),
            );
        }
    }
}

#[test]
fn run_expansion_reproduces_the_scalar_op_sequence() {
    let p = params(256);
    for spec in enumerate_candidates(&p) {
        let fam = spec.build(&p).expect("registry candidates build");
        let scalar: Vec<TraceOp> = fam.col_stream(Direction::Read).collect();
        let fused = expand_runs(&mut *fam.col_stream(Direction::Read));
        assert_eq!(
            scalar, fused,
            "{spec:?}: next_run reordered the column stream"
        );
        let scalar: Vec<TraceOp> = fam.write_stream().collect();
        let fused = expand_runs(&mut *fam.write_stream());
        assert_eq!(
            scalar, fused,
            "{spec:?}: next_run reordered the write stream"
        );
    }
}

#[test]
fn traces_are_materialized_streams() {
    let p = params(64);
    for spec in enumerate_candidates(&p) {
        let fam = spec.build(&p).expect("registry candidates build");
        for dir in [Direction::Read, Direction::Write] {
            let streamed: Vec<TraceOp> = fam.col_stream(dir).collect();
            let traced: Vec<TraceOp> = collect_stream(&mut *fam.col_stream(dir)).stream().collect();
            assert_eq!(streamed, traced, "{spec:?} col {dir:?}");
            let streamed: Vec<TraceOp> = fam.row_stream(dir).collect();
            let traced: Vec<TraceOp> = collect_stream(&mut *fam.row_stream(dir)).stream().collect();
            assert_eq!(streamed, traced, "{spec:?} row {dir:?}");
        }
        let streamed: Vec<TraceOp> = fam.write_stream().collect();
        let traced: Vec<TraceOp> = collect_stream(&mut *fam.write_stream()).stream().collect();
        assert_eq!(streamed, traced, "{spec:?} write");
    }
}

/// One column phase through the closed-loop driver.
fn phase_of(reads: &mut dyn RequestSource, map: mem3d::AddressMapKind) -> PhaseReport {
    let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
    run_phase(&mut mem, &driver(), reads, map, None, Picos::ZERO).expect("phase")
}

#[test]
fn family_column_phases_match_the_legacy_streams_bit_for_bit() {
    let n = 256;
    let p = params(n);

    // Row-major, both maps: the legacy stream is a group-1 column walk.
    for (param, legacy) in [(0, RowMajor::new(&p)), (1, RowMajor::interleaved(&p))] {
        let fam = FamilyId::RowMajor.build(&p, param).expect("row-major");
        let want = phase_of(
            &mut col_phase_stream(&legacy, Direction::Read, 1),
            legacy.map_kind(),
        );
        let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
        assert_eq!(got, want, "row-major param {param}");
    }

    let legacy = ColMajor::new(&p);
    let fam = FamilyId::ColMajor.build(&p, 0).expect("col-major");
    let want = phase_of(
        &mut col_phase_stream(&legacy, Direction::Read, 1),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "col-major");

    let tr = Tiled::row_buffer_rows(&p);
    let legacy = Tiled::new(&p, tr.min(n), (p.s / tr).min(n)).expect("tiled");
    let fam = FamilyId::Tiled.build(&p, tr).expect("tiled family");
    let want = phase_of(
        &mut tile_sweep_stream(&legacy, Direction::Read),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "tiled");

    let h = optimal_h(&p);
    let legacy = BlockDynamic::with_height(&p, h).expect("ddl");
    let fam = FamilyId::BlockDynamic.build(&p, h).expect("ddl family");
    let want = phase_of(
        &mut col_phase_stream(&legacy, Direction::Read, legacy.w),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "block-ddl");
}

#[test]
fn family_write_back_matches_the_legacy_stream_bit_for_bit() {
    // The row phase of the optimized architecture: interleaved row-major
    // reads, block write-back. The family-built write side must leave
    // the driver in exactly the state the legacy stream did.
    let n = 256;
    let p = params(n);
    let input = RowMajor::interleaved(&p);
    let h = optimal_h(&p);
    let legacy = BlockDynamic::with_height(&p, h).expect("ddl");
    let fam = FamilyId::BlockDynamic.build(&p, h).expect("ddl family");

    let run = |writes: &mut dyn RequestSource, map: mem3d::AddressMapKind| {
        let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
        run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&input, Direction::Read),
            input.map_kind(),
            Some((writes, map)),
            Picos::ZERO,
        )
        .expect("row phase")
    };
    let want = run(&mut band_block_write_stream(&legacy), legacy.map_kind());
    let got = run(&mut *fam.write_stream(), fam.map_kind());
    assert_eq!(got, want, "block-ddl write-back");
}
