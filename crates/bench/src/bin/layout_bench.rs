//! **Layout-family race** — memory-bound column-phase throughput of one
//! representative design point per registered layout family, across
//! problem sizes and device geometries, with a per-(N, geometry)
//! SRAM-vs-throughput Pareto marking.
//!
//! Each family runs its [`layout::FamilyId::default_param`] point
//! **open loop** through [`mem3d::replay_stream`] — requests issued
//! back to back, no kernel pacing — so the number is what the *memory
//! system* sustains for that family's column stream, the axis the
//! layouts actually compete on. Open loop is the closed-loop driver's
//! own span primitive ([`mem3d::MemorySystem::service_span`])
//! with an unbounded prefetch window and no kernel clock. (The driver's
//! configuration cannot express it: a zero kernel rate collapses its
//! time-denominated prefetch window to nothing and serializes the phase
//! into a latency-bound one-request pipeline.) The SRAM axis is the
//! reorganization band double-buffer (`2·h·N·8` bytes), the on-chip
//! price a family pays for its layout.
//!
//! One JSON line per (family, N, geometry) lands in
//! `BENCH_layouts.json` via `scripts/bench_record.sh`, and
//! `scripts/check_layouts.py` gates the recorded floors: the block-DDL
//! rows must not regress against `BENCH_hotpath.json`, every family
//! must stay within device peak, and at least one non-DDL family must
//! sit on the Pareto front somewhere — the racing-families contract.
//!
//! `SIM_BENCH_FAST=1` shrinks the problem sizes for smoke runs.

use bench::common;
use layout::{FamilyId, LayoutParams};
use mem3d::{replay_stream, Direction, Geometry, MemorySystem, TimingParams};
use sim_util::json::JsonObject;

struct Row {
    family: FamilyId,
    param: usize,
    sram_bytes: u64,
    throughput_gbps: f64,
    activations: u64,
    on_front: bool,
}

/// Open-loop column phase of one family's default design point:
/// memory-bound throughput plus the activation count.
fn measure(id: FamilyId, params: &LayoutParams, geom: Geometry, timing: TimingParams) -> Row {
    let param = id.default_param(params);
    let family = id
        .build(params, param)
        .expect("default params are feasible");
    let mut mem = MemorySystem::new(geom, timing);
    let mut reads = family.col_stream(Direction::Read);
    let stats = replay_stream(reads.as_mut(), &mut mem, family.map_kind()).expect("replay");
    let reorg = family.reorg_rows() as u64;
    Row {
        family: id,
        param,
        sram_bytes: 2 * reorg * params.n as u64 * params.elem_bytes as u64,
        throughput_gbps: stats.bandwidth_gbps(),
        activations: stats.stats.activations,
        on_front: false,
    }
}

/// Marks the SRAM-vs-throughput Pareto front in place: ascending SRAM,
/// strictly increasing throughput (ties broken toward the first —
/// cheaper or earlier — point).
fn mark_front(rows: &mut [Row]) {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| {
        rows[a]
            .sram_bytes
            .cmp(&rows[b].sram_bytes)
            .then(rows[b].throughput_gbps.total_cmp(&rows[a].throughput_gbps))
    });
    let mut best = f64::NEG_INFINITY;
    for i in order {
        if rows[i].throughput_gbps > best {
            best = rows[i].throughput_gbps;
            rows[i].on_front = true;
        }
    }
}

fn main() {
    let fast_mode = std::env::var("SIM_BENCH_FAST").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if fast_mode {
        &[512, 1024]
    } else {
        &[2048, 4096, 8192]
    };
    let timing = TimingParams::default();
    let geometries = [Geometry::default(), common::geometry_with_vaults(4)];

    for geom in geometries {
        let peak = common::peak_gbps(&geom, &timing);
        for &n in sizes {
            let params = LayoutParams::for_device(n, &geom, &timing);
            let mut rows: Vec<Row> = FamilyId::ALL
                .iter()
                .map(|&id| measure(id, &params, geom, timing))
                .collect();
            mark_front(&mut rows);
            for r in &rows {
                let mut o = JsonObject::new();
                o.field_str("group", "layouts");
                o.field_str("id", &format!("{}_n{n}_v{}", r.family, geom.vaults));
                o.field_str("family", r.family.name());
                o.field_u64("n", n as u64);
                o.field_u64("vaults", geom.vaults as u64);
                o.field_u64("param", r.param as u64);
                o.field_u64("sram_bytes", r.sram_bytes);
                o.field_f64("throughput_gbps", r.throughput_gbps);
                o.field_u64("activations", r.activations);
                o.field_f64("peak_gbps", peak);
                o.field_bool("on_front", r.on_front);
                println!("{}", o.finish());
            }
        }
    }
}
