//! **Ablation A** — layout sweep: column-phase bandwidth of every
//! candidate the layout-family registry enumerates (row-major baseline,
//! column-major, Akin et al. tiling, the block DDL across all feasible
//! heights, and the burst-interleaved and irredundant competitors).
//!
//! Shows *why* the paper's layout wins: tiling amortizes some
//! activations, but only DRAM-row-sized blocks with vault rotation reach
//! the device's parallelism. The candidate list is
//! [`layout::enumerate_candidates`] — the same registry the design-space
//! explorer races — so a newly registered family shows up here with no
//! bench changes. Every candidate is one independent simulation job on
//! the `sim-exec` pool.

use bench::{common, gbps, pct, Table};
use layout::{enumerate_candidates, FamilySpec, LayoutParams};
use mem3d::{replay_stream, Direction, Geometry, MemorySystem, TimingParams};

fn measure(
    spec: FamilySpec,
    params: &LayoutParams,
    geom: Geometry,
    timing: TimingParams,
) -> (String, f64, u64) {
    let family = spec
        .build(params)
        .expect("registry candidates are feasible");
    let mut mem = MemorySystem::new(geom, timing);
    let mut stream = family.col_stream(Direction::Read);
    let stats = replay_stream(stream.as_mut(), &mut mem, family.map_kind()).expect("replay");
    let label = format!("{} p={:4}", family.name(), family.param());
    (label, stats.bandwidth_gbps(), stats.stats.activations)
}

fn main() {
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let n = common::parse_n(1024);
    let params = LayoutParams::for_device(n, &geom, &timing);
    let peak = common::peak_gbps(&geom, &timing);

    let candidates = enumerate_candidates(&params);

    let exec = common::exec_config();
    common::exec_banner(&exec, candidates.len());
    let results = sim_exec::par_map(&exec, &candidates, |&spec, _ctx| {
        measure(spec, &params, geom, timing)
    });
    let labels: Vec<String> = candidates.iter().map(|c| format!("{c:?}")).collect();
    common::warn_failures(&labels, &results);

    let mut table = Table::new(&["layout", "col GB/s", "utilization", "activations"]);
    for (label, bw, acts) in results.into_iter().flatten() {
        table.row(&[&label, &gbps(bw), &pct(bw / peak), &acts]);
    }
    println!("Ablation A: column-phase bandwidth by layout family (N = {n}, open loop)");
    println!("{}", table.render());
}
