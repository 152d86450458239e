//! Bench: raw simulator performance of the 3D memory model under the
//! access patterns the application generates. This measures the
//! *simulator* (host ops/sec), complementing the table binaries that
//! report *simulated* bandwidth. JSON-line output via `sim_util::bench`.
//!
//! Each pattern runs twice: once replaying a materialized
//! [`AccessTrace`] and once pulling the same ops from a lazy
//! [`StridedSource`], so a streaming regression in the hot replay path
//! shows up as a ratio between the two.

use mem3d::{
    replay_stream, AccessTrace, AddressMapKind, Geometry, MemorySystem, StridedSource, TimingParams,
};
use sim_util::BenchGroup;

fn main() {
    let mut g = BenchGroup::new("memsim");
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let count = 8192usize;

    let patterns: [(&str, u64, u32, u64, AddressMapKind); 3] = [
        ("sequential", 0, 64, 64, AddressMapKind::VaultInterleaved),
        ("strided-8k", 0, 8, 8192, AddressMapKind::Chunked),
        ("row-burst", 0, 8192, 8192, AddressMapKind::VaultInterleaved),
    ];

    for (name, base, bytes, stride, map) in patterns {
        let trace = AccessTrace::strided_read(base, bytes, stride, count);
        g.throughput_elems(trace.len() as u64);
        g.bench(&format!("replay/{name}"), || {
            let mut mem = MemorySystem::new(geom, timing);
            replay_stream(&mut trace.stream(), &mut mem, map).unwrap()
        });
        g.throughput_elems(count as u64);
        g.bench(&format!("stream/{name}"), || {
            let mut mem = MemorySystem::new(geom, timing);
            let mut src = StridedSource::read(base, bytes, stride, count);
            replay_stream(&mut src, &mut mem, map).unwrap()
        });
    }
    g.finish();
}
