//! The traced unit: the workload call plus, around it, timed calls into
//! each layer's public functions that redo the unit's work one layer at
//! a time.
//!
//! | span                    | layer call                                   |
//! |-------------------------|----------------------------------------------|
//! | `fft2d.run_app`, `fft2d.explore_with`, `tenancy.unit` | the unit itself |
//! | `fft2d.column_phase`    | `System::column_phase`                       |
//! | `layout.*_stream`       | draining one stream through `next_run`       |
//! | `mem3d.decode`          | `AddressMap::decode` over a chunk of beats   |
//! | `mem3d.service`         | scalar `MemorySystem::service` over the chunk |
//! | `explore.job`           | one candidate's column phase (`run_phase_in`) |
//! | `tenancy.run_scenario`  | one `tenancy::run_scenario` call             |
//! | `tenancy.run_isolated`  | one `tenancy::run_isolated` call             |
//!
//! A per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::hint::black_box;

use fft2d::{DriverConfig, PhaseReport, PhaseWorkspace, ProcessorModel};
use layout::{enumerate_candidates, row_phase_stream, LayoutParams, MatrixLayout, RowMajor};
use mem3d::{
    AddressMap, AddressMapKind, Direction, Location, MemorySystem, Picos, Request, RequestSource,
    Stats, TraceOp,
};
use tenancy::run_isolated;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Detail, Output, Plan, Workload, BEAT_BYTES, LANES};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: [(&str, &str); 21] = [
    ("layout.stream_ms", "ms"),
    ("layout.ns_per_elem", "ns"),
    ("layout.beats_per_run", "beats/run"),
    ("layout.share", "ratio"),
    ("mem3d.decode_ns_per_beat", "ns/beat"),
    ("mem3d.service_ns_per_beat", "ns/beat"),
    ("mem3d.activations", "count"),
    ("mem3d.row_hit_rate", "ratio"),
    ("phases.col_ms", "ms"),
    ("phases.row_ms", "ms"),
    ("phases.self_ms", "ms"),
    ("phases.ns_per_beat", "ns/beat"),
    ("explore.job_ms.p50", "ms"),
    ("explore.job_ms.max", "ms"),
    ("sim_exec.efficiency", "ratio"),
    ("sim_exec.idle_ms", "ms"),
    ("tenancy.shared_ms", "ms"),
    ("tenancy.isolated_ms", "ms"),
    ("tenancy.loop_share", "ratio"),
    ("tenancy.ns_per_beat", "ns/beat"),
    ("tenancy.slowdown_p50", "x"),
];

/// Beats per `mem3d` probe chunk: bounds the probe's buffers.
const CHUNK: usize = 1 << 16;

const NS_PER_MS: f64 = 1e6;

/// One traced unit.
#[derive(Debug)]
pub struct Traced {
    /// The unit's simulated output, to be checked like any other unit.
    pub output: Output,
    /// Index of the unit's root span.
    pub root: usize,
    /// Host time of the workload call alone, in ns.
    pub call_ns: u64,
    /// Per-layer metrics of this unit (names from [`METRICS`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Time attributed to each layer, in ms, for naming the dominant
    /// one.
    pub layer_ms: Vec<(&'static str, f64)>,
}

/// What draining a stream found.
#[derive(Debug, Default, Clone, Copy)]
struct Drain {
    runs: u64,
    ops: u64,
    beats: u64,
}

impl Drain {
    fn add(&mut self, o: Drain) {
        self.runs += o.runs;
        self.ops += o.ops;
        self.beats += o.beats;
    }
}

fn drain(src: &mut dyn RequestSource) -> Drain {
    let mut d = Drain::default();
    let mut bytes = 0u64;
    while let Some(run) = src.next_run() {
        let run = black_box(run);
        d.runs += 1;
        d.ops += u64::from(run.beats);
        bytes += u64::from(run.beats) * u64::from(run.op.bytes);
    }
    d.beats = bytes / BEAT_BYTES;
    d
}

/// Replays streams beat by beat through a fresh memory system, timing
/// address decode and scalar servicing chunk by chunk.
struct MemProbe {
    mem: MemorySystem,
    ops: Vec<TraceOp>,
    locs: Vec<Location>,
}

impl MemProbe {
    fn new(plan: &Plan) -> Result<MemProbe, String> {
        let cfg = plan.sys.config();
        let mem = MemorySystem::try_new(cfg.geometry, cfg.timing).map_err(|e| e.to_string())?;
        Ok(MemProbe {
            mem,
            ops: Vec::with_capacity(CHUNK),
            locs: Vec::with_capacity(CHUNK),
        })
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        src: &mut dyn RequestSource,
        kind: AddressMapKind,
    ) -> Result<(), String> {
        let map = AddressMap::new(kind, *self.mem.geometry());
        let mut more = true;
        while more {
            self.ops.clear();
            while self.ops.len() < CHUNK {
                let Some(run) = src.next_run() else {
                    more = false;
                    break;
                };
                for i in 0..u64::from(run.beats) {
                    let addr = run.op.addr + i * run.stride;
                    self.ops.push(TraceOp { addr, ..run.op });
                }
            }
            let (ops, locs) = (&self.ops, &mut self.locs);
            t.span("mem3d.decode", |_| {
                locs.clear();
                for op in ops {
                    locs.push(map.decode(op.addr)?);
                }
                Ok::<(), mem3d::Error>(())
            })
            .0
            .map_err(|e| e.to_string())?;
            let mem = &mut self.mem;
            t.span("mem3d.service", |_| {
                for (op, &loc) in ops.iter().zip(locs.iter()) {
                    let req = Request {
                        loc,
                        bytes: op.bytes,
                        dir: op.dir,
                        at: Picos::ZERO,
                    };
                    black_box(mem.service(req)?);
                }
                Ok::<(), mem3d::Error>(())
            })
            .0
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs one traced unit of `plan`.
///
/// # Errors
///
/// Returns a simulator error, or a disagreement between the unit and
/// its layer-by-layer replay.
pub fn traced_unit(plan: &Plan, t: &mut Tracer) -> Result<Traced, String> {
    match plan.workload {
        Workload::AppStrided | Workload::AppDdl => app(plan, t),
        Workload::Autotune => autotune(plan, t),
        Workload::Tenancy => tenancy(plan, t),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS
}

/// The metrics map, every layer a workload skips at 0, with the stream,
/// decode and service metrics every workload shares filled in; also the
/// stream drain time in ns.
fn layer_common(
    t: &Tracer,
    root: usize,
    d: Drain,
    base_ns: u64,
) -> (BTreeMap<&'static str, f64>, u64) {
    let mut m: BTreeMap<&'static str, f64> = METRICS.iter().map(|&(k, _)| (k, 0.0)).collect();
    let stream_ns: u64 = t
        .unit_spans(root)
        .filter(|s| s.name.starts_with("layout.") && s.name.ends_with("_stream"))
        .map(|s| s.dur_ns())
        .sum();
    let per_beat = |ns: u64| ns as f64 / d.beats.max(1) as f64;
    m.insert("layout.stream_ms", ms(stream_ns));
    m.insert("layout.ns_per_elem", per_beat(stream_ns));
    m.insert(
        "layout.beats_per_run",
        d.beats as f64 / d.runs.max(1) as f64,
    );
    m.insert("layout.share", stream_ns as f64 / base_ns.max(1) as f64);
    m.insert(
        "mem3d.decode_ns_per_beat",
        per_beat(t.total_ns(root, "mem3d.decode")),
    );
    m.insert(
        "mem3d.service_ns_per_beat",
        per_beat(t.total_ns(root, "mem3d.service")),
    );
    (m, stream_ns)
}

fn app(plan: &Plan, t: &mut Tracer) -> Result<Traced, String> {
    let (sys, arch, n) = (&plan.sys, plan.arch(), plan.n);
    let cfg = sys.config();
    let params = LayoutParams::for_device(n, &cfg.geometry, &cfg.timing);
    let family = sys
        .intermediate_family(arch, n)
        .map_err(|e| e.to_string())?;
    // The three streams `run_app` drives, in its order.
    let input = if family.reorg_rows() > 0 {
        RowMajor::interleaved(&params)
    } else {
        RowMajor::new(&params)
    };
    type Streams<'a> = [(&'static str, Box<dyn RequestSource + 'a>, AddressMapKind); 3];
    let streams = || -> Streams<'_> {
        [
            (
                "layout.row_phase_stream",
                Box::new(row_phase_stream(&input, Direction::Read)),
                input.map_kind(),
            ),
            (
                "layout.write_stream",
                family.write_stream(),
                family.map_kind(),
            ),
            (
                "layout.col_stream",
                family.col_stream(Direction::Read),
                family.map_kind(),
            ),
        ]
    };
    let mut drains = [Drain::default(); 3];
    let (res, root) = t.span("unit", |t| {
        let (out, call) = t.span("fft2d.run_app", |_| plan.run());
        let out = out?;
        let (col, col_span) = t.span("fft2d.column_phase", |_| sys.column_phase(arch, n));
        col.map_err(|e| e.to_string())?;
        t.span("layout.drain", |t| {
            for (slot, (name, mut s, _)) in drains.iter_mut().zip(streams()) {
                *slot = t.span(name, |_| drain(s.as_mut())).0;
            }
        });
        let mut probe = MemProbe::new(plan)?;
        t.span("mem3d.probe", |t| {
            streams()
                .into_iter()
                .try_for_each(|(_, mut s, kind)| probe.run(t, s.as_mut(), kind))
        })
        .0?;
        Ok::<_, String>((out, call, col_span))
    });
    let (output, call, col_span) = res?;
    let Detail::App(r) = &output.detail else {
        return Err("run_app returned no AppResult".into());
    };
    let mut d = Drain::default();
    drains.iter().for_each(|&x| d.add(x));
    if d.beats != output.beats {
        return Err(format!(
            "streams hold {} beats, the unit reports {}",
            d.beats, output.beats
        ));
    }
    let call_ns = t.spans()[call].dur_ns();
    let col_ns = t.spans()[col_span].dur_ns();
    let (mut m, stream_ns) = layer_common(t, root, d, call_ns);
    let self_ns = call_ns.saturating_sub(stream_ns);
    // Phase 1 serves the row-read and write streams, phase 2 the column
    // stream: weight each phase's hit rate by its request count.
    let (ops1, ops2) = ((drains[0].ops + drains[1].ops) as f64, drains[2].ops as f64);
    let hit = (r.phase1.row_hit_rate * ops1 + r.phase2.row_hit_rate * ops2) / (ops1 + ops2);
    m.insert(
        "mem3d.activations",
        (r.phase1.activations + r.phase2.activations) as f64,
    );
    m.insert("mem3d.row_hit_rate", hit);
    m.insert("phases.col_ms", ms(col_ns));
    m.insert("phases.row_ms", ms(call_ns.saturating_sub(col_ns)));
    m.insert("phases.self_ms", ms(self_ns));
    m.insert("phases.ns_per_beat", self_ns as f64 / d.beats.max(1) as f64);
    let layer_ms = vec![
        ("layout (stream generation)", ms(stream_ns)),
        ("phases + mem3d (driver and servicing)", ms(self_ns)),
    ];
    Ok(Traced {
        output,
        root,
        call_ns,
        metrics: m,
        layer_ms,
    })
}

/// `System::evaluate`'s column phase for one candidate, rebuilt from
/// public items; `None` where the sweep skips the candidate.
fn candidate_phase(
    plan: &Plan,
    params: &LayoutParams,
    ws: &mut PhaseWorkspace,
    lanes: usize,
    spec: layout::FamilySpec,
) -> Result<Option<PhaseReport>, String> {
    let cfg = plan.sys.config();
    let Ok(family) = spec.build(params) else {
        return Ok(None);
    };
    let Ok(proc) = ProcessorModel::new(params, lanes, family.reorg_rows(), &cfg.budget) else {
        return Ok(None);
    };
    let mut mem = MemorySystem::try_new(cfg.geometry, cfg.timing).map_err(|e| e.to_string())?;
    mem.set_service_path(cfg.service_path);
    let driver = DriverConfig {
        ps_per_byte: proc.ps_per_byte(),
        window_bytes: cfg.window_bytes,
        write_delay: Picos::ZERO,
        latency_probe_bytes: 0,
    };
    let mut reads = family.col_stream(Direction::Read);
    let rep = fft2d::run_phase_in(
        ws,
        &mut mem,
        &driver,
        reads.as_mut(),
        family.map_kind(),
        None,
        Picos::ZERO,
    )
    .map_err(|e| e.to_string())?;
    Ok(Some(rep))
}

fn autotune(plan: &Plan, t: &mut Tracer) -> Result<Traced, String> {
    let cfg = plan.sys.config();
    let params = LayoutParams::for_device(plan.n, &cfg.geometry, &cfg.timing);
    let specs = enumerate_candidates(&params);
    let lanes: Vec<usize> = LANES
        .into_iter()
        .filter(|&l| l.is_power_of_two() && l <= plan.n)
        .collect();
    let mut ws = PhaseWorkspace::new();
    let mut reports: Vec<PhaseReport> = Vec::new();
    let mut evaluated: Vec<layout::FamilySpec> = Vec::new();
    let mut d = Drain::default();
    let (res, root) = t.span("unit", |t| {
        let (out, call) = t.span("fft2d.explore_with", |_| plan.run());
        let out = out?;
        t.span("explore.replay", |t| {
            for &l in &lanes {
                for &spec in &specs {
                    let (rep, _) = t.span("explore.job", |_| {
                        candidate_phase(plan, &params, &mut ws, l, spec)
                    });
                    if let Some(rep) = rep? {
                        reports.push(rep);
                        evaluated.push(spec);
                    }
                }
            }
            Ok::<(), String>(())
        })
        .0?;
        // The streams of the candidates the sweep simulated.
        t.span("layout.drain", |t| {
            for spec in &evaluated {
                let family = spec.build(&params).map_err(|e| e.to_string())?;
                let mut s = family.col_stream(Direction::Read);
                d.add(t.span("layout.col_stream", |_| drain(s.as_mut())).0);
            }
            Ok::<(), String>(())
        })
        .0?;
        Ok::<_, String>((out, call))
    });
    let (output, call) = res?;
    let Detail::Explore(e) = &output.detail else {
        return Err("explore_with returned no Exploration".into());
    };
    let replay_matches = e.points.len() == reports.len()
        && e.points
            .iter()
            .zip(&reports)
            .all(|(p, r)| p.throughput_gbps.to_bits() == r.read_bandwidth_gbps().to_bits());
    if !replay_matches || d.beats != output.beats {
        return Err("the per-candidate replay disagrees with the sweep".into());
    }
    let call_ns = t.spans()[call].dur_ns();
    let jobs: Vec<f64> = t
        .durations_ns(root, "explore.job")
        .into_iter()
        .map(ms)
        .collect();
    let t1_ns = t.total_ns(root, "explore.job");
    let threads = plan.exec.threads.max(1) as f64;
    let (mut m, stream_ns) = layer_common(t, root, d, t1_ns);
    let self_ns = t1_ns.saturating_sub(stream_ns);
    let idle_ms = threads * ms(call_ns) - ms(t1_ns);
    m.insert(
        "mem3d.activations",
        reports.iter().map(|r| r.activations as f64).sum(),
    );
    let hits: Vec<f64> = reports.iter().map(|r| r.row_hit_rate).collect();
    m.insert(
        "mem3d.row_hit_rate",
        hits.iter().sum::<f64>() / hits.len().max(1) as f64,
    );
    m.insert("phases.col_ms", ms(t1_ns));
    m.insert("phases.self_ms", ms(self_ns));
    m.insert("phases.ns_per_beat", self_ns as f64 / d.beats.max(1) as f64);
    m.insert("explore.job_ms.p50", median(&jobs).unwrap_or(0.0));
    m.insert(
        "explore.job_ms.max",
        jobs.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "sim_exec.efficiency",
        t1_ns as f64 / (threads * call_ns.max(1) as f64),
    );
    m.insert("sim_exec.idle_ms", idle_ms);
    let layer_ms = vec![
        ("layout (stream generation)", ms(stream_ns)),
        ("phases + mem3d (driver and servicing)", ms(self_ns)),
        ("sim_exec (pool idle)", idle_ms),
    ];
    Ok(Traced {
        output,
        root,
        call_ns,
        metrics: m,
        layer_ms,
    })
}

fn tenancy(plan: &Plan, t: &mut Tracer) -> Result<Traced, String> {
    let calls = plan.tenancy_calls();
    let mut d = Drain::default();
    let (res, root) = t.span("unit", |t| {
        let (reports, call) = t.span("tenancy.unit", |t| {
            calls
                .iter()
                .map(|(_, scenario, kind)| {
                    t.span("tenancy.run_scenario", |_| {
                        tenancy::run_scenario(scenario, *kind, None)
                    })
                    .0
                    .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let reports = reports?;
        t.span("tenancy.isolated", |t| {
            for (_, scenario, _) in &calls {
                for tenant in 0..scenario.tenants.len() {
                    t.span("tenancy.run_isolated", |_| run_isolated(scenario, tenant))
                        .0
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok::<(), String>(())
        })
        .0?;
        // Each tenant drives one column stream per completed job plus
        // one for its isolated baseline.
        let mut families = Vec::new();
        for ((_, scenario, _), rep) in calls.iter().zip(&reports) {
            let sys = fft2d::System::new(scenario.platform);
            for (spec, qos) in scenario.tenants.iter().zip(&rep.tenants) {
                let family = sys
                    .intermediate_family(spec.job.arch, spec.job.n)
                    .map_err(|e| e.to_string())?;
                families.push((family, qos.counts.completed() + 1));
            }
        }
        t.span("layout.drain", |t| {
            for (family, streams) in &families {
                for _ in 0..*streams {
                    let mut s = family.col_stream(Direction::Read);
                    d.add(t.span("layout.col_stream", |_| drain(s.as_mut())).0);
                }
            }
        });
        let mut probe = MemProbe::new(plan)?;
        t.span("mem3d.probe", |t| {
            for (family, streams) in &families {
                for _ in 0..*streams {
                    let mut s = family.col_stream(Direction::Read);
                    probe.run(t, s.as_mut(), family.map_kind())?;
                }
            }
            Ok::<(), String>(())
        })
        .0?;
        Ok::<_, String>((plan.tenancy_output(reports), call))
    });
    let (output, call) = res?;
    let Detail::Tenancy(reports) = &output.detail else {
        return Err("tenancy unit returned no reports".into());
    };
    let call_ns = t.spans()[call].dur_ns();
    let shared_ns = t.total_ns(root, "tenancy.run_scenario");
    let isolated_ns = t.total_ns(root, "tenancy.run_isolated");
    let loop_ns = shared_ns.saturating_sub(isolated_ns);
    let (mut m, stream_ns) = layer_common(t, root, d, shared_ns);
    let mut sys_stats = Stats::default();
    reports.iter().for_each(|r| sys_stats.merge(&r.system));
    let slowdowns: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.tenants.iter().map(|q| q.slowdown_p50))
        .collect();
    m.insert("mem3d.activations", sys_stats.activations as f64);
    m.insert("mem3d.row_hit_rate", sys_stats.row_hit_rate());
    m.insert("tenancy.shared_ms", ms(shared_ns));
    m.insert("tenancy.isolated_ms", ms(isolated_ns));
    m.insert(
        "tenancy.loop_share",
        loop_ns as f64 / shared_ns.max(1) as f64,
    );
    m.insert(
        "tenancy.ns_per_beat",
        loop_ns as f64 / output.beats.max(1) as f64,
    );
    m.insert("tenancy.slowdown_p50", median(&slowdowns).unwrap_or(0.0));
    let layer_ms = vec![
        ("layout (stream generation)", ms(stream_ns)),
        ("tenancy (shared event loop)", ms(loop_ns)),
        ("phases (isolated baselines)", ms(isolated_ns)),
    ];
    Ok(Traced {
        output,
        root,
        call_ns,
        metrics: m,
        layer_ms,
    })
}
