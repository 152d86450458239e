//! The four workloads, their inputs and one unit of each.
//!
//! Every unit is one closed-loop call (or, for `tenancy`, one fixed
//! sequence of calls) into the simulator's public API. A unit returns
//! the digests of its simulated output so the caller can check them
//! against the golden record.

use fft2d::{AppResult, Architecture, Exploration, System, SystemConfig};
use mem3d::{Picos, ServicePath};
use sim_exec::ExecConfig;
use sim_util::hash::StableHasher;
use tenancy::{
    run_scenario, ArbiterKind, Arrivals, JobShape, JobSpec, Scenario, ServiceReport, TenantSpec,
    Traffic,
};

/// Bytes of one simulated beat: one complex single-precision element,
/// the datapath's transfer unit.
pub const BEAT_BYTES: u64 = 8;

/// Kernel lane counts the `autotune` sweep races.
pub const LANES: [usize; 5] = [2, 4, 8, 16, 32];

/// Seed of the committed `fair` scenario; its arrivals are immediate,
/// so the seed only labels the report.
pub const FAIR_SEED: u64 = 42;

/// Longest inter-arrival gap of the `mixed` scenario's uniform arrivals
/// (200 µs, comparable to one baseline job at n = 256).
pub const MIXED_GAP_HI: Picos = Picos(200_000_000);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `System::run_app(Baseline, 2048)`: the paper's strided baseline.
    AppStrided,
    /// `System::run_app(Optimized, 2048)`: the paper's DDL architecture.
    AppDdl,
    /// `System::explore_with` over every family at N = 1024 on the pool.
    Autotune,
    /// `tenancy::run_scenario` on `fair`, then `mixed` under each policy.
    Tenancy,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AppStrided,
        Workload::AppDdl,
        Workload::Autotune,
        Workload::Tenancy,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppStrided => "app-strided",
            Workload::AppDdl => "app-ddl",
            Workload::Autotune => "autotune",
            Workload::Tenancy => "tenancy",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or tiny ones for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Sizes small enough for a unit test.
    Tiny,
}

/// The simulated output of one unit.
#[derive(Debug, Clone)]
pub enum Detail {
    /// `run_app` result.
    App(AppResult),
    /// The sweep's outcome.
    Explore(Exploration),
    /// One report per `run_scenario` call, in call order.
    Tenancy(Vec<ServiceReport>),
}

/// One unit's output: labelled digests plus the raw result.
#[derive(Debug, Clone)]
pub struct Output {
    /// `(label, digest)` pairs, compared against the expected digests.
    pub digests: Vec<(String, u64)>,
    /// Simulated beats ([`BEAT_BYTES`] each) the unit served.
    pub beats: u64,
    /// The simulated result itself.
    pub detail: Detail,
}

/// A workload's inputs, made from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Matrix size `N`.
    pub n: usize,
    /// The benchmark seed.
    pub seed: u64,
    /// The simulated platform.
    pub sys: System,
    /// Pool configuration of the `autotune` sweep.
    pub exec: ExecConfig,
    /// Jobs each tenant submits (`tenancy` only).
    pub jobs: u64,
}

/// Threads the `autotune` pool uses: `min(2, available_parallelism)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// 64-bit stable digest of a serialized output.
pub fn digest(text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(text);
    h.finish()
}

fn tenant(name: &str, arch: Architecture, n: usize, jobs: u64, arrivals: Arrivals) -> TenantSpec {
    let job = JobSpec {
        arch,
        n,
        shape: JobShape::Column,
    };
    TenantSpec::new(name, job, Traffic::Open { arrivals, jobs })
}

impl Plan {
    /// The inputs of `workload` at `scale` for `seed`, simulated on
    /// `path`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, path: ServicePath) -> Plan {
        let tiny = scale == Scale::Tiny;
        let (n, jobs) = match workload {
            Workload::AppStrided | Workload::AppDdl => (if tiny { 128 } else { 2048 }, 0),
            Workload::Autotune => (if tiny { 128 } else { 1024 }, 0),
            Workload::Tenancy => (if tiny { 32 } else { 256 }, if tiny { 1 } else { 3 }),
        };
        let cfg = SystemConfig {
            service_path: path,
            ..SystemConfig::default()
        };
        Plan {
            workload,
            n,
            seed,
            sys: System::new(cfg),
            exec: ExecConfig::sequential()
                .with_threads(pool_threads())
                .with_seed(seed),
            jobs,
        }
    }

    /// The same inputs simulated on `path`.
    pub fn on(&self, path: ServicePath) -> Plan {
        let cfg = SystemConfig {
            service_path: path,
            ..*self.sys.config()
        };
        Plan {
            sys: System::new(cfg),
            ..self.clone()
        }
    }

    /// The architecture an `app-*` unit simulates.
    pub fn arch(&self) -> Architecture {
        match self.workload {
            Workload::AppStrided => Architecture::Baseline,
            _ => Architecture::Optimized,
        }
    }

    /// Golden-record label of a digest of this plan.
    pub fn label(&self, part: &str) -> String {
        format!("{part}@{}", self.n)
    }

    /// Three identical baseline tenants under round robin.
    pub fn fair(&self) -> Scenario {
        let peers = ["peer-a", "peer-b", "peer-c"].map(|name| {
            tenant(
                name,
                Architecture::Baseline,
                self.n,
                self.jobs,
                Arrivals::Immediate,
            )
        });
        let mut s = Scenario::new(peers.to_vec(), FAIR_SEED);
        s.platform = *self.sys.config();
        s
    }

    /// Three architectures with different weights and priorities, each
    /// arriving at uniform gaps drawn from the seed.
    pub fn mixed(&self) -> Scenario {
        let u = Arrivals::Uniform {
            lo: Picos::ZERO,
            hi: MIXED_GAP_HI,
        };
        let mut bulk = tenant(
            "bulk-baseline",
            Architecture::Baseline,
            self.n,
            self.jobs,
            u,
        );
        let mut prio = tenant(
            "prio-optimized",
            Architecture::Optimized,
            self.n,
            self.jobs,
            u,
        );
        let mut steady = tenant("steady-tiled", Architecture::Tiled, self.n, self.jobs, u);
        (bulk.weight, bulk.priority) = (1, 0);
        (prio.weight, prio.priority) = (3, 2);
        (steady.weight, steady.priority) = (1, 1);
        let mut s = Scenario::new(vec![bulk, prio, steady], self.seed);
        s.platform = *self.sys.config();
        s
    }

    /// The `run_scenario` calls of one `tenancy` unit, in order, with
    /// the label of the digest each report feeds.
    pub fn tenancy_calls(&self) -> Vec<(&'static str, Scenario, ArbiterKind)> {
        let mut calls = vec![("tenancy.fair", self.fair(), ArbiterKind::RoundRobin)];
        let mixed = self.mixed();
        for kind in ArbiterKind::ALL {
            calls.push(("tenancy.mixed", mixed.clone(), kind));
        }
        calls
    }

    /// Runs one unit.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error, as text.
    pub fn run(&self) -> Result<Output, String> {
        match self.workload {
            Workload::AppStrided | Workload::AppDdl => {
                let r = self
                    .sys
                    .run_app(self.arch(), self.n)
                    .map_err(|e| e.to_string())?;
                Ok(self.app_output(r))
            }
            Workload::Autotune => {
                let e = self
                    .sys
                    .explore_with(&self.exec, self.n, &LANES)
                    .map_err(|e| e.to_string())?;
                Ok(self.explore_output(e))
            }
            Workload::Tenancy => {
                let mut reports = Vec::new();
                for (_, scenario, kind) in self.tenancy_calls() {
                    reports.push(run_scenario(&scenario, kind, None).map_err(|e| e.to_string())?);
                }
                Ok(self.tenancy_output(reports))
            }
        }
    }

    /// Digests a `run_app` result: every `AppResult` field.
    pub fn app_output(&self, r: AppResult) -> Output {
        let bytes = r.phase1.read_bytes + r.phase1.write_bytes;
        let bytes = bytes + r.phase2.read_bytes + r.phase2.write_bytes;
        Output {
            digests: vec![(self.label(self.workload.name()), digest(&format!("{r:?}")))],
            beats: bytes / BEAT_BYTES,
            detail: Detail::App(r),
        }
    }

    /// Digests a sweep: `Exploration::to_json()`. Every evaluated
    /// candidate reads the whole matrix once.
    pub fn explore_output(&self, e: Exploration) -> Output {
        let n = self.n as u64;
        Output {
            digests: vec![(self.label(self.workload.name()), digest(&e.to_json()))],
            beats: e.points.len() as u64 * n * n,
            detail: Detail::Explore(e),
        }
    }

    /// Digests the reports of [`tenancy_calls`](Self::tenancy_calls):
    /// one digest per label over its reports' `to_json()`.
    pub fn tenancy_output(&self, reports: Vec<ServiceReport>) -> Output {
        let mut texts: Vec<(&'static str, String)> = Vec::new();
        for ((label, _, _), rep) in self.tenancy_calls().iter().zip(&reports) {
            match texts.iter_mut().find(|(l, _)| l == label) {
                Some((_, text)) => text.push_str(&rep.to_json()),
                None => texts.push((label, rep.to_json())),
            }
        }
        let beats = reports.iter().map(|r| r.system.bytes_total()).sum::<u64>() / BEAT_BYTES;
        Output {
            digests: texts
                .into_iter()
                .map(|(label, text)| (self.label(label), digest(&text)))
                .collect(),
            beats,
            detail: Detail::Tenancy(reports),
        }
    }

    /// Whether a digest label depends on the seed, so that no golden
    /// record can hold it and the reference path must supply it.
    pub fn seeded(label: &str) -> bool {
        label.starts_with("tenancy.mixed")
    }
}
