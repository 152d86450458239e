//! Golden digests: the expected simulated output of every unit.
//!
//! `golden.json` holds one digest per seed-independent output, made on
//! the `ServicePath::Reference` scalar path. Timed units run on the
//! fast path, so every match is also a fast ≡ reference differential.
//! Seed-dependent outputs (the `mixed` tenancy scenario) cannot be
//! committed; their expected digest is simulated on the reference path
//! during set-up instead.

use std::collections::BTreeMap;

use mem3d::ServicePath;
use sim_util::json;
use tenancy::run_scenario;

use crate::workload::{digest, Output, Plan, Scale, Workload};

/// The committed golden record, embedded at build time.
pub const COMMITTED: &str = include_str!("../golden.json");

/// Golden digests by label (`<output>@<n>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    digests: BTreeMap<String, u64>,
}

impl Golden {
    /// Parses a golden record.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a digest that is not 16 hex digits.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let v = json::parse(text).map_err(|e| format!("golden record: {e}"))?;
        let Some(json::Value::Object(fields)) = v.get("digests") else {
            return Err("golden record: no `digests` object".into());
        };
        let mut digests = BTreeMap::new();
        for (label, value) in fields {
            let hex = value
                .as_str()
                .filter(|h| h.len() == 16)
                .ok_or_else(|| format!("golden record: `{label}` is not a 16-digit hex string"))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("golden record: `{label}`: {e}"))?;
            digests.insert(label.clone(), d);
        }
        Ok(Golden { digests })
    }

    /// Records `digest` under `label`.
    fn insert(&mut self, label: String, digest: u64) {
        self.digests.insert(label, digest);
    }

    /// The record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .digests
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{v:016x}\"", json::escape(k)))
            .collect();
        format!(
            "{{\n  \"path\": \"ServicePath::Reference\",\n  \"digests\": {{\n{}\n  }}\n}}\n",
            body.join(",\n")
        )
    }

    fn get(&self, label: &str) -> Result<u64, String> {
        self.digests
            .get(label)
            .copied()
            .ok_or_else(|| format!("golden record has no digest for `{label}`"))
    }

    /// The digests a unit of `plan` must produce: committed ones from
    /// this record, seed-dependent ones simulated now on the reference
    /// path.
    ///
    /// # Errors
    ///
    /// Fails when a committed digest is missing or the reference
    /// simulation fails.
    pub fn expected(&self, plan: &Plan) -> Result<Vec<(String, u64)>, String> {
        if plan.workload != Workload::Tenancy {
            let label = plan.label(plan.workload.name());
            return Ok(vec![(label.clone(), self.get(&label)?)]);
        }
        let reference = plan.on(ServicePath::Reference);
        let mut seeded = String::new();
        for (label, scenario, kind) in reference.tenancy_calls() {
            if Plan::seeded(label) {
                let rep = run_scenario(&scenario, kind, None).map_err(|e| e.to_string())?;
                seeded.push_str(&rep.to_json());
            }
        }
        let fair = plan.label("tenancy.fair");
        Ok(vec![
            (fair.clone(), self.get(&fair)?),
            (plan.label("tenancy.mixed"), digest(&seeded)),
        ])
    }
}

/// Compares a unit's digests with the expected ones.
///
/// # Errors
///
/// Names the first label whose digest differs.
pub fn check(out: &Output, expected: &[(String, u64)]) -> Result<(), String> {
    if out.digests.len() != expected.len() {
        return Err(format!(
            "{} digests, expected {}",
            out.digests.len(),
            expected.len()
        ));
    }
    for ((label, got), (want_label, want)) in out.digests.iter().zip(expected) {
        if label != want_label || got != want {
            return Err(format!(
                "{label}: digest {got:016x}, golden {want_label} {want:016x}"
            ));
        }
    }
    Ok(())
}

/// Simulates every workload at each of `scales` on the reference path
/// and records the seed-independent digests.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn generate(scales: &[Scale]) -> Result<Golden, String> {
    let mut g = Golden::default();
    for &scale in scales {
        for w in Workload::ALL {
            let out = Plan::new(w, scale, 0, ServicePath::Reference).run()?;
            for (label, d) in out.digests {
                if !Plan::seeded(&label) {
                    g.insert(label, d);
                }
            }
        }
    }
    Ok(g)
}
