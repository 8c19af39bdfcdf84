//! The per-response correctness oracle.
//!
//! Expected outcomes are computed at set-up by calling the layers directly,
//! outside the daemon, and every response is compared against them:
//!
//! * an app response's checksum and element count must equal a direct
//!   cooperative `EvalApp::run_spec` of the same app and block count, so a
//!   `compiled` response also checks the cross-backend bit-identity
//!   contract;
//! * a manifest response's per-kernel iterations and busy cycles and its
//!   `ns_per_block` must equal a direct `aie_sim::deploy_manifest` plus
//!   `SimReport::build` of the same manifest;
//! * a manifest's status must equal the verdict of `FlatGraph::validate`
//!   and lint: `200`, or `422` with the same error code.

use crate::workload::{admission_verdict, Stream, Target};
use aie_sim::{DeployOptions, SimReport, VerifyPolicy};
use cgsim_graphs::{all_apps, RunSpec};
use cgsim_serve::wire::ErrorBody;
use cgsim_serve::ServeReport;
use std::collections::HashMap;

/// What one template's response must be.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `200` with this checksum and element count.
    App {
        /// FNV-1a checksum of the output stream.
        checksum: u64,
        /// Output elements.
        elements: u64,
    },
    /// `200` with these `aie-sim` results.
    Sim {
        /// `(instance, iterations, busy cycles)` per kernel, in graph order.
        kernels: Vec<(String, u64, u64)>,
        /// `ns_per_block` as the report's counter carries it (truncated).
        ns_per_block: Option<u64>,
    },
    /// `422` with this error code.
    Reject {
        /// The `CG0xx` code.
        code: String,
    },
}

/// Expected outcome of a simulated manifest.
pub fn expect_sim(report: &SimReport) -> Expect {
    Expect::Sim {
        kernels: report
            .kernels
            .iter()
            .map(|k| (k.instance.clone(), k.iterations, k.busy_cycles))
            .collect(),
        ns_per_block: report.ns_per_block.map(|ns| ns as u64),
    }
}

/// Simulate `m` directly, as the daemon's job does after admission (which
/// has already linted it, so the deploy runs unchecked).
pub fn simulate(m: &aie_sim::DeployManifest) -> Result<SimReport, String> {
    let trace = aie_sim::deploy_manifest(m, &DeployOptions::new().verify(VerifyPolicy::Off))
        .map_err(|e| format!("[{}] {}", e.code(), e.message()))?;
    let kinds: HashMap<String, String> = m
        .graph
        .kernels
        .iter()
        .map(|k| (k.instance.clone(), k.kind.clone()))
        .collect();
    Ok(SimReport::build(
        &trace,
        &m.profile_map(),
        &kinds,
        &m.config,
    ))
}

/// Expected outcome per template of a stream.
pub struct Oracle {
    expect: Vec<Expect>,
}

impl Oracle {
    /// Compute every template's expected outcome.
    pub fn new(stream: &Stream) -> Result<Oracle, String> {
        let apps = all_apps();
        let mut app_runs: HashMap<(usize, u64), Expect> = HashMap::new();
        let mut expect = Vec::with_capacity(stream.templates.len());
        for template in &stream.templates {
            let e = match &template.target {
                Target::App { app, blocks, .. } => {
                    if let Some(e) = app_runs.get(&(*app, *blocks)) {
                        e.clone()
                    } else {
                        let a = &apps[*app];
                        let run = a.run_spec(&RunSpec::for_graph(a.name()), *blocks)?;
                        let e = Expect::App {
                            checksum: run.checksum,
                            elements: run.out_elems as u64,
                        };
                        app_runs.insert((*app, *blocks), e.clone());
                        e
                    }
                }
                Target::Manifest(i) => {
                    let m = &stream.manifests[*i];
                    match admission_verdict(m) {
                        Some(code) => Expect::Reject { code },
                        None => expect_sim(&simulate(m)?),
                    }
                }
            };
            expect.push(e);
        }
        Ok(Oracle { expect })
    }

    /// Check a response to template `template`. On a match returns the
    /// response's `(wall_ns, queue_wait_ns)` counters (zero for a
    /// rejection); otherwise why it does not match.
    pub fn check(&self, template: u32, status: u16, body: &[u8]) -> Result<(u64, u64), String> {
        check_response(&self.expect[template as usize], status, body)
    }
}

/// Compare one response against its expected outcome.
pub fn check_response(expect: &Expect, status: u16, body: &[u8]) -> Result<(u64, u64), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response body is not UTF-8".to_string())?;
    if let Expect::Reject { code } = expect {
        if status != 422 {
            return Err(format!("status {status}, expected 422 {code}: {text}"));
        }
        let error: ErrorBody =
            serde_json::from_str(text).map_err(|e| format!("error body: {e}"))?;
        return if &error.code == code {
            Ok((0, 0))
        } else {
            Err(format!("rejected with {}, expected {code}", error.code))
        };
    }
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    let report = ServeReport::from_json(text)?;
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    match expect {
        Expect::App { checksum, elements } => {
            if report.summary.checksum != Some(*checksum) || report.summary.elements != *elements {
                return Err(format!(
                    "checksum {:?}/{} elements, expected {checksum}/{elements}",
                    report.summary.checksum, report.summary.elements
                ));
            }
        }
        Expect::Sim {
            kernels,
            ns_per_block,
        } => {
            let got: Vec<(String, u64, u64)> = report
                .kernels
                .iter()
                .map(|k| (k.instance.clone(), k.iterations, k.busy_cycles))
                .collect();
            if &got != kernels {
                return Err(format!("kernel rows {got:?}, expected {kernels:?}"));
            }
            if counter("ns_per_block") != *ns_per_block {
                return Err(format!(
                    "ns_per_block {:?}, expected {ns_per_block:?}",
                    counter("ns_per_block")
                ));
            }
        }
        Expect::Reject { .. } => unreachable!("handled above"),
    }
    Ok((
        counter("wall_ns").unwrap_or(0),
        counter("queue_wait_ns").unwrap_or(0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_report(checksum: u64, elements: u64) -> Vec<u8> {
        let report = ServeReport {
            version: cgsim_serve::REPORT_VERSION,
            summary: cgsim_serve::RunSummary {
                checksum: Some(checksum),
                elements,
                ..Default::default()
            },
            counters: vec![("wall_ns".into(), 7), ("queue_wait_ns".into(), 3)],
            ..Default::default()
        };
        report.to_json().into_bytes()
    }

    #[test]
    fn matching_app_response_passes_and_reports_job_times() {
        let expect = Expect::App {
            checksum: 42,
            elements: 16,
        };
        assert_eq!(
            check_response(&expect, 200, &app_report(42, 16)),
            Ok((7, 3))
        );
    }

    #[test]
    fn every_mismatch_fails() {
        let expect = Expect::App {
            checksum: 42,
            elements: 16,
        };
        assert!(check_response(&expect, 200, &app_report(43, 16)).is_err());
        assert!(check_response(&expect, 200, &app_report(42, 15)).is_err());
        assert!(check_response(&expect, 500, &app_report(42, 16)).is_err());
        assert!(check_response(&expect, 200, b"not json").is_err());

        let reject = Expect::Reject {
            code: "CG022".into(),
        };
        let body = |code: &str| ErrorBody::new(code, "x").to_json().into_bytes();
        assert_eq!(check_response(&reject, 422, &body("CG022")), Ok((0, 0)));
        assert!(check_response(&reject, 422, &body("CG020")).is_err());
        assert!(check_response(&reject, 200, &app_report(42, 16)).is_err());
    }

    #[test]
    fn sim_rows_and_block_time_must_match() {
        let expect = Expect::Sim {
            kernels: vec![("k".into(), 4, 40)],
            ns_per_block: Some(64),
        };
        let mut report = ServeReport {
            version: cgsim_serve::REPORT_VERSION,
            kernels: vec![cgsim_serve::KernelRow {
                instance: "k".into(),
                iterations: 4,
                busy_cycles: 40,
                utilization: 0.5,
                interval_ns: None,
                stalls: 0,
            }],
            counters: vec![("ns_per_block".into(), 64)],
            ..Default::default()
        };
        assert!(check_response(&expect, 200, report.to_json().as_bytes()).is_ok());
        report.kernels[0].busy_cycles = 41;
        assert!(check_response(&expect, 200, report.to_json().as_bytes()).is_err());
    }
}
