//! The traced run: an in-process replay of a workload's requests that calls
//! each layer's public function in the order the daemon does, with a span
//! from this file around every call.
//!
//! Nothing inside the crates is instrumented. The replay mirrors the
//! daemon's `POST /v1/run` path step by step: `http::read_request` on the
//! request bytes, JSON decode, digest, `PlanCache` get/insert (building a
//! missing entry with validate, lint and compile), the fair-queue slot,
//! `Pool::submit` + `JobHandle::wait` with a job that runs the app or the
//! manifest, and report encoding. Spans record name, layer, start, end and
//! parent; all spans of one request share its id and hang off one root
//! span. The same replay with the recorder switched off is the untraced
//! baseline the span overhead is measured against.

use crate::oracle::Oracle;
use cgsim_graphs::{all_apps, AppRun, Launch};
use cgsim_lint::{lint_graph, LintConfig, Severity};
use cgsim_pool::{Admission, Job, JobOutcome, JobOutput, Pool, PoolConfig};
use cgsim_runtime::Backend;
use cgsim_serve::cache::{digest_app, digest_manifest};
use cgsim_serve::http::{read_request, write_response};
use cgsim_serve::wire::{ErrorBody, GraphSource, RunRequest};
use cgsim_serve::{CacheEntry, CachePayload, FairQueue, PlanCache, ServeConfig, ServeReport};
use cgsim_trace::MetricsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer name of the per-request root span; its self time is the part of
/// a request no layer covers.
pub const ROOT_LAYER: &str = "unattributed";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request id shared by every span of one request.
    pub req: u32,
    /// Span id (1-based; 0 is "no parent").
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// The crate (layer) the call belongs to.
    pub layer: &'static str,
    /// Start, ns after the recorder's epoch.
    pub start_ns: u64,
    /// End, ns after the recorder's epoch.
    pub end_ns: u64,
    /// Placed from a duration the layer reported, not timed by a span of
    /// its own (the engine's `AppRun::wall_time`, which ends its parent).
    pub derived: bool,
}

/// In-memory span store shared by the replay and the pool worker.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store lock poisoned by a panicking job")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store lock poisoned by a panicking job")
            .clone()
    }
}

/// Where a span is opened: the recorder (absent in untraced passes), the
/// request id and the enclosing span.
#[derive(Clone)]
pub struct Ctx {
    rec: Option<Arc<Recorder>>,
    req: u32,
    parent: u32,
}

impl Ctx {
    /// The root context of request `req`.
    pub fn root(rec: Option<Arc<Recorder>>, req: u32) -> Ctx {
        Ctx {
            rec,
            req,
            parent: 0,
        }
    }

    /// Run `f` inside a span named `name` of `layer`.
    pub fn span<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce(&Ctx) -> R) -> R {
        let Some(rec) = &self.rec else {
            return f(self);
        };
        let id = rec.next.fetch_add(1, Ordering::Relaxed);
        let child = Ctx {
            rec: Some(Arc::clone(rec)),
            req: self.req,
            parent: id,
        };
        let start_ns = rec.now_ns();
        let out = f(&child);
        let end_ns = rec.now_ns();
        rec.push(Span {
            req: self.req,
            id,
            parent: self.parent,
            name,
            layer,
            start_ns,
            end_ns,
            derived: false,
        });
        out
    }

    /// Record a child of the enclosing span that lasted `dur_ns` and ended
    /// now.
    fn derived(&self, name: &'static str, layer: &'static str, dur_ns: u64) {
        let Some(rec) = &self.rec else {
            return;
        };
        let id = rec.next.fetch_add(1, Ordering::Relaxed);
        let end_ns = rec.now_ns();
        rec.push(Span {
            req: self.req,
            id,
            parent: self.parent,
            name,
            layer,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            derived: true,
        });
    }
}

/// The daemon-side state one replay pass owns: a cold cache, a fresh pool
/// and fair queue, built from the same `ServeConfig` as the daemon.
pub struct Replayer {
    config: ServeConfig,
    cache: PlanCache,
    fair: FairQueue,
    pool: Pool,
}

impl Replayer {
    /// Fresh state for one pass.
    pub fn new(config: &ServeConfig) -> Replayer {
        let cache = PlanCache::new(config.cache_capacity, &MetricsRegistry::default());
        let fair = FairQueue::new(config.max_inflight);
        let mut pool_config = PoolConfig::default()
            .with_workers(config.pool_workers)
            .with_queue_capacity(config.queue_capacity)
            .with_admission(Admission::Reject);
        if let Some(limit) = config.cost_limit {
            pool_config = pool_config.with_cost_limit(limit);
        }
        Replayer {
            config: config.clone(),
            cache,
            fair,
            pool: Pool::new(pool_config),
        }
    }

    /// Stop the pool and wait for its workers.
    pub fn finish(self) {
        self.pool.shutdown();
    }

    /// Replay one request; returns the status and the body.
    pub fn replay(&self, ctx: &Ctx, bytes: &[u8]) -> Result<(u16, Vec<u8>), String> {
        ctx.span("request", ROOT_LAYER, |ctx| self.handle(ctx, bytes))
    }

    fn handle(&self, ctx: &Ctx, bytes: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let request = ctx
            .span("http::read_request", "cgsim-serve", |_| {
                read_request(&mut &bytes[..], self.config.max_body_bytes)
            })
            .map_err(|e| e.to_string())?;
        let run_request: RunRequest = ctx.span("decode RunRequest", "cgsim-serve", |_| {
            let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            serde_json::from_str(body).map_err(|e| e.to_string())
        })?;
        let digest = ctx.span("digest", "cgsim-serve", |_| match &run_request.graph {
            GraphSource::App(name) => digest_app(name),
            GraphSource::Manifest(manifest) => digest_manifest(manifest),
        });
        let cached = ctx.span("PlanCache::get", "cgsim-serve", |_| self.cache.get(digest));
        let entry = match cached {
            Some(entry) => entry,
            None => match build_entry(ctx, digest, &run_request.graph) {
                Ok(entry) => ctx.span("PlanCache::insert", "cgsim-serve", |_| {
                    self.cache.insert(entry)
                }),
                Err((code, message)) => {
                    return encode_error(
                        ctx,
                        422,
                        "Unprocessable Entity",
                        ErrorBody::new(code, message),
                    )
                }
            },
        };

        let verify = run_request.spec.config().verify;
        if verify == cgsim_lint::VerifyPolicy::Deny && entry.lint.has_errors() {
            let code = entry
                .lint
                .at(Severity::Error)
                .next()
                .map(|d| d.code.clone())
                .unwrap_or_else(|| "CG012".to_string());
            let body = ErrorBody::new(code, format!("graph `{}` rejected", entry.label))
                .with_findings(entry.lint.diagnostics.clone());
            return encode_error(ctx, 422, "Unprocessable Entity", body);
        }

        let _slot = ctx.span("FairQueue::acquire", "cgsim-serve", |_| {
            self.fair.acquire("127.0.0.1")
        });
        let spec = run_request.spec.clone();
        let app_slot: Arc<Mutex<Option<AppRun>>> = Arc::new(Mutex::new(None));
        let sim_slot: Arc<Mutex<Option<aie_sim::SimReport>>> = Arc::new(Mutex::new(None));
        let outcome = ctx.span("Pool::submit+wait", "cgsim-pool", |pool_span| {
            let job = pool_job(
                pool_span,
                &entry.payload,
                &spec,
                run_request.blocks,
                &app_slot,
                &sim_slot,
            );
            let handle = self
                .pool
                .submit(job)
                .map_err(|e| format!("submit: {e:?}"))?;
            Ok::<_, String>(handle.wait())
        })?;
        let result = match outcome {
            JobOutcome::Completed(result) => result,
            other => return Err(format!("job did not complete: {other:?}")),
        };
        let body = ctx.span("encode ServeReport", "cgsim-serve", |_| {
            let mut report = if let Some(run) =
                app_slot.lock().unwrap_or_else(|e| e.into_inner()).take()
            {
                let mut report = match &run.report {
                    Some(run_report) => ServeReport::from(&**run_report),
                    None => ServeReport::default(),
                };
                report.engine = match spec.target() {
                    Backend::Compiled => "compiled",
                    Backend::Threaded => "threaded",
                    Backend::Cooperative => "cooperative",
                }
                .into();
                report.summary.checksum = Some(run.checksum);
                report.summary.elements = run.out_elems as u64;
                report.summary.kernel_fraction = run.kernel_fraction;
                report
            } else if let Some(sim) = sim_slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                ServeReport::from(&sim)
            } else {
                ServeReport::default()
            };
            report.label = spec.label().to_string();
            report
                .counters
                .push(("wall_ns".into(), result.wall.as_nanos() as u64));
            report
                .counters
                .push(("queue_wait_ns".into(), result.queue_wait.as_nanos() as u64));
            for (name, value) in &result.output.counters {
                report.counters.push((name.clone(), *value));
            }
            if verify != cgsim_lint::VerifyPolicy::Off {
                report.lint = entry.lint.diagnostics.clone();
            }
            report.bounds = entry.lint.bounds().cloned();
            let json = report.to_json();
            let mut out = Vec::with_capacity(json.len() + 128);
            write_response(
                &mut out,
                200,
                "OK",
                "application/json",
                json.as_bytes(),
                &[],
            )
            .map_err(|e| e.to_string())?;
            Ok::<_, String>(json.into_bytes())
        })?;
        Ok((200, body))
    }
}

/// The pool job the daemon submits for `payload`, its spans opened under
/// `pool_span` (they run on a pool worker). The job leaves its `AppRun` or
/// `SimReport` in the matching slot for encoding.
fn pool_job(
    pool_span: &Ctx,
    payload: &CachePayload,
    spec: &cgsim_runtime::RunSpec,
    blocks: u64,
    app_slot: &Arc<Mutex<Option<AppRun>>>,
    sim_slot: &Arc<Mutex<Option<aie_sim::SimReport>>>,
) -> Job {
    let job_ctx = pool_span.clone();
    match payload {
        CachePayload::App { name, plan, .. } => {
            let name = name.clone();
            let plan = plan.clone().map(|plan| *plan);
            let blocks = blocks.max(1);
            let slot = Arc::clone(app_slot);
            let engine = match spec.target() {
                Backend::Compiled => "cgsim-compiled",
                _ => "cgsim-runtime",
            };
            Job::new(spec.clone(), move |pool_ctx| {
                job_ctx.span("EvalApp::run_launched", "cgsim-graphs", |ctx| {
                    let app = all_apps()
                        .into_iter()
                        .find(|a| a.name() == name.as_str())
                        .ok_or_else(|| format!("app `{name}` vanished"))?;
                    let launch = Launch {
                        plan,
                        tracer: pool_ctx.tracer().clone(),
                    };
                    let run = app.run_launched(&pool_ctx.effective_spec(), blocks, launch)?;
                    ctx.derived("engine run", engine, run.wall_time.as_nanos() as u64);
                    if let Some(report) = &run.report {
                        pool_ctx.keep_trace(report.trace.clone());
                    }
                    let output = JobOutput::new(run.checksum).elements(run.out_elems as u64);
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(run);
                    Ok(output)
                })
            })
        }
        CachePayload::Manifest(manifest) => {
            let manifest = (**manifest).clone();
            let slot = Arc::clone(sim_slot);
            Job::new(spec.clone(), move |_| {
                let trace = job_ctx.span("aie_sim::deploy_manifest", "aie-sim", |_| {
                    aie_sim::deploy_manifest(
                        &manifest,
                        &aie_sim::DeployOptions::new().verify(cgsim_lint::VerifyPolicy::Off),
                    )
                    .map_err(|e| format!("[{}] {}", e.code(), e.message()))
                })?;
                let report = job_ctx.span("SimReport::build", "aie-sim", |_| {
                    let kinds: HashMap<String, String> = manifest
                        .graph
                        .kernels
                        .iter()
                        .map(|k| (k.instance.clone(), k.kind.clone()))
                        .collect();
                    aie_sim::SimReport::build(
                        &trace,
                        &manifest.profile_map(),
                        &kinds,
                        &manifest.config,
                    )
                });
                let blocks = report.blocks as u64;
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
                Ok(JobOutput::new(0).elements(blocks))
            })
        }
    }
}

fn encode_error(
    ctx: &Ctx,
    status: u16,
    reason: &str,
    body: ErrorBody,
) -> Result<(u16, Vec<u8>), String> {
    ctx.span("encode ErrorBody", "cgsim-serve", |_| {
        let json = body.to_json();
        let mut out = Vec::with_capacity(json.len() + 128);
        write_response(
            &mut out,
            status,
            reason,
            "application/json",
            json.as_bytes(),
            &[],
        )
        .map_err(|e| e.to_string())?;
        Ok((status, json.into_bytes()))
    })
}

/// The daemon's cache-miss path: app graph + lint + compile, or manifest
/// validate + lint. `Err` carries the `422` code and message.
fn build_entry(
    ctx: &Ctx,
    digest: u64,
    source: &GraphSource,
) -> Result<CacheEntry, (String, String)> {
    match source {
        GraphSource::App(name) => {
            let graph = ctx
                .span("EvalApp::graph", "cgsim-graphs", |_| {
                    all_apps()
                        .into_iter()
                        .find(|a| a.name() == name.as_str())
                        .map(|app| app.graph())
                })
                .ok_or_else(|| ("UNKNOWN_APP".to_string(), format!("no app `{name}`")))?;
            let lint_config = LintConfig::default();
            let lint = ctx.span("lint_graph", "cgsim-lint", |_| {
                lint_graph(&graph, &lint_config)
            });
            let plan = ctx.span("cgsim_compiled::compile", "cgsim-compiled", |_| {
                cgsim_compiled::compile(&graph, &lint_config).ok()
            });
            Ok(CacheEntry {
                digest,
                label: name.clone(),
                lint,
                payload: CachePayload::App {
                    name: name.clone(),
                    graph: Box::new(graph),
                    plan: plan.map(Box::new),
                },
            })
        }
        GraphSource::Manifest(manifest) => {
            ctx.span("FlatGraph::validate", "cgsim-core", |_| {
                manifest.graph.validate()
            })
            .map_err(|e| (e.code().to_string(), e.message()))?;
            let lint = ctx.span("DeployManifest::lint", "cgsim-lint", |_| manifest.lint());
            Ok(CacheEntry {
                digest,
                label: manifest.graph.name.clone(),
                lint,
                payload: CachePayload::Manifest(manifest.clone()),
            })
        }
    }
}

/// Outcome of one replay pass.
pub struct Pass {
    /// Requests replayed.
    pub requests: usize,
    /// Σ time spent in the replayed requests (response checks excluded),
    /// ns.
    pub elapsed_ns: u64,
}

/// Replay `slots` (in order, without their due times) through a fresh
/// replayer, checking every response; stop early once `budget_ns` has
/// passed if one is given. A traced pass records into the recorder with
/// request ids counting up from the one given.
pub fn replay_pass(
    stream: &crate::workload::Stream,
    oracle: &Oracle,
    config: &ServeConfig,
    slots: &[crate::workload::Slot],
    traced: Option<(&Arc<Recorder>, u32)>,
    budget_ns: Option<u64>,
    failures: &crate::daemon::Failures,
) -> Pass {
    let replayer = Replayer::new(config);
    let start = Instant::now();
    let mut requests = 0;
    let mut elapsed_ns = 0;
    for (i, slot) in slots.iter().enumerate() {
        if budget_ns.is_some_and(|b| start.elapsed().as_nanos() as u64 >= b) {
            break;
        }
        let ctx = match traced {
            Some((rec, first_req)) => Ctx::root(Some(Arc::clone(rec)), first_req + i as u32),
            None => Ctx::root(None, 0),
        };
        let bytes = &stream.templates[slot.template as usize].bytes;
        let t = Instant::now();
        let replayed = replayer.replay(&ctx, bytes);
        elapsed_ns += t.elapsed().as_nanos() as u64;
        let checked =
            replayed.and_then(|(status, body)| oracle.check(slot.template, status, &body));
        if let Err(why) = checked {
            failures.record(format!("replay of template {}: {why}", slot.template));
        }
        requests += 1;
    }
    replayer.finish();
    Pass {
        requests,
        elapsed_ns,
    }
}

/// Self time per layer and per call, reconciled against the root spans.
#[derive(Default, Debug)]
pub struct Waterfall {
    /// Requests (root spans).
    pub requests: usize,
    /// Σ root span durations, ns.
    pub root_ns: u64,
    /// Σ self time per layer, ns; [`ROOT_LAYER`] is what no layer covers.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// `(calls, Σ duration ns, Σ self ns)` per span name.
    pub calls: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Spans that do not nest inside their parent or whose parent belongs
    /// to another request or is missing.
    pub nesting_violations: usize,
}

impl Waterfall {
    /// Reconcile a set of spans.
    pub fn from_spans(spans: &[Span]) -> Waterfall {
        let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        let mut w = Waterfall::default();
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let calls = w.calls.entry(s.name).or_default();
            calls.0 += 1;
            calls.1 += dur;
            if s.parent == 0 {
                w.requests += 1;
                w.root_ns += dur;
                continue;
            }
            match by_id.get(&s.parent) {
                Some(p) if p.req == s.req && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns => {
                    *child_ns.entry(s.parent).or_default() += dur;
                }
                _ => w.nesting_violations += 1,
            }
        }
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *w.layer_self_ns.entry(s.layer).or_default() += own;
            w.calls.get_mut(s.name).expect("counted above").2 += own;
        }
        w
    }

    /// Share of root-span time that no layer's span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.layer_self_ns.get(ROOT_LAYER).copied().unwrap_or(0);
        own as f64 / self.root_ns.max(1) as f64
    }

    /// Mean duration of the calls named `name`, µs (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map(|&(n, ns, _)| ns as f64 / n.max(1) as f64 / 1e3)
            .unwrap_or(0.0)
    }
}

/// Chrome-trace JSON (`traceEvents`, complete events in µs) of `spans`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{:?},\"cat\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"id\":{},\"parent\":{},\"derived\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
                s.id,
                s.parent,
                s.derived
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            req,
            id,
            parent,
            name: layer,
            layer,
            start_ns: start,
            end_ns: end,
            derived: false,
        }
    }

    #[test]
    fn self_times_reconcile_with_the_root() {
        let spans = [
            span(1, 1, 0, ROOT_LAYER, 0, 100),
            span(1, 2, 1, "a", 10, 50),
            span(1, 3, 2, "b", 20, 30),
            span(1, 4, 1, "c", 60, 90),
        ];
        let w = Waterfall::from_spans(&spans);
        assert_eq!(w.nesting_violations, 0);
        assert_eq!(w.layer_self_ns[ROOT_LAYER], 30);
        assert_eq!(w.layer_self_ns["a"], 30);
        assert_eq!(w.layer_self_ns["b"], 10);
        assert_eq!(w.layer_self_ns["c"], 30);
        assert_eq!(w.layer_self_ns.values().sum::<u64>(), w.root_ns);
        assert!((w.unattributed_frac() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn escaping_children_are_violations() {
        let spans = [
            span(1, 1, 0, ROOT_LAYER, 0, 100),
            span(1, 2, 1, "a", 90, 120),
            span(2, 3, 1, "b", 10, 20),
            span(2, 4, 9, "c", 10, 20),
        ];
        assert_eq!(Waterfall::from_spans(&spans).nesting_violations, 3);
    }

    #[test]
    fn untraced_context_records_nothing_and_traced_nests() {
        let rec = Recorder::new();
        let out = Ctx::root(None, 1).span("x", "l", |c| c.span("y", "l", |_| 7));
        assert_eq!(out, 7);
        Ctx::root(Some(Arc::clone(&rec)), 1).span("x", ROOT_LAYER, |c| {
            c.span("y", "l", |c| c.derived("z", "m", 0))
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(Waterfall::from_spans(&spans).nesting_violations, 0);
    }
}
