//! The three workloads as seeded request streams.
//!
//! Every byte a workload sends is built here, before any timing starts. A
//! stream is a table of request templates (the full HTTP bytes of each
//! distinct request) plus an order of slots naming a template, the time
//! the slot is due (open loop only) and its ladder step. The same seed and
//! run length give a byte-identical stream; see [`Stream::digest`].

use crate::rng::Rng;
use aie_intrinsics::counter::OpCounts;
use aie_sim::{DeployManifest, KernelCostProfile, PortTraffic, SimConfig, WorkloadSpec};
use cgsim_check::gen::{generate, GenConfig};
use cgsim_check::kernels::PALETTE_SHAPES;
use cgsim_core::PortKind;
use cgsim_graphs::{all_apps, Backend, RunSpec};
use cgsim_lint::Severity;
use cgsim_serve::wire::{GraphSource, RunRequest, WIRE_VERSION};
use std::sync::Arc;

/// Input bytes every `paper-sim` request feeds, whatever the app.
pub const PAPER_INPUT_BYTES: u64 = 128 * 1024;

/// `cycle-model` blocks per app, in `all_apps()` order. Chosen so that a
/// request of each app takes the same client latency, about 4.5 ms on a
/// 2-vCPU x86-64 host, most of it `aie-sim` host time (bitonic and IIR
/// simulate about 0.25 µs per block, farrow about 47 µs, bilinear about
/// 19 µs). With equal costs the latency distribution has one mode; with two
/// (half the apps 20 % dearer) the median fell in the gap between them and
/// jumped from run to run.
pub const CYCLE_BLOCKS: [u64; 4] = [11264, 54, 11264, 176];

/// Generated manifests that `serve-mix` resubmits. With the four app names
/// they are 7 graphs, which would fit the daemon's default 8-entry
/// compiled-graph cache on their own. The cache is LRU, though, and the
/// one-off manifests of the mix evict them between uses, so about half of
/// all `serve-mix` requests hit the cache (`serve.cache_hit_ratio`).
pub const HOT_MANIFESTS: usize = 3;

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the four paper apps × two backends at 128 KiB.
    PaperSim,
    /// Open loop over a ladder of Poisson rates with small, mixed requests.
    ServeMix,
    /// Closed loop over Table 1 deployment manifests on `aie-sim`.
    CycleModel,
}

impl Workload {
    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "paper-sim" => Some(Workload::PaperSim),
            "serve-mix" => Some(Workload::ServeMix),
            "cycle-model" => Some(Workload::CycleModel),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper-sim",
            Workload::ServeMix => "serve-mix",
            Workload::CycleModel => "cycle-model",
        }
    }
}

/// What a request asks the daemon to run.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// An evaluation app by index into `all_apps()`.
    App {
        /// Index into `all_apps()`.
        app: usize,
        /// Input blocks.
        blocks: u64,
        /// Execution backend.
        backend: Backend,
    },
    /// An inline manifest, by index into [`Stream::manifests`].
    Manifest(usize),
}

/// Why a serve-mix request was drawn; used for reporting only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A paper app run.
    App,
    /// A manifest from the hot set.
    Hot,
    /// A manifest seen once.
    Fresh,
    /// A manifest the admission gate must reject.
    Reject,
    /// A Table 1 deployment manifest.
    Table1,
}

/// One distinct request.
#[derive(Clone, Debug)]
pub struct Template {
    /// What it runs.
    pub target: Target,
    /// Why it was drawn.
    pub kind: Kind,
    /// The complete HTTP request.
    pub bytes: Arc<[u8]>,
    /// Input bytes the request simulates (0 for a manifest admission must
    /// reject).
    pub input_bytes: u64,
}

/// One entry of the send order.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Index into [`Stream::templates`].
    pub template: u32,
    /// Due time after the start of the load, ns (0 in closed loops).
    pub due_ns: u64,
    /// Ladder step (0 in closed loops).
    pub step: u16,
}

/// One rate of the open-loop ladder, offered in one or more segments of
/// the load.
#[derive(Clone, Debug)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// `(start, length)` of each segment, ns after the start of the load.
    pub segments: Vec<(u64, u64)>,
}

impl Step {
    /// Total time this rate is offered, ns.
    pub fn len_ns(&self) -> u64 {
        self.segments.iter().map(|&(_, len)| len).sum()
    }
}

/// A workload's complete, prebuilt request stream.
pub struct Stream {
    /// Distinct requests.
    pub templates: Vec<Template>,
    /// Inline manifests referenced by templates.
    pub manifests: Vec<DeployManifest>,
    /// Send order.
    pub slots: Vec<Slot>,
    /// Templates answered once during set-up: every distinct graph of a
    /// closed loop, and the apps plus the hot set of `serve-mix`.
    pub warm: Vec<u32>,
    /// Open-loop ladder (empty for closed loops).
    pub ladder: Vec<Step>,
    /// Ladder step at which `req_p50_ms`/`req_p90_ms` are reported.
    pub nominal: usize,
}

impl Stream {
    /// Build the stream of `workload` for `seed`, sized for a load of
    /// `seconds`.
    pub fn build(workload: Workload, seed: u64, seconds: u64) -> Stream {
        match workload {
            Workload::PaperSim => paper_sim(seed, seconds),
            Workload::ServeMix => serve_mix(seed, seconds),
            Workload::CycleModel => cycle_model(seed, seconds),
        }
    }

    /// FNV-1a over every byte the stream sends, in order, with each slot's
    /// due time and step.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for slot in &self.slots {
            eat(&self.templates[slot.template as usize].bytes);
            eat(&slot.due_ns.to_le_bytes());
            eat(&slot.step.to_le_bytes());
        }
        hash
    }

    /// The slots due before `ns` after the start of the load.
    pub fn slots_before(&self, ns: u64) -> &[Slot] {
        let end = self.slots.partition_point(|s| s.due_ns < ns);
        &self.slots[..end]
    }
}

/// The HTTP bytes of a `POST /v1/run` carrying `request`.
fn http_post(request: &RunRequest) -> Arc<[u8]> {
    let body = serde_json::to_string(request).expect("RunRequest serializes");
    let head = format!(
        "POST /v1/run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes.into()
}

fn app_template(app: usize, blocks: u64, backend: Backend) -> Template {
    let apps = all_apps();
    let name = apps[app].name();
    let request = RunRequest {
        version: WIRE_VERSION,
        graph: GraphSource::App(name.to_string()),
        spec: RunSpec::for_graph(name).backend(backend),
        blocks,
        trace: false,
    };
    Template {
        target: Target::App {
            app,
            blocks,
            backend,
        },
        kind: Kind::App,
        bytes: http_post(&request),
        input_bytes: blocks * apps[app].block_bytes(),
    }
}

fn manifest_template(
    manifests: &mut Vec<DeployManifest>,
    m: DeployManifest,
    kind: Kind,
) -> Template {
    let request = RunRequest {
        version: WIRE_VERSION,
        graph: GraphSource::Manifest(Box::new(m.clone())),
        spec: RunSpec::for_graph(m.graph.name.clone()),
        blocks: m.workload.blocks,
        trace: false,
    };
    // A rejected manifest simulates nothing.
    let input_bytes = if kind == Kind::Reject {
        0
    } else {
        manifest_input_bytes(&m)
    };
    manifests.push(m);
    Template {
        target: Target::Manifest(manifests.len() - 1),
        kind,
        bytes: http_post(&request),
        input_bytes,
    }
}

/// Bytes a manifest's workload feeds into the graph: blocks × elements per
/// block × element size of the consuming port.
fn manifest_input_bytes(m: &DeployManifest) -> u64 {
    let elem_bytes = m
        .graph
        .inputs
        .iter()
        .map(|c| m.graph.connectors[c.index()].dtype.size as u64)
        .collect::<Vec<_>>();
    m.workload
        .elems_per_block_in
        .iter()
        .zip(elem_bytes)
        .map(|(elems, bytes)| m.workload.blocks * elems * bytes)
        .sum()
}

/// `count` slots over templates `0..kinds`, dealt in seeded shuffled
/// rounds.
fn shuffled_rounds(rng: Rng, kinds: u32, count: usize) -> Vec<Slot> {
    let mut deck = Deck::new(rng, kinds as usize);
    (0..count)
        .map(|_| Slot {
            template: deck.deal() as u32,
            due_ns: 0,
            step: 0,
        })
        .collect()
}

fn paper_sim(seed: u64, seconds: u64) -> Stream {
    let templates: Vec<Template> = all_apps()
        .iter()
        .enumerate()
        .flat_map(|(i, app)| {
            let blocks = PAPER_INPUT_BYTES / app.block_bytes();
            [Backend::Cooperative, Backend::Compiled]
                .into_iter()
                .map(move |backend| app_template(i, blocks, backend))
        })
        .collect();
    let n = templates.len() as u32;
    // Far more slots than one connection can complete (about 70/s); a run
    // that outlasts them wraps around.
    let slots = shuffled_rounds(Rng::new(seed, 1), n, (seconds as usize).max(1) * 400);
    Stream {
        templates,
        manifests: Vec::new(),
        slots,
        warm: (0..n).collect(),
        ladder: Vec::new(),
        nominal: 0,
    }
}

/// The Table 1 deployment manifest of app `app` under `config`.
pub fn table1_manifest(app: usize, config: SimConfig) -> DeployManifest {
    let apps = all_apps();
    let a = &apps[app];
    let mut profiles: Vec<KernelCostProfile> = a.profiles().into_values().collect();
    profiles.sort_by(|x, y| x.kernel.cmp(&y.kernel));
    DeployManifest::new(a.graph(), profiles, config, a.workload(CYCLE_BLOCKS[app]))
}

/// The two `SimConfig`s of Table 1, with their metric suffixes.
pub fn table1_configs() -> [(&'static str, SimConfig); 2] {
    [
        ("hand", SimConfig::hand_optimized()),
        ("extracted", SimConfig::extracted()),
    ]
}

fn cycle_model(seed: u64, seconds: u64) -> Stream {
    let mut manifests = Vec::new();
    let mut templates = Vec::new();
    for app in 0..all_apps().len() {
        for (_, config) in table1_configs() {
            let m = table1_manifest(app, config);
            templates.push(manifest_template(&mut manifests, m, Kind::Table1));
        }
    }
    let n = templates.len() as u32;
    // About 300 requests/s fit one connection; leave ample headroom.
    let slots = shuffled_rounds(Rng::new(seed, 3), n, (seconds as usize).max(1) * 1500);
    Stream {
        templates,
        manifests,
        slots,
        warm: (0..n).collect(),
        ladder: Vec::new(),
        nominal: 0,
    }
}

/// Cost profiles for the generator's kernel palette: one 8-byte stream
/// element per port per iteration and no compute, as the conformance
/// oracle's `aie-sim` leg models them.
fn palette_profiles() -> Vec<KernelCostProfile> {
    let stream = PortTraffic {
        elems_per_iter: 1,
        elem_bytes: 8,
        kind: PortKind::Stream,
    };
    PALETTE_SHAPES
        .iter()
        .map(|&(kind, n_in, n_out)| {
            KernelCostProfile::measured(
                kind,
                OpCounts::default(),
                vec![stream; n_in],
                vec![stream; n_out],
            )
        })
        .collect()
}

/// A manifest around the graph `config` generates from `graph_seed`.
fn generated_manifest(graph_seed: u64, config: &GenConfig) -> DeployManifest {
    let case = generate(graph_seed, config);
    let feed_len = case.feeds[0].len() as u64;
    let workload = WorkloadSpec {
        blocks: 1,
        elems_per_block_in: vec![feed_len; case.graph.inputs.len()],
        elems_per_block_out: case.outputs.iter().map(|o| o.len).collect(),
    };
    DeployManifest::new(
        case.graph,
        palette_profiles(),
        SimConfig::hand_optimized(),
        workload,
    )
}

/// The admission verdict the daemon must reach for `m`: `None` to run it,
/// or the error code of its `422` — the `FlatGraph::validate` error, else
/// the first Error-severity lint finding.
pub fn admission_verdict(m: &DeployManifest) -> Option<String> {
    if let Err(e) = m.graph.validate() {
        return Some(e.code().to_string());
    }
    m.lint().at(Severity::Error).next().map(|d| d.code.clone())
}

/// A generated manifest broken so that admission rejects it. A `structural`
/// break lists a global input twice, an error `FlatGraph::validate`
/// reports; otherwise the first kernel's input channel shrinks to one slot
/// while its port moves four elements per firing, a lint Error (and should
/// lint not object, the structural break is applied as well).
fn rejected_manifest(graph_seed: u64, structural: bool) -> DeployManifest {
    let mut m = generated_manifest(graph_seed, &GenConfig::default());
    if !structural {
        let port = &mut m.graph.kernels[0].ports[0];
        port.rate = 4;
        let connector = port.connector.index();
        m.graph.connectors[connector].settings.depth = 1;
    }
    if structural || admission_verdict(&m).is_none() {
        let first = m.graph.inputs[0];
        m.graph.inputs.push(first);
        m.workload
            .elems_per_block_in
            .push(m.workload.elems_per_block_in[0]);
    }
    m
}

/// Offered rates of the `serve-mix` ladder, requests per second. The first
/// is the nominal rate the gated latency is reported at. It is an
/// assumption of the benchmark, not a measured load: light load, under half
/// of the lowest capacity measured on a 2-vCPU host (442–480 requests/s
/// under the p90 limit), where the pool is 7 % busy and queue wait is tens
/// of µs.
/// There the latency is each request's own cost rather than the backlog,
/// which follows the host's capacity and that moved 2× between runs. The
/// other rates rise across that capacity, so the ladder finds the rate at
/// which the p90 limit is crossed.
pub const LADDER_RPS: [f64; 7] = [200.0, 450.0, 575.0, 700.0, 825.0, 950.0, 1075.0];

/// How the load time is laid out, as `(ladder step, share of the load)`;
/// `None` is an idle gap that lets a backlog from the top of a sweep drain.
/// The nominal rate and a sweep of the rising rates are offered twice, so
/// every rate's figures average two separate stretches of time. Most of the
/// time goes to the nominal rate, whose latency is the gated figure.
const LAYOUT: [(Option<usize>, f64); 16] = [
    (Some(0), 0.35),
    (Some(1), 0.025),
    (Some(2), 0.025),
    (Some(3), 0.025),
    (Some(4), 0.025),
    (Some(5), 0.025),
    (Some(6), 0.025),
    (None, 0.03),
    (Some(0), 0.35),
    (Some(1), 0.025),
    (Some(2), 0.025),
    (Some(3), 0.025),
    (Some(4), 0.025),
    (Some(5), 0.025),
    (Some(6), 0.025),
    (None, 0.03),
];

/// Requests of each kind in one shuffled round of `serve-mix`: 45 % app
/// runs, 30 % hot manifests, 15 % fresh manifests and 10 % manifests the
/// admission gate must reject. No request log of the daemon exists, so the
/// shares are assumptions of the benchmark, each chosen for what it makes
/// the figures show:
///
/// * app runs are under half, so manifest requests, whose multi-KB bodies
///   the decoder pays for, are the majority;
/// * a quarter of requests are one-off graphs (fresh + rejected) and always
///   miss the cache, so the miss path (validate and lint) runs at least
///   350 times per 10 s run at the nominal rate, and the hit path and the
///   miss path both carry a large share of the latency distribution;
/// * rejections are fewer than fresh manifests, so most misses go on to
///   execute, yet a run still times about 140 rejections.
///
/// Dealing whole rounds keeps the mix exact in every step; the seed decides
/// the order.
const ROUND: [(Kind, usize); 4] = [
    (Kind::App, 9),
    (Kind::Hot, 6),
    (Kind::Fresh, 3),
    (Kind::Reject, 2),
];

/// Deals items from seeded shuffled rounds of `0..n`.
struct Deck {
    rng: Rng,
    n: usize,
    cards: Vec<usize>,
}

impl Deck {
    fn new(rng: Rng, n: usize) -> Deck {
        Deck {
            rng,
            n,
            cards: Vec::new(),
        }
    }

    fn deal(&mut self) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.n).collect();
            self.rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("refilled above")
    }
}

fn serve_mix(seed: u64, seconds: u64) -> Stream {
    let mut rng = Rng::new(seed, 2);
    let mut manifests = Vec::new();
    let mut templates = Vec::new();
    let apps = all_apps().len();

    // Apps × backends × 1..=4 blocks.
    for app in 0..apps {
        for backend in [Backend::Cooperative, Backend::Compiled] {
            for blocks in 1..=4 {
                templates.push(app_template(app, blocks, backend));
            }
        }
    }
    let n_app = templates.len();
    // The hot set is drawn with a fixed generator size, so that which graphs
    // a seed picks barely changes what they cost.
    let hot_config = GenConfig {
        min_steps: 8,
        max_steps: 8,
        min_len: 16,
        max_len: 16,
        ..GenConfig::default()
    };
    let graph_seed = |rng: &mut Rng| rng.next_u64() >> 1;
    for _ in 0..HOT_MANIFESTS {
        let m = generated_manifest(graph_seed(&mut rng), &hot_config);
        templates.push(manifest_template(&mut manifests, m, Kind::Hot));
    }

    // Every app under both backends (one block) and the hot set are
    // answered at set-up.
    let mut warm: Vec<u32> = (0..apps * 2).map(|a| (a * 4) as u32).collect();
    warm.extend((n_app..n_app + HOT_MANIFESTS).map(|i| i as u32));

    let load_ns = seconds.max(1) as f64 * 1e9;
    let total: f64 = LAYOUT.iter().map(|&(_, share)| share).sum();
    let mut ladder: Vec<Step> = LADDER_RPS
        .iter()
        .map(|&rate| Step {
            rate,
            segments: Vec::new(),
        })
        .collect();
    let mut start = 0.0;
    for &(step, share) in &LAYOUT {
        let len = share / total * load_ns;
        if let Some(step) = step {
            ladder[step].segments.push((start as u64, len as u64));
        }
        start += len;
    }
    let mut segments: Vec<(usize, u64, u64)> = ladder
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.segments.iter().map(move |&(at, len)| (i, at, len)))
        .collect();
    segments.sort_by_key(|&(_, at, _)| at);

    let kinds: Vec<Kind> = ROUND
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut round = Deck::new(Rng::new(seed, 4), kinds.len());
    let mut app_deck = Deck::new(Rng::new(seed, 5), n_app);
    let mut hot_deck = Deck::new(Rng::new(seed, 6), HOT_MANIFESTS);
    let mut slots = Vec::new();
    for &(i, at, len) in &segments {
        let rate = ladder[i].rate;
        let mut t = at as f64;
        let end = (at + len) as f64;
        loop {
            t += rng.exp(1e9 / rate);
            if t >= end {
                break;
            }
            let template = match kinds[round.deal()] {
                Kind::App => app_deck.deal(),
                Kind::Hot => n_app + hot_deck.deal(),
                kind => {
                    let graph = graph_seed(&mut rng);
                    let m = if kind == Kind::Fresh {
                        generated_manifest(graph, &GenConfig::default())
                    } else {
                        rejected_manifest(graph, rng.below(2) == 1)
                    };
                    templates.push(manifest_template(&mut manifests, m, kind));
                    templates.len() - 1
                }
            };
            slots.push(Slot {
                template: template as u32,
                due_ns: t as u64,
                step: i as u16,
            });
        }
    }

    Stream {
        templates,
        manifests,
        slots,
        warm,
        ladder,
        nominal: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams_and_another_seed_differs() {
        for workload in [Workload::PaperSim, Workload::ServeMix, Workload::CycleModel] {
            let a = Stream::build(workload, 11, 1);
            let b = Stream::build(workload, 11, 1);
            let c = Stream::build(workload, 12, 1);
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_ne!(a.digest(), c.digest(), "{}", workload.name());
        }
    }

    #[test]
    fn rejected_manifests_are_rejected_and_generated_ones_admitted() {
        for seed in 0..6 {
            assert!(admission_verdict(&generated_manifest(seed, &GenConfig::default())).is_none());
            assert!(admission_verdict(&rejected_manifest(seed, false)).is_some());
            assert!(admission_verdict(&rejected_manifest(seed, true)).is_some());
        }
    }

    #[test]
    fn only_admitted_manifests_feed_input_bytes() {
        let stream = Stream::build(Workload::ServeMix, 3, 1);
        let fed = |kind: Kind| {
            let of_kind: Vec<&Template> =
                stream.templates.iter().filter(|t| t.kind == kind).collect();
            assert!(!of_kind.is_empty(), "{kind:?}");
            of_kind.iter().map(|t| t.input_bytes).collect::<Vec<_>>()
        };
        assert!(fed(Kind::Reject).iter().all(|&b| b == 0));
        for kind in [Kind::App, Kind::Hot, Kind::Fresh] {
            assert!(fed(kind).iter().all(|&b| b > 0), "{kind:?}");
        }
    }

    #[test]
    fn paper_requests_feed_the_same_input_bytes() {
        let stream = Stream::build(Workload::PaperSim, 1, 1);
        assert!(stream
            .templates
            .iter()
            .all(|t| t.input_bytes == PAPER_INPUT_BYTES));
    }
}
