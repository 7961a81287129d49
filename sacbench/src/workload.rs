//! The four workloads: their datasets, seeded request streams and the
//! answers every reply is checked against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_core::Community;
use sac_data::{select_query_vertices, DatasetKind, DatasetSpec};
use sac_engine::{EngineConfig, LatencyTier, SacEngine, SacRequest, SacResponse};
use sac_geom::Point;
use sac_graph::io::{load_spatial_graph, write_edge_list, write_locations};
use sac_graph::{Graph, SpatialGraph, VertexId};
use sac_live::LiveEngine;
use sac_proto::json::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Minimum-degree bound of every query.
pub const K: u32 = 4;

/// Distinct query vertices per workload.
pub const QUERY_VERTICES: usize = 256;

/// θ requests pre-drawn per connection of the `theta` workload (more than a
/// connection sends in a minute at today's ~23 requests/s).
const THETA_REQUESTS_PER_CONNECTION: usize = 2048;

/// Mutations between two commits on the `ingest` write stream.
pub const MUTATIONS_PER_COMMIT: usize = 4;

/// Closed-loop client connections (one thread each).
pub const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Balanced,
    InteractiveLarge,
    Theta,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Balanced,
        Workload::InteractiveLarge,
        Workload::Theta,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Balanced => "balanced",
            Workload::InteractiveLarge => "interactive_large",
            Workload::Theta => "theta",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale of the Brightkite surrogate (Table 4 preset, default graph
    /// seed): 1,028 V at 0.02 fits in L2; 51,406 V at 1.0 is well beyond it.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Balanced => 0.02,
            Workload::InteractiveLarge => 1.0,
            Workload::Theta | Workload::Ingest => 0.2,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Balanced => 0xBA1A,
            Workload::InteractiveLarge => 0x1A26,
            Workload::Theta => 0x7E7A,
            Workload::Ingest => 0x1263,
        }
    }

    /// The workload's RNG for `stream` (query picks, per-connection orders,
    /// the write stream), derived from the run seed.
    pub fn rng(self, seed: u64, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.salt() ^ (stream << 32),
        )
    }
}

/// The dataset files of one workload, re-read the way `sac-http` reads them.
pub struct Dataset {
    pub graph: SpatialGraph,
    pub edges: PathBuf,
    pub locations: PathBuf,
    /// Non-empty when the re-read graph differs from the generated one.
    pub failures: Vec<String>,
}

/// Generates the workload's surrogate, writes its edge and location files
/// under `dir`, and re-reads them.
pub fn prepare_dataset(workload: Workload, dir: &Path) -> Result<Dataset, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let generated = DatasetSpec::scaled(DatasetKind::Brightkite, workload.scale()).generate();
    let edges = dir.join("edges.txt");
    let locations = dir.join("locations.txt");
    write_edge_list(generated.graph(), &edges).map_err(|e| e.to_string())?;
    write_locations(generated.positions(), &locations).map_err(|e| e.to_string())?;
    let graph = load_spatial_graph(&edges, &locations).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    let shape = |g: &SpatialGraph| (g.num_vertices(), g.num_edges());
    if shape(&graph) != shape(&generated) {
        failures.push(format!(
            "dataset files re-read as {:?} (V, E), generated {:?}",
            shape(&graph),
            shape(&generated)
        ));
    }
    if graph.positions() != generated.positions() {
        failures.push("dataset locations did not survive the file round trip".into());
    }
    Ok(Dataset {
        graph,
        edges,
        locations,
        failures,
    })
}

/// The part of a query reply the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub plan: String,
    pub feasible: bool,
    pub size: usize,
    pub radius_bits: u64,
    pub center_bits: (u64, u64),
    pub members: Vec<u32>,
    pub epoch: u64,
}

impl Answer {
    pub fn from_response(response: &SacResponse) -> Answer {
        Answer::of(
            response.plan.label(),
            response.community(),
            response.trace.epoch,
        )
    }

    /// The answer `community` makes under `plan` at `epoch`.
    pub fn of(plan: String, community: Option<&Community>, epoch: u64) -> Answer {
        Answer {
            plan,
            feasible: community.is_some(),
            size: community.map_or(0, |c| c.len()),
            radius_bits: community.map_or(0, |c| c.radius().to_bits()),
            center_bits: community.map_or((0, 0), |c| {
                (c.mcc.center.x.to_bits(), c.mcc.center.y.to_bits())
            }),
            members: community.map_or_else(Vec::new, |c| c.members().to_vec()),
            epoch,
        }
    }

    /// Decodes an `ok:true` query reply body.
    pub fn parse(body: &str) -> Result<Answer, String> {
        let json = Json::parse(body.trim()).map_err(|e| e.to_string())?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("not ok: {}", body.trim()));
        }
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        let feasible = json
            .get("feasible")
            .and_then(Json::as_bool)
            .ok_or("reply lacks 'feasible'")?;
        let center = json.get("center").and_then(Json::as_array).unwrap_or(&[]);
        let coord = |i: usize| center.get(i).and_then(Json::as_f64).map_or(0, f64::to_bits);
        Ok(Answer {
            plan: json
                .get("plan")
                .and_then(Json::as_str)
                .ok_or("reply lacks 'plan'")?
                .to_string(),
            feasible,
            size: num("size").map_or(0, |s| s as usize),
            radius_bits: num("radius").map_or(0, f64::to_bits),
            center_bits: (coord(0), coord(1)),
            members: json
                .get("members")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| m.as_u64().map(|m| m as u32))
                .collect(),
            epoch: json.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Plan label, `feasible`, size and radius bits agree.
    pub fn same_result(&self, other: &Answer) -> bool {
        (&self.plan, self.feasible, self.size, self.radius_bits)
            == (&other.plan, other.feasible, other.size, other.radius_bits)
    }
}

/// What a reply to a query must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Plan label, `feasible`, size and radius bits (fixed graph).
    Answer(Answer),
    /// Only the plan label (the `ingest` graph changes under the reads).
    Plan(String),
}

impl Expect {
    /// `None` when `body` is the expected reply, else what differs.
    pub fn check(&self, body: &str) -> Option<String> {
        let got = match Answer::parse(body) {
            Ok(got) => got,
            Err(e) => return Some(e),
        };
        let ok = match self {
            Expect::Answer(want) => want.same_result(&got),
            Expect::Plan(plan) => &got.plan == plan,
        };
        (!ok).then(|| format!("expected {self:?}, got {got:?}"))
    }
}

/// One distinct query a workload sends.
#[derive(Debug, Clone)]
pub struct QueryCase {
    pub body: String,
    pub request: SacRequest,
    pub expect: Expect,
}

/// The query side of a workload: its distinct queries and, per connection,
/// the order it cycles through them.
pub struct Queries {
    pub cases: Vec<QueryCase>,
    pub streams: Vec<Vec<usize>>,
}

fn interactive(q: VertexId) -> (String, SacRequest) {
    let body = format!(r#"{{"q":{q},"k":{K},"tier":"interactive","ratio":2.5}}"#);
    let request = SacRequest::builder(q, K)
        .tier(LatencyTier::Interactive)
        .ratio(2.5)
        .build()
        .expect("valid interactive budget");
    (body, request)
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Builds the workload's queries for `seed` and computes every expected
/// answer in process, on `engine` (serving the re-read dataset).
pub fn queries(workload: Workload, seed: u64, engine: &SacEngine) -> Queries {
    let graph = engine.snapshot();
    let mut rng = workload.rng(seed, 0);
    let mut vertices = select_query_vertices(graph.graph(), QUERY_VERTICES, K, &mut rng);
    if workload == Workload::Ingest {
        // The write stream only adds edges or removes ones it added, so a
        // connected k-core only grows; above the planner's small-core
        // threshold its plan label can then never change.
        let threshold = EngineConfig::default().small_exact_threshold;
        let components = engine.core_components(K);
        vertices.retain(|&v| components.core_size_of(v).is_some_and(|s| s > threshold));
    }
    assert!(!vertices.is_empty(), "no query vertex in a {K}-core");
    let per_connection = |cases: usize, rng: &mut StdRng| -> Vec<Vec<usize>> {
        (0..CONNECTIONS).map(|_| shuffled(cases, rng)).collect()
    };
    let answer = |request: &SacRequest| Answer::from_response(&engine.execute(request));
    match workload {
        Workload::Balanced => {
            let cases: Vec<QueryCase> = vertices
                .iter()
                .map(|&q| {
                    let request = SacRequest::builder(q, K).build().expect("default budget");
                    QueryCase {
                        body: format!(r#"{{"q":{q},"k":{K}}}"#),
                        expect: Expect::Answer(answer(&request)),
                        request,
                    }
                })
                .collect();
            let streams = per_connection(cases.len(), &mut rng);
            Queries { cases, streams }
        }
        Workload::InteractiveLarge => {
            let cases: Vec<QueryCase> = vertices
                .iter()
                .map(|&q| {
                    let (body, request) = interactive(q);
                    QueryCase {
                        body,
                        expect: Expect::Answer(answer(&request)),
                        request,
                    }
                })
                .collect();
            let streams = per_connection(cases.len(), &mut rng);
            Queries { cases, streams }
        }
        Workload::Ingest => {
            let cases: Vec<QueryCase> = vertices
                .iter()
                .map(|&q| {
                    let (body, request) = interactive(q);
                    let plan = engine.plan_for(&request).expect("valid request").label();
                    QueryCase {
                        body,
                        expect: Expect::Plan(plan),
                        request,
                    }
                })
                .collect();
            let streams = per_connection(cases.len(), &mut rng);
            Queries { cases, streams }
        }
        Workload::Theta => {
            let diagonal = bounding_diagonal(graph.positions());
            let cases: Vec<QueryCase> = (0..CONNECTIONS * THETA_REQUESTS_PER_CONNECTION)
                .map(|_| {
                    let q = vertices[rng.gen_range(0..vertices.len())];
                    let theta = rng.gen_range(0.05..0.3) * diagonal;
                    let request = SacRequest::builder(q, K)
                        .theta(theta)
                        .build()
                        .expect("positive theta");
                    QueryCase {
                        body: format!(r#"{{"q":{q},"k":{K},"theta":{theta}}}"#),
                        expect: Expect::Answer(answer(&request)),
                        request,
                    }
                })
                .collect();
            let streams = (0..CONNECTIONS)
                .map(|c| {
                    let first = c * THETA_REQUESTS_PER_CONNECTION;
                    (first..first + THETA_REQUESTS_PER_CONNECTION).collect()
                })
                .collect();
            Queries { cases, streams }
        }
    }
}

fn bounding_diagonal(points: &[Point]) -> f64 {
    let (mut lo, mut hi) = (points[0], points[0]);
    for p in points {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    lo.distance(hi)
}

/// One write of the `ingest` stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    AddEdge(VertexId, VertexId),
    RemoveEdge(VertexId, VertexId),
    Move(VertexId, f64, f64),
}

impl Mutation {
    /// The protocol document.
    pub fn body(&self) -> String {
        match self {
            Mutation::AddEdge(u, v) => format!(r#"{{"cmd":"add_edge","u":{u},"v":{v}}}"#),
            Mutation::RemoveEdge(u, v) => format!(r#"{{"cmd":"remove_edge","u":{u},"v":{v}}}"#),
            Mutation::Move(v, x, y) => {
                format!(r#"{{"cmd":"move_vertex","v":{v},"x":{x},"y":{y}}}"#)
            }
        }
    }

    /// Applies the mutation in process; returns how many core numbers it
    /// changed.  Every mutation the stream makes changes the graph, so an
    /// unapplied one is an error.
    pub fn apply(&self, live: &LiveEngine) -> Result<usize, String> {
        let (applied, changed) = match *self {
            Mutation::AddEdge(u, v) => {
                let change = live.add_edge(u, v).map_err(|e| e.to_string())?;
                (change.applied, change.changed.len())
            }
            Mutation::RemoveEdge(u, v) => {
                let change = live.remove_edge(u, v).map_err(|e| e.to_string())?;
                (change.applied, change.changed.len())
            }
            Mutation::Move(v, x, y) => (
                live.move_vertex(v, Point::new(x, y))
                    .map_err(|e| e.to_string())?,
                0,
            ),
        };
        if applied {
            Ok(changed)
        } else {
            Err(format!("{self:?} did not change the graph"))
        }
    }
}

/// The seeded write stream: 60% `add_edge` on a random absent pair, 30%
/// `remove_edge` of an edge this stream added, 10% `move_vertex` within the
/// unit square.  Every mutation changes the graph.
pub struct MutationStream<'g> {
    rng: StdRng,
    base: &'g Graph,
    added: Vec<(VertexId, VertexId)>,
    present: HashSet<(VertexId, VertexId)>,
}

impl<'g> MutationStream<'g> {
    pub fn new(workload: Workload, seed: u64, base: &'g Graph) -> MutationStream<'g> {
        MutationStream {
            rng: workload.rng(seed, 1),
            base,
            added: Vec::new(),
            present: HashSet::new(),
        }
    }

    pub fn next_mutation(&mut self) -> Mutation {
        let n = self.base.num_vertices() as VertexId;
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll >= 0.9 {
            let v = self.rng.gen_range(0..n);
            return Mutation::Move(
                v,
                self.rng.gen_range(0.0..1.0),
                self.rng.gen_range(0.0..1.0),
            );
        }
        if roll >= 0.6 && !self.added.is_empty() {
            let (u, v) = self
                .added
                .swap_remove(self.rng.gen_range(0..self.added.len()));
            self.present.remove(&(u, v));
            return Mutation::RemoveEdge(u, v);
        }
        loop {
            let (a, b) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
            let edge = (a.min(b), a.max(b));
            if a != b && !self.base.has_edge(a, b) && self.present.insert(edge) {
                self.added.push(edge);
                return Mutation::AddEdge(edge.0, edge.1);
            }
        }
    }

    pub fn next_batch(&mut self) -> Vec<Mutation> {
        (0..MUTATIONS_PER_COMMIT)
            .map(|_| self.next_mutation())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_stream_is_seeded_and_always_changes_the_graph() {
        let graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.02).generate();
        let live = LiveEngine::new(std::sync::Arc::new(SacEngine::new(graph.clone())));
        let take = |seed| {
            let mut stream = MutationStream::new(Workload::Ingest, seed, graph.graph());
            (0..300).map(|_| stream.next_mutation()).collect::<Vec<_>>()
        };
        let stream = take(5);
        assert_eq!(stream, take(5));
        assert_ne!(stream, take(6));
        for m in &stream {
            m.apply(&live).unwrap();
        }
        assert!(stream.iter().any(|m| matches!(m, Mutation::RemoveEdge(..))));
        assert!(live.commit().unwrap().mutations == 300);
    }

    #[test]
    fn replies_decode_into_answers() {
        let body = r#"{"ok":true,"id":0,"q":3,"k":4,"plan":"app_acc(eps_a=0.5)","feasible":true,"size":2,"radius":0.125,"center":[0.5,0.25],"members":[3,9],"cache_hit":true,"epoch":7,"probes":1,"candidates":2}"#;
        let answer = Answer::parse(body).unwrap();
        assert_eq!(answer.members, vec![3, 9]);
        assert_eq!(answer.radius_bits, 0.125f64.to_bits());
        assert_eq!(answer.epoch, 7);
        assert_eq!(Expect::Answer(answer.clone()).check(body), None);
        assert_eq!(Expect::Plan("app_acc(eps_a=0.5)".into()).check(body), None);
        assert!(Expect::Plan("app_fast(eps_f=0.5)".into())
            .check(body)
            .is_some());
        let mut other = answer;
        other.radius_bits += 1;
        assert!(Expect::Answer(other).check(body).is_some());
        assert!(Answer::parse(r#"{"ok":false,"error":"x"}"#).is_err());
    }
}
