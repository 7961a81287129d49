//! Figure 13: adaptability to location changes on a dynamic spatial graph
//! (Section 5.2.3).

use crate::runner::{load_dataset, mean};
use crate::{ExperimentConfig, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_core::{exact_plus, metrics};
use sac_data::{CheckinGenerator, DatasetKind};
use sac_graph::VertexId;

/// A community observed at a point in time for one query user.
#[derive(Debug, Clone)]
struct TimedCommunity {
    time_days: f64,
    members: Vec<VertexId>,
}

/// Reproduces Figure 13: replay a check-in stream over the Brightkite-like graph,
/// re-running SAC search (Exact+) for the most mobile users at each of their
/// check-ins, then report the mean community Jaccard similarity (CJS) and community
/// area overlap (CAO) between pairs of communities separated by at least η days.
///
/// The shape to reproduce: both CJS and CAO decrease monotonically (approximately)
/// as the time gap η grows — the user's community drifts as she moves.
pub fn fig13(config: &ExperimentConfig) -> Vec<Table> {
    let k = config.default_k;
    // The paper runs this experiment on Brightkite; fall back to the first
    // configured dataset if Brightkite is not selected.
    let kind = if config.datasets.contains(&DatasetKind::Brightkite) {
        DatasetKind::Brightkite
    } else {
        config.datasets[0]
    };
    let bundle = load_dataset(kind, config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD15C);

    // Generate the check-in stream and pick the most mobile query users that also
    // have rich-enough core structure (the paper: top travellers with ≥ 20 friends).
    let stream = CheckinGenerator::new().generate(&bundle.graph, &mut rng);
    let eligible: Vec<VertexId> = stream
        .most_mobile_users(config.num_queries * 4)
        .into_iter()
        .filter(|&u| bundle.queries.contains(&u) || bundle.graph.degree(u) > k as usize)
        .take(config.num_queries)
        .collect();

    // Replay the stream: maintain current positions, and whenever a query user
    // checks in, search her SAC at that moment.
    let mut graph = bundle.graph.clone();
    let mut communities: Vec<(VertexId, Vec<TimedCommunity>)> =
        eligible.iter().map(|&u| (u, Vec::new())).collect();
    let is_query: Vec<bool> = {
        let mut mask = vec![false; graph.num_vertices()];
        for &u in &eligible {
            mask[u as usize] = true;
        }
        mask
    };

    // Moves are applied in batches, each a copy of the position array; a
    // query user's check-in flushes the batch so its search sees every
    // position up to that moment.
    let records = stream.records();
    let batch = (records.len() / 64).max(1);
    let mut pending: Vec<(VertexId, sac_geom::Point)> = Vec::new();
    for (idx, checkin) in records.iter().enumerate() {
        pending.push((checkin.user, checkin.position));
        let is_query = is_query[checkin.user as usize];
        if is_query || pending.len() >= batch || idx + 1 == records.len() {
            graph = graph
                .with_updated_positions(&pending)
                .expect("check-in positions are valid");
            pending.clear();
        }
        if is_query {
            if let Ok(Some(c)) = exact_plus(&graph, checkin.user, k, config.exact_plus_eps_a) {
                if let Some(entry) = communities.iter_mut().find(|(u, _)| *u == checkin.user) {
                    entry.1.push(TimedCommunity {
                        time_days: checkin.time_days,
                        members: c.members().to_vec(),
                    });
                }
            }
        }
    }

    // For every η, average CJS and CAO over all pairs of communities of the same
    // user separated by at least η days.
    let mut table = Table::new(
        format!(
            "Figure 13: dynamic adaptability (CJS / CAO) — {} (k = {k})",
            bundle.name()
        ),
        &["eta (days)", "avg CJS", "avg CAO", "pairs"],
    );
    for &eta in &config.eta_days {
        let mut cjs_values = Vec::new();
        let mut cao_values = Vec::new();
        for (_, list) in &communities {
            for i in 0..list.len() {
                for j in (i + 1)..list.len() {
                    if (list[j].time_days - list[i].time_days).abs() < eta {
                        continue;
                    }
                    cjs_values.push(metrics::community_jaccard_similarity(
                        &list[i].members,
                        &list[j].members,
                    ));
                    if let Some(cao) = metrics::community_area_overlap(
                        &bundle.graph,
                        &list[i].members,
                        &list[j].members,
                    ) {
                        cao_values.push(cao);
                    }
                }
            }
        }
        table.add_row(vec![
            Table::fmt_num(eta),
            Table::fmt_num(mean(&cjs_values)),
            Table::fmt_num(mean(&cao_values)),
            cjs_values.len().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_cjs_and_cao_in_unit_range() {
        let mut config = ExperimentConfig::smoke_test();
        config.num_queries = 4;
        config.eta_days = vec![0.25, 5.0];
        let tables = fig13(&config);
        assert_eq!(tables.len(), 1);
        // Every check-in of a query user is searched, so the smallest η
        // has pairs to average.
        let pairs: usize = tables[0].rows[0][3].parse().unwrap();
        assert!(pairs > 0, "no community pairs at η = 0.25");
        for row in &tables[0].rows {
            for col in [1, 2] {
                if row[col] == "n/a" {
                    continue;
                }
                let v: f64 = row[col].parse().unwrap();
                assert!((0.0..=1.0 + 1e-9).contains(&v), "column {col} value {v}");
            }
        }
    }
}
