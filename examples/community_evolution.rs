//! Community evolution: tracking a mobile user's SAC over a check-in stream.
//!
//! This is the dynamic scenario of Figure 2 / Section 5.2.3: as a user checks in at
//! new places, her spatial-aware community changes — nearby friends rotate in and
//! out while the social graph stays fixed.  The example replays a synthetic
//! check-in stream for the most mobile user of a Brightkite-like surrogate and
//! prints how the community membership (CJS) and covered area (CAO) drift over
//! time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example community_evolution
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sackit::core::exact_plus;
use sackit::data::{CheckinGenerator, DatasetKind, DatasetSpec};
use sackit::metrics;
use sackit::VertexId;

fn main() {
    let k = 4;
    let mut graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.02).generate();
    let mut rng = StdRng::seed_from_u64(99);
    let stream = CheckinGenerator {
        checkins_per_user: 12,
        duration_days: 30.0,
        local_mobility: 0.02,
        travel_probability: 0.12,
    }
    .generate(&graph, &mut rng);
    println!(
        "replaying {} check-ins over {:.0} days on a {}-user graph",
        stream.len(),
        stream.span_days(),
        graph.num_vertices()
    );

    // Pick the most mobile user that still has enough friends for a k-core.
    let user: VertexId = stream
        .most_mobile_users(50)
        .into_iter()
        .find(|&u| graph.degree(u) >= k as usize + 2)
        .expect("some mobile user has enough friends");
    println!(
        "tracking user {user}: degree {}, total travel distance {:.3}\n",
        graph.degree(user),
        stream.travel_distance(user)
    );

    // Replay the stream; whenever the tracked user checks in, recompute her SAC.
    let mut observed: Vec<(f64, Vec<VertexId>)> = Vec::new();
    for checkin in stream.records() {
        graph = graph
            .with_updated_positions(&[(checkin.user, checkin.position)])
            .expect("valid update");
        if checkin.user != user {
            continue;
        }
        if let Ok(Some(c)) = exact_plus(&graph, user, k, 1e-2) {
            println!(
                "day {:>5.2}: at ({:.3}, {:.3}) — SAC of {} members, radius {:.4}",
                checkin.time_days,
                checkin.position.x,
                checkin.position.y,
                c.len(),
                c.radius()
            );
            observed.push((checkin.time_days, c.members().to_vec()));
        } else {
            println!(
                "day {:>5.2}: at ({:.3}, {:.3}) — no spatially cohesive community here",
                checkin.time_days, checkin.position.x, checkin.position.y
            );
        }
    }

    // Drift of the community over increasing time gaps (the Figure 13 measurement).
    if observed.len() >= 2 {
        println!(
            "\ncommunity drift between observations (CJS = member overlap, CAO = area overlap):"
        );
        for eta in [1.0, 3.0, 7.0] {
            let mut cjs = Vec::new();
            let mut cao = Vec::new();
            for i in 0..observed.len() {
                for j in (i + 1)..observed.len() {
                    if observed[j].0 - observed[i].0 < eta {
                        continue;
                    }
                    cjs.push(metrics::community_jaccard_similarity(
                        &observed[i].1,
                        &observed[j].1,
                    ));
                    if let Some(a) =
                        metrics::community_area_overlap(&graph, &observed[i].1, &observed[j].1)
                    {
                        cao.push(a);
                    }
                }
            }
            let mean = |v: &Vec<f64>| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            println!(
                "  gap >= {eta:>4.1} days: avg CJS = {:.3}, avg CAO = {:.3} ({} pairs)",
                mean(&cjs),
                mean(&cao),
                cjs.len()
            );
        }
        println!("\nAs in Figure 13 of the paper, both overlaps shrink as the time gap grows.");
    }
}
