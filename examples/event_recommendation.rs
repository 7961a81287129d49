//! Event recommendation: the Meetup-style scenario from the paper's introduction.
//!
//! A geo-social service wants to suggest events hosted by people who are both
//! socially connected to the target user *and* physically nearby — exactly what a
//! spatial-aware community is.  This example:
//!
//! 1. generates a Gowalla-like surrogate network,
//! 2. picks an active user and finds her SAC (`AppAcc`, the recommended choice for
//!    large graphs),
//! 3. "recommends" the events hosted by SAC members,
//! 4. moves the user to another city and shows how the recommendation set adapts —
//!    the paper's *adaptability to location changes* property.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example event_recommendation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sackit::core::app_acc;
use sackit::data::{select_query_vertices, DatasetKind, DatasetSpec};
use sackit::metrics;
use sackit::Point;

fn main() {
    // 1. A Gowalla-like surrogate (scaled down so the example runs in seconds).
    let spec = DatasetSpec::scaled(DatasetKind::Gowalla, 0.02);
    let mut graph = spec.generate();
    println!(
        "generated {} surrogate: {} users, {} friendships",
        spec.kind.name(),
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Pick an engaged user (core number >= 4) and find her SAC with k = 4.
    let mut rng = StdRng::seed_from_u64(2026);
    let user = select_query_vertices(graph.graph(), 1, 4, &mut rng)[0];
    let k = 4;
    let home = graph.position(user);
    let sac = app_acc(&graph, user, k, 0.5)
        .unwrap()
        .expect("user has a spatial-aware community");
    println!(
        "\nuser {user} at ({:.3}, {:.3}) — SAC has {} members, mcc radius {:.4}, distPr {:.4}",
        home.x,
        home.y,
        sac.len(),
        sac.radius(),
        metrics::average_pairwise_distance(&graph, sac.members())
    );

    // 3. Recommend the events hosted by SAC members (events are simulated as one
    //    per member, located at the member's position).
    println!("recommended events (hosted by nearby community members):");
    for &member in sac.members().iter().filter(|&&m| m != user).take(8) {
        let p = graph.position(member);
        println!(
            "  event hosted by user {member:>6} at ({:.3}, {:.3}) — {:.4} away",
            p.x,
            p.y,
            home.distance(p)
        );
    }

    // 4. The user travels to the opposite corner of the map; her SAC — and hence
    //    the recommendations — follow her.
    let new_home = Point::new(1.0 - home.x, 1.0 - home.y);
    graph = graph
        .with_updated_positions(&[(user, new_home)])
        .expect("valid position update");
    let moved_sac = app_acc(&graph, user, k, 0.5).unwrap();
    match moved_sac {
        Some(moved) => {
            let overlap = metrics::community_jaccard_similarity(sac.members(), moved.members());
            println!(
                "\nafter moving to ({:.3}, {:.3}): SAC has {} members, mcc radius {:.4}",
                new_home.x,
                new_home.y,
                moved.len(),
                moved.radius()
            );
            println!(
                "community overlap with the pre-move SAC (CJS) = {overlap:.3} — the \
                 recommendations adapt to the new location"
            );
        }
        None => println!(
            "\nafter moving to ({:.3}, {:.3}): no spatially cohesive community exists \
             at the new location for k = {k}",
            new_home.x, new_home.y
        ),
    }
}
