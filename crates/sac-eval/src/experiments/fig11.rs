//! Figure 11: sensitivity of `θ-SAC` search to θ, and the structure-free
//! range-only communities of Section 5.2.2 (item 3).

use crate::runner::{load_dataset, mean};
use crate::{ExperimentConfig, Table};
use sac_core::{metrics, range_only, Algorithm, Community, SacQuery, SearchContext};
use sac_graph::{core_decomposition, KCoreComponents};
use std::sync::Arc;

/// Reproduces Figure 11: for every θ, (a) the percentage of queries for which
/// `θ-SAC` returns a non-empty community and (b) the mean MCC radius of those
/// communities compared against the `Exact+` optimum; plus the average degree of
/// the structure-free range-only communities.
///
/// The shape to reproduce: small θ answers few queries, the radius of θ-SAC
/// results is several times larger than `Exact+`'s, and range-only communities have
/// an average degree far below `k`.
///
/// The k-core is peeled once per dataset: every `Exact+` and `θ-SAC` run
/// reads Step 1 from one shared component index of the k-core.
pub fn fig11(config: &ExperimentConfig) -> Vec<Table> {
    let k = config.default_k;
    let mut tables = Vec::new();

    for &kind in &config.datasets {
        let bundle = load_dataset(kind, config);
        let g = &bundle.graph;
        let components = Arc::new(KCoreComponents::build(
            g.graph(),
            &core_decomposition(g.graph()),
            k,
        ));
        let run = |algorithm: Algorithm, query: SacQuery| -> Option<Community> {
            let mut ctx =
                SearchContext::with_components(g, query.q, k, Arc::clone(&components)).ok()?;
            algorithm.run(&mut ctx, &query).ok()?.community
        };

        // Optimal radii for the ratio column.
        let optima: Vec<(u32, f64)> = bundle
            .queries
            .iter()
            .filter_map(|&q| {
                let query = SacQuery::new(q, k).with_eps_a(config.exact_plus_eps_a);
                run(Algorithm::ExactPlus, query).map(|c| (q, c.radius()))
            })
            .collect();

        let mut table = Table::new(
            format!(
                "Figure 11: theta-SAC sensitivity — {} (k = {k})",
                bundle.name()
            ),
            &[
                "theta",
                "% non-empty",
                "radius (mean)",
                "radius / Exact+ (mean)",
                "range-only avg degree",
            ],
        );
        for &theta in config.thetas() {
            let mut answered = 0usize;
            let mut radii = Vec::new();
            let mut ratios = Vec::new();
            let mut range_degrees = Vec::new();
            for &q in &bundle.queries {
                if let Some(c) = run(Algorithm::ThetaSac, SacQuery::new(q, k).with_theta(theta)) {
                    answered += 1;
                    radii.push(c.radius());
                    if let Some(&(_, r_opt)) = optima.iter().find(|(qq, _)| *qq == q) {
                        ratios.push(metrics::approximation_ratio(c.radius(), r_opt));
                    }
                }
                if let Ok(Some(c)) = range_only(g, q, theta) {
                    range_degrees.push(metrics::average_degree_within(g, c.members()));
                }
            }
            let pct = if bundle.queries.is_empty() {
                0.0
            } else {
                100.0 * answered as f64 / bundle.queries.len() as f64
            };
            table.add_row(vec![
                Table::fmt_num(theta),
                Table::fmt_num(pct),
                Table::fmt_num(mean(&radii)),
                Table::fmt_num(mean(&ratios)),
                Table::fmt_num(mean(&range_degrees)),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_is_monotone_in_theta_and_bounded() {
        let config = ExperimentConfig::smoke_test();
        let tables = fig11(&config);
        assert_eq!(tables.len(), config.datasets.len());
        for table in &tables {
            let pcts: Vec<f64> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
            assert!(pcts.iter().all(|&p| (0.0..=100.0).contains(&p)));
            // θ values are listed in ascending order; larger θ can only answer more.
            assert!(pcts.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{pcts:?}");
        }
    }
}
