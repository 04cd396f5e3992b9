//! The experiment registry: one row per table, figure, ablation and
//! recording; `seaweed-bench <name>` runs a row, `seaweed-bench all`
//! runs every row marked `in_all`.

use seaweed_workload::{QUERY_HTTP_BYTES, QUERY_LARGE_FLOWS, QUERY_PRIV_PACKETS, QUERY_SMB_AVG};

use crate::figures::run_prediction_figure;
use crate::{Args, OutDir};

mod abl01_replication_k;
mod abl02_histogram_buckets;
mod abl03_fanout;
mod abl04_periodic_threshold;
mod abl05_predictors;
mod abl06_delta_encoding;
mod abl07_hedging;
mod all;
mod chaos01_faults;
mod fig01_availability;
mod fig02_predictor;
mod fig03_scalability;
mod fig04_scalability_small;
mod fig09_overheads;
mod fig10_churn;
mod lat01_predictor_latency;
mod obs01_query_timeline;
mod scale02_farsite;
mod scale03_million;
mod storm01_query_storm;
mod tab01_params;
mod tab02_pier_availability;

/// One row of the registry.
#[derive(Debug)]
pub struct Experiment {
    pub name: &'static str,
    /// Runs it: headline numbers to stdout, series into the [`OutDir`].
    pub run: fn(&Args, &OutDir),
    /// Part of `seaweed-bench all`: its default-scale output is
    /// deterministic, checked in under `results/` and regenerated
    /// `cmp`-equal by `scripts/check.sh`.
    pub in_all: bool,
}

/// A table, figure, ablation or scenario whose CSVs are checked in.
const fn figure(name: &'static str, run: fn(&Args, &OutDir)) -> Experiment {
    Experiment {
        name,
        run,
        in_all: true,
    }
}

/// Run by name only: the host recordings (a wall-clock JSON twin beside
/// the CSV, too large for `all`), and `all` itself.
const fn by_name(name: &'static str, run: fn(&Args, &OutDir)) -> Experiment {
    Experiment {
        name,
        run,
        in_all: false,
    }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    figure("tab01_params", tab01_params::run),
    figure("tab02_pier_availability", tab02_pier_availability::run),
    figure("fig01_availability", fig01_availability::run),
    figure("fig02_predictor", fig02_predictor::run),
    figure("fig03_scalability", fig03_scalability::run),
    figure("fig04_scalability_small", fig04_scalability_small::run),
    figure("fig05_prediction", |args, out| {
        run_prediction_figure(5, QUERY_HTTP_BYTES, args, out)
    }),
    figure("fig06_prediction", |args, out| {
        run_prediction_figure(6, QUERY_LARGE_FLOWS, args, out)
    }),
    figure("fig07_prediction", |args, out| {
        run_prediction_figure(7, QUERY_SMB_AVG, args, out)
    }),
    figure("fig08_prediction", |args, out| {
        run_prediction_figure(8, QUERY_PRIV_PACKETS, args, out)
    }),
    figure("fig09_overheads", fig09_overheads::run),
    figure("fig10_churn", fig10_churn::run),
    figure("lat01_predictor_latency", lat01_predictor_latency::run),
    figure("abl01_replication_k", abl01_replication_k::run),
    figure("abl02_histogram_buckets", abl02_histogram_buckets::run),
    figure("abl03_fanout", abl03_fanout::run),
    figure("abl04_periodic_threshold", abl04_periodic_threshold::run),
    figure("abl05_predictors", abl05_predictors::run),
    figure("abl06_delta_encoding", abl06_delta_encoding::run),
    figure("abl07_hedging", abl07_hedging::run),
    figure("chaos01_faults", chaos01_faults::run),
    figure("obs01_query_timeline", obs01_query_timeline::run),
    by_name("scale02_farsite", scale02_farsite::run),
    by_name("scale03_million", scale03_million::run),
    by_name("storm01_query_storm", storm01_query_storm::run),
    by_name("all", all::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs no simulation: the table's shape is the contract. Equal to
    /// the literal list, so names are unique and every former bin
    /// resolves — the two the old driver's list forgot (abl07, obs01)
    /// included.
    #[test]
    fn registry_is_unique_complete_and_in_paper_order() {
        let figures = [
            "tab01_params",
            "tab02_pier_availability",
            "fig01_availability",
            "fig02_predictor",
            "fig03_scalability",
            "fig04_scalability_small",
            "fig05_prediction",
            "fig06_prediction",
            "fig07_prediction",
            "fig08_prediction",
            "fig09_overheads",
            "fig10_churn",
            "lat01_predictor_latency",
            "abl01_replication_k",
            "abl02_histogram_buckets",
            "abl03_fanout",
            "abl04_periodic_threshold",
            "abl05_predictors",
            "abl06_delta_encoding",
            "abl07_hedging",
            "chaos01_faults",
            "obs01_query_timeline",
        ];
        let by_name = [
            "scale02_farsite",
            "scale03_million",
            "storm01_query_storm",
            "all",
        ];
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names, [&figures[..], &by_name].concat());
        assert_eq!(all::selected(), figures, "`all` runs the 22 figures");
    }
}
