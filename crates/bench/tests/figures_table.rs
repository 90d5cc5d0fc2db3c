//! The `FIGURES` table is well-formed: rows and CSV stems are unique, every
//! method is a valid description that builds the scheduler its figure names,
//! and table-built methods keep the parallel runner's determinism contract.

use std::collections::BTreeSet;

use asha::tune::{Sampler, Searcher};
use asha_bench::{run_experiment, run_experiment_parallel, FIGURES};
use asha_core::PromotionRule;
use asha_surrogate::{presets, BenchmarkModel};

#[test]
fn names_and_csv_stems_are_unique() {
    let names: BTreeSet<_> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
    let stems: Vec<_> = FIGURES
        .iter()
        .flat_map(|f| f.panels.iter().map(|p| p.stem))
        .collect();
    let unique: BTreeSet<_> = stems.iter().collect();
    assert_eq!(unique.len(), stems.len(), "duplicate CSV stem in {stems:?}");
}

/// The name the scheduler gives itself — what the constructors the figure
/// binaries used to call directly (`Asha::new`, `bohb`, `dasha_tpe`, …)
/// produced.
fn scheduler_name(searcher: &Searcher) -> &'static str {
    match searcher {
        Searcher::Asha { config, sampler } => match (sampler, config.rule) {
            (Sampler::Random, PromotionRule::Eager) => "ASHA",
            (Sampler::Random, PromotionRule::Delayed) => "D-ASHA",
            (Sampler::Tpe, PromotionRule::Eager) => "ASHA+TPE",
            (Sampler::Tpe, PromotionRule::Delayed) => "D-ASHA+tpe",
            (Sampler::Gp, PromotionRule::Eager) => "ASHA+gp",
            (Sampler::Gp, PromotionRule::Delayed) => "D-ASHA+gp",
        },
        Searcher::Sha {
            sampler: Sampler::Random,
            ..
        } => "SHA",
        Searcher::Sha {
            sampler: Sampler::Tpe,
            ..
        } => "BOHB",
        Searcher::Sha {
            sampler: Sampler::Gp,
            ..
        } => "SHA+gp",
        Searcher::Hyperband(_) => "Hyperband",
        Searcher::AsyncHyperband { sampler, .. } => match sampler {
            Sampler::Random => "Hyperband (async)",
            Sampler::Tpe => "Hyperband (async)+tpe",
            Sampler::Gp => "Hyperband (async)+gp",
        },
        Searcher::Pbt(_) => "PBT",
        Searcher::Vizier(_) => "Vizier",
        Searcher::Fabolas(_) => "Fabolas",
        Searcher::Random { .. } => "Random",
    }
}

#[test]
fn every_method_validates_and_builds_the_scheduler_it_names() {
    for figure in FIGURES {
        assert!(!figure.panels.is_empty(), "{} has no panel", figure.name);
        for panel in figure.panels {
            let bench = (panel.bench)(presets::DEFAULT_SURFACE_SEED);
            let methods = (figure.methods)(bench.space());
            let labels: BTreeSet<_> = methods.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                labels.len(),
                methods.len(),
                "{}: duplicate label",
                figure.name
            );
            for method in &methods {
                let at = format!("{}/{}/{}", figure.name, panel.stem, method.name);
                // The configs that can be wrong without panicking at
                // construction; the others assert in their `new`.
                let valid = match &method.searcher {
                    Searcher::Asha { config, .. } => config.validate(),
                    Searcher::Sha { config, .. } => config.validate(),
                    Searcher::Hyperband(config) | Searcher::AsyncHyperband { config, .. } => {
                        config.validate()
                    }
                    _ => Ok(()),
                };
                valid.unwrap_or_else(|e| panic!("{at}: {e}"));
                let scheduler = method.searcher.build(bench.space());
                assert_eq!(scheduler.name(), scheduler_name(&method.searcher), "{at}");
            }
        }
    }
}

#[test]
fn a_table_row_runs_identically_on_both_runners() {
    let figure = FIGURES.iter().find(|f| f.name == "fig4").expect("fig4");
    let panel = &figure.panels[0];
    let bench = (panel.bench)(presets::DEFAULT_SURFACE_SEED);
    let methods = (figure.methods)(bench.space());
    let mut cfg = figure.config(panel);
    cfg.trials = 2;
    let sequential = run_experiment(&bench, &methods, &cfg);
    let parallel = run_experiment_parallel(&bench, &methods, &cfg, 3);
    assert_eq!(sequential.len(), methods.len());
    for ((s, p), method) in sequential.iter().zip(&parallel).zip(&methods) {
        assert_eq!(s.name, method.name);
        assert_eq!(s.name, p.name);
        assert_eq!(s.aggregate.grid, p.aggregate.grid, "{}", s.name);
        assert_eq!(s.aggregate.mean, p.aggregate.mean, "{}", s.name);
        assert_eq!(s.aggregate.min, p.aggregate.min, "{}", s.name);
        assert_eq!(s.aggregate.max, p.aggregate.max, "{}", s.name);
        assert_eq!(s.mean_jobs, p.mean_jobs, "{}", s.name);
        assert_eq!(s.mean_configs, p.mean_configs, "{}", s.name);
        assert!(s.mean_jobs > 0.0, "{} ran nothing", s.name);
        assert_eq!(s.curves.len(), 2);
        for (sc, pc) in s.curves.iter().zip(&p.curves) {
            assert_eq!(sc.points(), pc.points(), "{}", s.name);
        }
    }
}
