//! Quickstart: train OmniMatch on a synthetic Books -> Movies scenario and
//! evaluate cold-start rating prediction.

use omnimatch::core::{OmniMatchConfig, Trainer};
use omnimatch::data::{SplitConfig, SynthConfig, SynthWorld};

fn main() {
    let world = SynthWorld::generate(SynthConfig::amazon(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    println!(
        "scenario {}: {} train users, {} test users, {} train interactions",
        scenario.name(),
        scenario.train_users.len(),
        scenario.test_users.len(),
        scenario.target_train.len()
    );
    #[expect(clippy::disallowed_types, reason = "prints the fit's wall time; the root package has no om-obs clock")]
    let t0 = std::time::Instant::now();
    let trained = Trainer::new(OmniMatchConfig::default()).fit(&scenario);
    println!("trained in {:.1}s", t0.elapsed().as_secs_f64());
    for (i, e) in trained.report().epochs.iter().enumerate() {
        println!(
            "epoch {i}: total {:.4} rating {:.4} scl {:.4} domain {:.4}",
            e.total, e.rating, e.scl, e.domain
        );
    }
    let eval = trained.evaluate(&scenario.test_pairs());
    println!("cold-start test RMSE {:.3} MAE {:.3}", eval.rmse, eval.mae);

    // trivial baseline
    let mean = omnimatch::core::trainer::mean_rating_baseline(&scenario);
    let pairs: Vec<(f32, f32)> = scenario
        .test_pairs()
        .iter()
        .map(|it| (mean, it.rating.value()))
        .collect();
    println!(
        "global-mean baseline RMSE {:.3} MAE {:.3}",
        omnimatch::metrics::rmse(&pairs),
        omnimatch::metrics::mae(&pairs)
    );
}
