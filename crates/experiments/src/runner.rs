//! Method registry and multi-trial execution.

use om_baselines::{Recommender, CMF, EMCDR, HeroGraph, LightGCN, NGCF, PTUPCDR};
use om_data::split::SplitConfig;
use om_data::SynthWorld;
use om_metrics::{aggregate, Aggregate, Eval};
use omnimatch_core::{OmniMatchConfig, Trainer};

/// Every method the tables compare. `Ours` carries the (possibly ablated)
/// OmniMatch configuration.
#[derive(Clone)]
pub enum Method {
    /// Single-domain NGCF.
    Ngcf,
    /// Single-domain LightGCN.
    LightGcn,
    /// Collective matrix factorisation.
    Cmf,
    /// Embedding-and-mapping.
    Emcdr,
    /// Personalised-bridge meta network.
    Ptupcdr,
    /// Shared cross-domain graph.
    HeroGraph,
    /// OmniMatch with the given configuration (`Ours` and all ablations).
    Ours(OmniMatchConfig),
}

impl Method {
    /// Column label used in the tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Ngcf => "NGCF",
            Method::LightGcn => "LIGHTGCN",
            Method::Cmf => "CMF",
            Method::Emcdr => "EMCDR",
            Method::Ptupcdr => "PTUPCDR",
            Method::HeroGraph => "HeroGraph",
            Method::Ours(_) => "Ours",
        }
    }

    /// The paper's Table 2/3 method order.
    pub fn paper_lineup() -> Vec<Method> {
        vec![
            Method::Ngcf,
            Method::LightGcn,
            Method::Cmf,
            Method::Emcdr,
            Method::Ptupcdr,
            Method::HeroGraph,
            Method::Ours(OmniMatchConfig::default()),
        ]
    }
}

/// Aggregated metrics of one method on one scenario.
#[derive(Debug, Clone, Copy)]
pub struct TrialResult {
    /// RMSE over the trials that completed.
    pub rmse: Aggregate,
    /// MAE over the trials that completed.
    pub mae: Aggregate,
    /// Mean training seconds per completed trial.
    pub train_seconds: f64,
    /// Trials that failed both attempts and were dropped from the
    /// aggregate. When every trial fails, `rmse`/`mae` are
    /// [`Aggregate::missing`] and the table renders `n/a`.
    pub failed: usize,
}

/// How many times a panicking trial is attempted before its slot is
/// reported missing instead of aborting the whole table run.
const TRIAL_ATTEMPTS: usize = 2;

/// Train + evaluate one method on one concrete scenario split.
pub fn run_once(
    world: &SynthWorld,
    source: &str,
    target: &str,
    method: &Method,
    split_seed: u64,
    model_seed: u64,
    train_fraction: f32,
) -> (Eval, f64) {
    let scenario = world.scenario(
        source,
        target,
        SplitConfig {
            seed: split_seed,
            train_fraction,
            ..SplitConfig::default()
        },
    );
    let pairs = scenario.test_pairs();
    let t0_ns = om_obs::clock::now_ns();
    let eval = match method {
        Method::Ngcf => NGCF::fit(&scenario, model_seed).evaluate(&pairs),
        Method::LightGcn => LightGCN::fit(&scenario, model_seed).evaluate(&pairs),
        Method::Cmf => CMF::fit(&scenario, model_seed).evaluate(&pairs),
        Method::Emcdr => EMCDR::fit(&scenario, model_seed).evaluate(&pairs),
        Method::Ptupcdr => PTUPCDR::fit(&scenario, model_seed).evaluate(&pairs),
        Method::HeroGraph => HeroGraph::fit(&scenario, model_seed).evaluate(&pairs),
        Method::Ours(cfg) => {
            let trained = Trainer::new(cfg.clone().with_seed(model_seed)).fit(&scenario);
            trained.evaluate(&pairs)
        }
    };
    (eval, om_obs::clock::now_ns().saturating_sub(t0_ns) as f64 / 1e9)
}

/// Run `trials` seeded trials (split seed and model seed both vary) and
/// aggregate, mirroring the paper's 5-random-trials protocol (§5.4).
///
/// Trials are independent — each gets its own scenario split and model —
/// so they run on separate OS threads; results land in per-trial slots, so
/// the aggregate is identical to the sequential loop. The per-trial seeds
/// (`100 + t`, `1000 + 17t`) are unchanged from the serial implementation.
pub fn run_trials(
    world: &SynthWorld,
    source: &str,
    target: &str,
    method: &Method,
    trials: usize,
    train_fraction: f32,
) -> TrialResult {
    assert!(trials >= 1, "need at least one trial");
    // Each slot records the trial outcome plus how many attempts it took;
    // `None` after the join means both attempts panicked.
    let mut results: Vec<(Option<(Eval, f64)>, usize)> = vec![(None, 0); trials];
    std::thread::scope(|scope| {
        for (t, slot) in results.iter_mut().enumerate() {
            // Deterministic kill site at the trial boundary: fires on the
            // spawning thread, before the t-th trial starts.
            // om-fault: kill-point
            om_obs::fault::kill_point("trial");
            // Trials must NOT run on the tensor pool: a trial calls
            // `parallel_for` internally, and a pool worker blocking in
            // `latch.wait()` on a nested dispatch (no work-stealing) would
            // deadlock the pool. Scoped OS threads keep trial- and
            // kernel-parallelism on separate executors.
            #[expect(clippy::disallowed_methods, reason = "trials nest pool dispatches, so they cannot run on the pool")]
            scope.spawn(move || {
                for attempt in 0..TRIAL_ATTEMPTS {
                    slot.1 = attempt + 1;
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_once(
                            world,
                            source,
                            target,
                            method,
                            100 + t as u64,
                            1000 + t as u64 * 17,
                            train_fraction,
                        )
                    }));
                    if let Ok(r) = run {
                        slot.0 = Some(r);
                        return;
                    }
                }
            });
        }
    });
    let failed = results.iter().filter(|(r, _)| r.is_none()).count();
    if om_obs::enabled() {
        // Emitted after the join, in trial order, so the event stream is
        // deterministic even though the trials themselves raced.
        for (t, (outcome, attempts)) in results.iter().enumerate() {
            match outcome {
                Some((eval, secs)) => om_obs::emit(
                    "trial",
                    &[
                        ("method", method.label().into()),
                        ("source", source.into()),
                        ("target", target.into()),
                        ("trial", (t as u64).into()),
                        ("rmse", eval.rmse.into()),
                        ("mae", eval.mae.into()),
                        ("seconds", (*secs).into()),
                    ],
                ),
                None => {
                    om_obs::warn!(
                        "trial {t} of {} on {source}->{target} failed {attempts} attempts; \
                         reporting the slot as missing",
                        method.label()
                    );
                    om_obs::emit(
                        "trial_failed",
                        &[
                            ("method", method.label().into()),
                            ("source", source.into()),
                            ("target", target.into()),
                            ("trial", (t as u64).into()),
                            ("attempts", (*attempts as u64).into()),
                        ],
                    );
                }
            }
        }
    }
    let ok: Vec<&(Eval, f64)> = results.iter().filter_map(|(r, _)| r.as_ref()).collect();
    let rmses: Vec<f32> = ok.iter().map(|(e, _)| e.rmse).collect();
    let maes: Vec<f32> = ok.iter().map(|(e, _)| e.mae).collect();
    let secs: f64 = ok.iter().map(|(_, s)| s).sum();
    if ok.is_empty() {
        return TrialResult {
            rmse: Aggregate::missing(),
            mae: Aggregate::missing(),
            train_seconds: 0.0,
            failed,
        };
    }
    TrialResult {
        rmse: aggregate(&rmses),
        mae: aggregate(&maes),
        train_seconds: secs / ok.len() as f64,
        failed,
    }
}

/// Parse `--trials N` (default 3) and `--fast` from CLI args.
pub fn cli_trials(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--trials" {
            return w[1].parse().expect("--trials takes an integer");
        }
    }
    if args.iter().any(|a| a == "--fast") {
        1
    } else {
        default
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::SynthConfig;

    #[test]
    fn baseline_trials_aggregate() {
        let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
        let r = run_trials(&world, "Books", "Movies", &Method::Emcdr, 2, 1.0);
        assert_eq!(r.rmse.n, 2);
        assert!(r.rmse.mean.is_finite());
        assert!(r.mae.mean > 0.0);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn panicking_trials_degrade_to_missing() {
        let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
        // epochs = 0 fails config validation inside the trial thread, so
        // every attempt panics; the run must degrade, not abort.
        let bad = Method::Ours(OmniMatchConfig {
            epochs: 0,
            ..OmniMatchConfig::fast()
        });
        let r = run_trials(&world, "Books", "Movies", &bad, 2, 1.0);
        assert_eq!(r.failed, 2);
        assert!(r.rmse.is_missing(), "all-failed rmse must be missing");
        assert!(r.mae.is_missing(), "all-failed mae must be missing");
        assert_eq!(r.train_seconds, 0.0);
    }

    #[test]
    fn lineup_has_seven_methods() {
        assert_eq!(Method::paper_lineup().len(), 7);
        assert_eq!(Method::paper_lineup()[6].label(), "Ours");
    }

    #[test]
    fn fraction_is_forwarded() {
        let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
        let full = run_trials(&world, "Books", "Movies", &Method::Cmf, 1, 1.0);
        let sub = run_trials(&world, "Books", "Movies", &Method::Cmf, 1, 0.5);
        // results differ because the training set differs
        assert_ne!(full.rmse.mean, sub.rmse.mean);
    }
}
