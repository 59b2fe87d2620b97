//! One smoke driver for the train → checkpoint → serve path. Every
//! subcommand trains the same tiny Books→Movies model (fast config,
//! seed 7) with observability force-enabled, asserts in-process, and
//! prints the run's artifact directory as its last stdout line (CI
//! validates it with `cargo obs-report` and uploads it).
//!
//! * `train <params-out>` — train and write the final parameter bytes to
//!   `<params-out>`. Checkpointing and fault injection come from the
//!   environment (`OM_CKPT*`, `OM_FAULT`), exactly as for a real training
//!   job: `tests/chaos.rs` runs it clean, kills it at `ckpt-save:2`, and
//!   resumes it to the clean run's bytes.
//! * `serve` — checkpoint, reload through `om_serve::load_model_file`,
//!   and check the threaded front-end with its stats endpoint, the
//!   in-process engine against training-side `predict`, and the int8
//!   arenas against the f32 engine (see `serve.rs`). `OM_FAULT=scorer:2`
//!   kills it on the front-end's second flush (`tests/obs_chaos.rs`).
//! * `online` — stream target-domain interactions until cold users
//!   graduate, and check post-swap scores against a cold rebuild (see
//!   `online.rs`). `OM_FAULT=swap:1` kills it before the first swap
//!   installs (`tests/online_chaos.rs`).
//!
//! The checkpoint and arena blobs live in a private directory under the
//! OS temp dir, removed on exit; besides `train`'s `<params-out>`, the
//! working directory gains only `results/`.

mod online;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use om_data::{CrossDomainScenario, SplitConfig, SynthConfig, SynthWorld};
use om_nn::HasParams;
use om_serve::{load_model_file, ServeEngine, ServeOptions};
use om_tensor::seeded_rng;
use omnimatch_core::{CorpusViews, OmniMatchConfig, OmniMatchModel, TrainedOmniMatch, Trainer};

const USAGE: &str = "usage: om-smoke train <params-out> | serve | online";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["train", out] => train(Path::new(out)),
        ["serve"] => serve::run(),
        ["online"] => online::run(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// `om-smoke train <params-out>`.
fn train(out: &Path) {
    let fx = Fixture::train("om-smoke-train");
    let eval = fx.trained.evaluate(&fx.scenario.test_pairs());
    assert!(eval.rmse.is_finite(), "smoke training produced NaN RMSE");
    om_obs::manifest_set("smoke.rmse", (eval.rmse as f64).into());
    om_obs::manifest_set("smoke.mae", (eval.mae as f64).into());
    let blob = om_nn::serialize::save_params(&fx.trained.model().params());
    std::fs::write(out, &blob).expect("write params blob");
    println!(
        "om-smoke train: rmse {:.4} mae {:.4}, {} param bytes -> {}",
        eval.rmse,
        eval.mae,
        blob.len(),
        out.display()
    );
    fx.finish(|_| ());
}

/// The shared fixture: one tiny model trained in an observability run.
struct Fixture {
    scenario: CrossDomainScenario,
    cfg: OmniMatchConfig,
    trained: TrainedOmniMatch,
    scratch: Scratch,
}

impl Fixture {
    /// Force telemetry on, open run `run`, and train.
    fn train(run: &str) -> Fixture {
        om_obs::set_enabled(true);
        assert!(om_obs::run_begin(run), "{run} must own the run");
        om_obs::info!("{run}: tiny Books->Movies training");
        let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
        let scenario = world.scenario("Books", "Movies", SplitConfig::default());
        let cfg = OmniMatchConfig::fast().with_seed(7);
        let trained = Trainer::new(cfg.clone()).fit(&scenario);
        Fixture { scenario, cfg, trained, scratch: Scratch::new() }
    }

    /// Write the OMCK checkpoint into the scratch directory.
    fn checkpoint(&self) -> Checkpoint {
        let path = self.scratch.0.join("smoke.omck");
        self.trained.write_checkpoint(&path).expect("write checkpoint");
        om_obs::info!("smoke: checkpoint at {}", path.display());
        Checkpoint {
            cfg: self.cfg.clone(),
            scenario: self.scenario.clone(),
            vocab_size: self.trained.views().vocab.len(),
            path,
        }
    }

    /// Close the run, let `write` add files to its artifact directory,
    /// print the directory, and remove the scratch directory.
    fn finish(self, write: impl FnOnce(&Path)) {
        let dir = om_obs::run_finish().expect("run artifacts written");
        write(&dir);
        // Machine-readable: CI captures this line to locate the artifact.
        println!("{}", dir.display());
    }
}

/// An exported checkpoint plus what reloading it needs; cheap enough to
/// clone into a front-end's engine factory.
#[derive(Clone)]
struct Checkpoint {
    cfg: OmniMatchConfig,
    scenario: CrossDomainScenario,
    vocab_size: usize,
    path: PathBuf,
}

impl Checkpoint {
    /// Reload through the serving path: the model from the OMCK file
    /// (fresh process state), the corpus views rebuilt from the scenario.
    fn reload(&self) -> (OmniMatchModel, CorpusViews) {
        let model =
            load_model_file(&self.cfg, self.vocab_size, &self.path).expect("reload checkpoint");
        let views = CorpusViews::build(&self.scenario, &self.cfg, &mut seeded_rng(self.cfg.seed));
        assert_eq!(views.vocab.len(), self.vocab_size, "rebuilt vocabulary drifted");
        (model, views)
    }

    /// A reloaded engine with the scenario's training users warm.
    fn engine(&self, opts: ServeOptions) -> ServeEngine {
        let (model, views) = self.reload();
        ServeEngine::new(model, views, &self.scenario.train_users, opts)
    }
}

/// A private directory under the OS temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("om-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
