//! # omnimatch-core
//!
//! The paper's primary contribution: the OmniMatch review-based
//! cross-domain cold-start recommender (EDBT 2025).
//!
//! Pipeline (Fig. 2 of the paper):
//!
//! 1. [`auxiliary`] — **Auxiliary Reviews Generation Module** (§4.1,
//!    Algorithm 1): builds target-domain review documents for cold-start
//!    users from like-minded overlapping users.
//! 2. [`corpus`] — assembles and encodes the three document families of
//!    §4.2 (user-source, user-target, item) over a shared vocabulary.
//! 3. [`model`] — **Features Extraction Module** (§4.2, shared-private
//!    TextCNN extractors), **Contrastive Representation Learning Module**
//!    (§4.3, projected user–item pairs + supervised contrastive loss),
//!    **Domain Adversarial Training Module** (§4.4, gradient-reversal
//!    domain classifiers) and the rating classifier (Eq. 18).
//! 4. [`trainer`] — the joint objective `L = L_rating + α·L_SCL +
//!    β·L_domain` (Eq. 21), Adadelta training (§5.4), cold-start
//!    evaluation (Eqs. 22–23).
//!
//! ```no_run
//! use om_data::{SynthConfig, SynthWorld, SplitConfig};
//! use omnimatch_core::{OmniMatchConfig, Trainer};
//!
//! let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
//! let scenario = world.scenario("Books", "Movies", SplitConfig::default());
//! let trained = Trainer::new(OmniMatchConfig::default()).fit(&scenario);
//! let eval = trained.evaluate(&scenario.test_pairs());
//! println!("cold-start RMSE {:.3} MAE {:.3}", eval.rmse, eval.mae);
//! ```

pub mod auxiliary;
pub mod ckpt;
pub mod config;
pub mod corpus;
pub mod model;
pub mod shapecheck;
pub mod trainer;

pub use auxiliary::{AuxiliaryDocument, AuxiliaryReviewGenerator, AuxiliaryStep};
pub use ckpt::CkptConfig;
pub use config::{AuxMode, ExtractorKind, OmniMatchConfig};
pub use corpus::CorpusViews;
pub use model::{OmniMatchModel, PairBlockScorer};
pub use shapecheck::shape_check;
pub use trainer::{EpochStats, TrainReport, TrainedOmniMatch, Trainer};
