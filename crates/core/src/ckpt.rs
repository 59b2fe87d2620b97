//! Durable training checkpoints: atomic on-disk persistence of the full
//! `Trainer::fit` state at epoch boundaries, and resume.
//!
//! A checkpoint is an `OMCK` v2 file (see `om_nn::serialize`) holding
//! everything the training loop needs to continue **bitwise identically**:
//!
//! | section | contents |
//! |---|---|
//! | `meta` | scenario/config digest (resume refuses a mismatched run) + next epoch |
//! | `params` | current model parameters (per-tensor CRC32) |
//! | `opt` | Adadelta `sq_avg` / `acc_delta`, keyed by parameter index |
//! | `rng` | the training RNG's full state (shuffle, augmentation, dropout) |
//! | `history` | per-epoch loss means + validation RMSE so far |
//! | `best` | best-so-far cursor (rmse, epoch) + the best parameter blob |
//!
//! **Atomicity.** A checkpoint is written to `ep-NNNN.omck.tmp`, fsynced,
//! then renamed to `ep-NNNN.omck` — a crash can leave a stray `*.tmp`
//! (cleaned on the next resume scan) but never a half-written `.omck`.
//! Every section carries a CRC32, so torn or corrupted files are detected
//! and skipped in favour of the next-newest checkpoint.
//!
//! **Gating.** Nothing is written unless the caller passes an explicit
//! [`CkptConfig`] or sets `OM_CKPT` (truthy). `OM_CKPT_DIR` overrides the
//! `results/ckpt` root; `OM_CKPT_EVERY` sets the epoch cadence (the final
//! epoch is always checkpointed).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use bytes::{Buf as _, BufMut as _, Bytes, BytesMut};
use om_nn::serialize::{
    decode_opt_state, decode_tensors_into, encode_opt_state, encode_tensors, CheckpointV2,
};
use om_nn::Adadelta;
use om_tensor::Tensor;

use crate::config::{AuxMode, ExtractorKind, OmniMatchConfig};
use crate::trainer::EpochStats;

/// Where and how often to persist training checkpoints.
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Run directory; checkpoints are `<dir>/ep-NNNN.omck`.
    pub dir: PathBuf,
    /// Save every `every` epochs (≥ 1; the final epoch always saves).
    pub every: usize,
}

impl CkptConfig {
    /// Checkpoint into `dir` after every epoch.
    pub fn at(dir: impl Into<PathBuf>) -> CkptConfig {
        CkptConfig {
            dir: dir.into(),
            every: 1,
        }
    }

    /// Builder-style cadence override (clamped to ≥ 1).
    pub fn every(mut self, n: usize) -> CkptConfig {
        self.every = n.max(1);
        self
    }

    /// The environment-driven configuration: `None` unless `OM_CKPT` is
    /// truthy. Run directory is `<OM_CKPT_DIR or results/ckpt>/<run>`;
    /// cadence is `OM_CKPT_EVERY` (default 1).
    pub fn from_env(run: &str) -> Option<CkptConfig> {
        let on = std::env::var("OM_CKPT")
            .map(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"))
            .unwrap_or(false);
        if !on {
            return None;
        }
        let root = match std::env::var("OM_CKPT_DIR") {
            Ok(p) if !p.is_empty() => PathBuf::from(p),
            _ => PathBuf::from("results/ckpt"),
        };
        let every = std::env::var("OM_CKPT_EVERY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        Some(CkptConfig {
            dir: root.join(run),
            every,
        })
    }
}

/// Everything `Trainer::fit` needs to continue from an epoch boundary.
pub(crate) struct Snapshot {
    /// First epoch the resumed loop should run.
    pub next_epoch: usize,
    /// Loss means of the completed epochs.
    pub stats: Vec<EpochStats>,
    /// Validation RMSE of the completed epochs.
    pub valid_rmse: Vec<f32>,
    /// Best validation RMSE so far (`f32::INFINITY` when none).
    pub best_rmse: f32,
    /// Epoch of the best validation RMSE.
    pub best_epoch: usize,
    /// v1 parameter blob of the best epoch, if any.
    pub best_params: Option<Bytes>,
    /// Training RNG state at the epoch boundary.
    pub rng: [u64; 4],
}

/// FNV-1a accumulation helper.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Digest of everything that must match for a checkpoint to be resumable
/// into this run: the seed, data shape, model shape and the training
/// hyper-parameters. Deliberately **excludes `epochs`** — extending a
/// finished short run (or finishing an interrupted long one) is exactly
/// what resume is for.
pub(crate) fn config_digest(
    cfg: &OmniMatchConfig,
    n_samples: usize,
    vocab_len: usize,
    params: &[Tensor],
) -> u64 {
    let mut h = Fnv::new();
    h.u64(cfg.seed);
    h.u64(n_samples as u64);
    h.u64(vocab_len as u64);
    for p in params {
        for &d in p.dims() {
            h.u64(d as u64);
        }
        h.u64(u64::MAX); // dim-list terminator
    }
    for v in [
        cfg.lr,
        cfg.rho,
        cfg.alpha,
        cfg.beta,
        cfg.temperature,
        cfg.grl_lambda,
        cfg.dropout,
        cfg.aux_augment_prob,
    ] {
        h.f32(v);
    }
    for v in [
        cfg.doc_len,
        cfg.vocab_size,
        cfg.emb_dim,
        cfg.filters,
        cfg.invariant_dim,
        cfg.specific_dim,
        cfg.item_dim,
        cfg.proj_dim,
        cfg.batch_size,
    ] {
        h.u64(v as u64);
    }
    for &w in &cfg.kernel_widths {
        h.u64(w as u64);
    }
    h.u64(cfg.min_count);
    let flags = (cfg.use_scl as u64)
        | (cfg.use_da as u64) << 1
        | (cfg.align_cold_users as u64) << 2
        | (cfg.pretrain_embeddings as u64) << 3
        | ((cfg.aux_mode == AuxMode::Generated) as u64) << 4
        | ((cfg.extractor == ExtractorKind::TextCnn) as u64) << 5;
    h.u64(flags);
    h.0
}

fn encode_history(stats: &[EpochStats], valid: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + 16 * stats.len() + 4 * valid.len());
    buf.put_u32_le(stats.len() as u32);
    for s in stats {
        buf.put_f32_le(s.total);
        buf.put_f32_le(s.rating);
        buf.put_f32_le(s.scl);
        buf.put_f32_le(s.domain);
    }
    buf.put_u32_le(valid.len() as u32);
    for &v in valid {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

fn decode_history(mut payload: &[u8]) -> Option<(Vec<EpochStats>, Vec<f32>)> {
    if payload.remaining() < 4 {
        return None;
    }
    let n = payload.get_u32_le() as usize;
    if payload.remaining() < 16 * n {
        return None;
    }
    let mut stats = Vec::with_capacity(n);
    for _ in 0..n {
        stats.push(EpochStats {
            total: payload.get_f32_le(),
            rating: payload.get_f32_le(),
            scl: payload.get_f32_le(),
            domain: payload.get_f32_le(),
        });
    }
    if payload.remaining() < 4 {
        return None;
    }
    let nv = payload.get_u32_le() as usize;
    if payload.remaining() != 4 * nv {
        return None;
    }
    let valid = (0..nv).map(|_| payload.get_f32_le()).collect();
    Some((stats, valid))
}

fn encode_best(best_rmse: f32, best_epoch: usize, blob: &Option<Bytes>) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(blob.is_some() as u8);
    buf.put_f32_le(best_rmse);
    buf.put_u64_le(best_epoch as u64);
    if let Some(b) = blob {
        buf.put_slice(b);
    }
    buf.freeze()
}

fn decode_best(mut payload: &[u8]) -> Option<(f32, usize, Option<Bytes>)> {
    if payload.remaining() < 13 {
        return None;
    }
    let has = payload.get_u8() != 0;
    let rmse = payload.get_f32_le();
    let epoch = payload.get_u64_le() as usize;
    let blob = if has {
        Some(Bytes::copy_from_slice(payload))
    } else if payload.remaining() == 0 {
        None
    } else {
        return None; // trailing bytes on a "no best" record
    };
    Some((rmse, epoch, blob))
}

fn checkpoint_path(dir: &Path, epoch: usize) -> PathBuf {
    dir.join(format!("ep-{epoch:04}.omck"))
}

/// Persist one epoch-boundary snapshot atomically. Failures are reported
/// (not fatal): training without a checkpoint is strictly better than no
/// training at all.
pub(crate) fn save(
    ck: &CkptConfig,
    digest: u64,
    epoch: usize,
    params: &[Tensor],
    opt: &Adadelta,
    snap: &Snapshot,
) -> std::io::Result<PathBuf> {
    let mut v2 = CheckpointV2::new();
    let mut meta = BytesMut::with_capacity(16);
    meta.put_u64_le(digest);
    meta.put_u64_le(snap.next_epoch as u64);
    v2.insert("meta", meta.freeze());
    v2.insert("params", encode_tensors(params));
    v2.insert("opt", encode_opt_state(&opt.export_state()));
    let mut rng_buf = BytesMut::with_capacity(32);
    for &w in &snap.rng {
        rng_buf.put_u64_le(w);
    }
    v2.insert("rng", rng_buf.freeze());
    v2.insert("history", encode_history(&snap.stats, &snap.valid_rmse));
    v2.insert(
        "best",
        encode_best(snap.best_rmse, snap.best_epoch, &snap.best_params),
    );
    let bytes = v2.encode();

    std::fs::create_dir_all(&ck.dir)?;
    let final_path = checkpoint_path(&ck.dir, epoch);
    let tmp_path = final_path.with_extension("omck.tmp");
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    // The window a chaos run targets: the tmp file is durable but the
    // final name does not exist yet — resume must survive exactly this.
    // om-fault: kill-point
    om_obs::fault::kill_point("ckpt-save");
    std::fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = std::fs::File::open(&ck.dir) {
        let _ = d.sync_all(); // best-effort directory fsync
    }
    om_obs::emit(
        "checkpoint",
        &[
            ("epoch", (epoch as u64).into()),
            ("bytes", (bytes.len() as u64).into()),
        ],
    );
    Ok(final_path)
}

/// Scan `dir` for the newest decodable checkpoint matching `digest`,
/// restore parameters + optimizer state from it, and return the snapshot.
/// Stray `*.tmp` files (from a process killed mid-save) are removed.
///
/// On `None` the caller must treat the optimizer as *unspecified* and
/// rebuild it: a corrupt `params` section can be detected after the
/// optimizer state was already imported.
pub(crate) fn load_latest(
    dir: &Path,
    digest: u64,
    params: &[Tensor],
    opt: &mut Adadelta,
) -> Option<Snapshot> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut ckpts: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            // A save died between write and rename; the *.omck set is
            // still consistent, so the torn temp file is just deleted.
            om_obs::warn!("removing stray checkpoint temp file {}", path.display());
            let _ = std::fs::remove_file(&path);
        } else if name.starts_with("ep-") && name.ends_with(".omck") {
            ckpts.push(path);
        }
    }
    // Newest first: epoch numbers are zero-padded, so the lexicographic
    // order is the numeric order.
    ckpts.sort();
    for path in ckpts.into_iter().rev() {
        match try_load(&path, digest, params, opt) {
            Ok(snap) => {
                om_obs::emit(
                    "restore",
                    &[("epoch", ((snap.next_epoch.max(1) - 1) as u64).into())],
                );
                om_obs::info!(
                    "resumed from {} (next epoch {})",
                    path.display(),
                    snap.next_epoch
                );
                return Some(snap);
            }
            Err(why) => {
                om_obs::warn!("skipping checkpoint {}: {why}", path.display());
            }
        }
    }
    None
}

fn try_load(
    path: &Path,
    digest: u64,
    params: &[Tensor],
    opt: &mut Adadelta,
) -> Result<Snapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let v2 = CheckpointV2::decode(&bytes).map_err(|e| e.to_string())?;

    // Pure decoding + validation first; nothing is committed until every
    // section has parsed.
    let mut meta = v2.require("meta").map_err(|e| e.to_string())?;
    if meta.remaining() != 16 {
        return Err("malformed meta section".to_string());
    }
    let found_digest = meta.get_u64_le();
    if found_digest != digest {
        return Err(format!(
            "config digest mismatch ({found_digest:016x} != {digest:016x}) — \
             checkpoint belongs to a different run"
        ));
    }
    let next_epoch = meta.get_u64_le() as usize;

    let mut rng_raw = v2.require("rng").map_err(|e| e.to_string())?;
    if rng_raw.remaining() != 32 {
        return Err("malformed rng section".to_string());
    }
    let rng = [
        rng_raw.get_u64_le(),
        rng_raw.get_u64_le(),
        rng_raw.get_u64_le(),
        rng_raw.get_u64_le(),
    ];

    let (stats, valid_rmse) = decode_history(v2.require("history").map_err(|e| e.to_string())?)
        .ok_or("malformed history section")?;
    let (best_rmse, best_epoch, best_params) =
        decode_best(v2.require("best").map_err(|e| e.to_string())?)
            .ok_or("malformed best section")?;
    let opt_state =
        decode_opt_state(v2.require("opt").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;

    // Commit phase. Both imports are individually all-or-nothing; the
    // optimizer goes first so a corrupt params section leaves parameters
    // untouched (the caller rebuilds the optimizer on any failure).
    opt.import_state(&opt_state).map_err(|e| e.to_string())?;
    decode_tensors_into(params, v2.require("params").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;

    Ok(Snapshot {
        next_epoch,
        stats,
        valid_rmse,
        best_rmse,
        best_epoch,
        best_params,
        rng,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_nn::Optimizer as _;
    use om_tensor::{init, seeded_rng};

    fn params() -> Vec<Tensor> {
        let mut rng = seeded_rng(5);
        vec![
            init::normal(&[2, 3], 1.0, &mut rng).requires_grad(),
            init::normal(&[3], 1.0, &mut rng).requires_grad(),
        ]
    }

    fn snapshot() -> Snapshot {
        Snapshot {
            next_epoch: 2,
            stats: vec![EpochStats {
                total: 1.0,
                rating: 0.7,
                scl: 0.2,
                domain: 0.1,
            }],
            valid_rmse: vec![1.25],
            best_rmse: 1.25,
            best_epoch: 0,
            best_params: Some(om_nn::serialize::save_params(&params())),
            rng: [1, 2, 3, 4],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("om-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_and_resume_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let ck = CkptConfig::at(&dir);
        let src = params();
        let mut opt = Adadelta::new(src.clone(), 0.5, 0.9);
        src[0].square().sum_all().backward();
        opt.step();
        opt.zero_grad();
        let snap = snapshot();
        save(&ck, 42, 1, &src, &opt, &snap).unwrap();

        let dst = params();
        let mut opt2 = Adadelta::new(dst.clone(), 0.5, 0.9);
        let back = load_latest(&dir, 42, &dst, &mut opt2).expect("resume");
        assert_eq!(back.next_epoch, 2);
        assert_eq!(back.rng, [1, 2, 3, 4]);
        assert_eq!(back.valid_rmse, vec![1.25]);
        assert_eq!(back.best_epoch, 0);
        assert!(back.best_params.is_some());
        assert_eq!(back.stats[0].total, 1.0);
        for (a, b) in src.iter().zip(&dst) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        assert_eq!(opt2.export_state(), opt.export_state());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_mismatched_digest_and_cleans_tmp() {
        let dir = tmp_dir("digest");
        let ck = CkptConfig::at(&dir);
        let src = params();
        let opt = Adadelta::new(src.clone(), 0.5, 0.9);
        save(&ck, 7, 0, &src, &opt, &snapshot()).unwrap();
        // Stray temp file from a killed save.
        std::fs::write(dir.join("ep-0001.omck.tmp"), b"torn").unwrap();

        let dst = params();
        let before: Vec<Vec<f32>> = dst.iter().map(|t| t.to_vec()).collect();
        let mut opt2 = Adadelta::new(dst.clone(), 0.5, 0.9);
        assert!(load_latest(&dir, 8, &dst, &mut opt2).is_none(), "digest must gate resume");
        // Mismatch must leave the target untouched…
        for (t, b) in dst.iter().zip(&before) {
            assert_eq!(&t.to_vec(), b);
        }
        // …and the stray tmp file must be gone.
        assert!(!dir.join("ep-0001.omck.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_checkpoint() {
        let dir = tmp_dir("fallback");
        let ck = CkptConfig::at(&dir);
        let src = params();
        let opt = Adadelta::new(src.clone(), 0.5, 0.9);
        save(&ck, 1, 0, &src, &opt, &snapshot()).unwrap();
        let good = save(&ck, 1, 1, &src, &opt, &snapshot()).unwrap();
        // Corrupt the newest (epoch 2) checkpoint.
        let mut snap2 = snapshot();
        snap2.next_epoch = 3;
        let newest = save(&ck, 1, 2, &src, &opt, &snap2).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();

        let dst = params();
        let mut opt2 = Adadelta::new(dst.clone(), 0.5, 0.9);
        let back = load_latest(&dir, 1, &dst, &mut opt2).expect("older checkpoint works");
        assert_eq!(back.next_epoch, 2, "fell back to {}", good.display());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_resumes_nothing() {
        let dir = tmp_dir("missing");
        let dst = params();
        let mut opt = Adadelta::new(dst.clone(), 0.5, 0.9);
        assert!(load_latest(&dir, 1, &dst, &mut opt).is_none());
    }

    #[test]
    fn digest_separates_runs_but_not_epoch_budget() {
        let cfg = OmniMatchConfig::fast();
        let p = params();
        let base = config_digest(&cfg, 100, 50, &p);
        assert_eq!(base, config_digest(&cfg, 100, 50, &p), "deterministic");
        let mut more_epochs = cfg.clone();
        more_epochs.epochs = 99;
        assert_eq!(
            base,
            config_digest(&more_epochs, 100, 50, &p),
            "epoch budget must not change the digest (resume extends runs)"
        );
        assert_ne!(base, config_digest(&cfg.clone().with_seed(2), 100, 50, &p));
        assert_ne!(base, config_digest(&cfg, 101, 50, &p), "data size");
        let mut other = cfg.clone();
        other.lr = 0.123;
        assert_ne!(base, config_digest(&other, 100, 50, &p), "hyper-params");
    }

    #[test]
    fn from_env_requires_gate() {
        // Deliberately avoids mutating the process environment (other
        // tests run in parallel); the default environment has no OM_CKPT.
        if std::env::var("OM_CKPT").is_err() {
            assert!(CkptConfig::from_env("seed1").is_none());
        }
        let ck = CkptConfig::at("/tmp/x").every(0);
        assert_eq!(ck.every, 1, "cadence clamps to 1");
    }
}
