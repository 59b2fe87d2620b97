//! First-order optimizers. The paper trains with Adadelta
//! (lr = 0.02, ρ = 0.95, §5.4); SGD and Adam are provided for the baselines
//! and ablations.

use std::collections::BTreeMap;

use om_tensor::kernels::{self, AdadeltaHp};
use om_tensor::Tensor;

use crate::serialize::CheckpointError;

/// One named optimizer state slot (e.g. Adadelta's `sq_avg`), stored **by
/// parameter index** — `per_param[i]` belongs to `params()[i]`. Tensor ids
/// are ephemeral (a restarted process allocates fresh ids), so exported
/// state is keyed by position in the parameter list, which is stable for a
/// given model construction order. `None` marks a parameter the optimizer
/// has not touched yet (lazy state allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct OptSlot {
    /// Slot name, e.g. `"sq_avg"`; checked on import.
    pub name: String,
    /// Per-parameter state vector, indexed like [`Optimizer::params`].
    pub per_param: Vec<Option<Vec<f32>>>,
}

/// Portable snapshot of an optimizer's internal state, suitable for
/// checkpointing (see `om_nn::serialize::{encode_opt_state,
/// decode_opt_state}`).
#[derive(Debug, Clone, PartialEq)]
pub struct OptState {
    /// Which optimizer produced this state (`"sgd"`, `"adam"`,
    /// `"adadelta"`); import refuses a mismatched kind.
    pub kind: String,
    /// Step counter for optimizers that have one (Adam's `t`); 0 otherwise.
    pub step: u64,
    /// Named state slots in a fixed, kind-specific order.
    pub slots: Vec<OptSlot>,
}

fn export_slot(name: &str, params: &[Tensor], map: &BTreeMap<u64, Vec<f32>>) -> OptSlot {
    OptSlot {
        name: name.to_string(),
        per_param: params.iter().map(|p| map.get(&p.id()).cloned()).collect(),
    }
}

/// Validate one slot against the live parameter list and rebuild the
/// id-keyed map. Pure — touches nothing on failure, so callers can
/// validate every slot before committing any.
fn import_slot(
    state: &OptState,
    index: usize,
    expect_name: &str,
    params: &[Tensor],
) -> Result<BTreeMap<u64, Vec<f32>>, CheckpointError> {
    let slot = state
        .slots
        .get(index)
        .ok_or_else(|| CheckpointError::StateMismatch(format!("missing slot `{expect_name}`")))?;
    if slot.name != expect_name {
        return Err(CheckpointError::StateMismatch(format!(
            "slot {index} is `{}`, expected `{expect_name}`",
            slot.name
        )));
    }
    if slot.per_param.len() != params.len() {
        return Err(CheckpointError::StateMismatch(format!(
            "slot `{expect_name}` covers {} parameters, optimizer has {}",
            slot.per_param.len(),
            params.len()
        )));
    }
    let mut map = BTreeMap::new();
    for (p, entry) in params.iter().zip(&slot.per_param) {
        if let Some(v) = entry {
            if v.len() != p.numel() {
                return Err(CheckpointError::StateMismatch(format!(
                    "slot `{expect_name}` has {} values for a {}-element parameter",
                    v.len(),
                    p.numel()
                )));
            }
            map.insert(p.id(), v.clone());
        }
    }
    Ok(map)
}

fn check_kind(state: &OptState, expect: &str, n_slots: usize) -> Result<(), CheckpointError> {
    if state.kind != expect {
        return Err(CheckpointError::StateMismatch(format!(
            "state is for `{}`, optimizer is `{expect}`",
            state.kind
        )));
    }
    if state.slots.len() != n_slots {
        return Err(CheckpointError::StateMismatch(format!(
            "`{expect}` expects {n_slots} slots, state has {}",
            state.slots.len()
        )));
    }
    Ok(())
}

/// Common optimizer interface: owns handles to the parameters it updates.
pub trait Optimizer {
    /// Apply one update using the gradients currently accumulated on the
    /// parameters, then leave gradients untouched (call
    /// [`Optimizer::zero_grad`] to clear them).
    fn step(&mut self);

    /// Clear gradients on all managed parameters.
    fn zero_grad(&mut self);

    /// The managed parameters.
    fn params(&self) -> &[Tensor];
}

fn apply_update(param: &Tensor, update: impl Fn(usize, f32, f32) -> f32) {
    let grad = match param.grad_vec() {
        Some(g) => g,
        None => return, // parameter unused this step
    };
    let mut data = param.data_mut();
    for (i, (d, g)) in data.iter_mut().zip(grad.iter()).enumerate() {
        *d = update(i, *d, *g);
    }
}

// --------------------------------------------------------------------- SGD

/// Stochastic gradient descent with optional momentum.
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    momentum: f32,
    velocity: BTreeMap<u64, Vec<f32>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Sgd {
        Sgd::with_momentum(params, lr, 0.0)
    }

    /// SGD with heavy-ball momentum.
    pub fn with_momentum(params: Vec<Tensor>, lr: f32, momentum: f32) -> Sgd {
        Sgd {
            params,
            lr,
            momentum,
            velocity: BTreeMap::new(),
        }
    }

    /// Snapshot the momentum state, indexed by parameter position.
    pub fn export_state(&self) -> OptState {
        OptState {
            kind: "sgd".to_string(),
            step: 0,
            slots: vec![export_slot("velocity", &self.params, &self.velocity)],
        }
    }

    /// Restore a [`Sgd::export_state`] snapshot. All-or-nothing: on error
    /// the optimizer is unchanged.
    pub fn import_state(&mut self, state: &OptState) -> Result<(), CheckpointError> {
        check_kind(state, "sgd", 1)?;
        self.velocity = import_slot(state, 0, "velocity", &self.params)?;
        Ok(())
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for p in &self.params {
            let grad = match p.grad_vec() {
                Some(g) => g,
                None => continue,
            };
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| vec![0.0; p.numel()]);
                let mut data = p.data_mut();
                for ((d, g), vi) in data.iter_mut().zip(&grad).zip(v.iter_mut()) {
                    *vi = self.momentum * *vi + g;
                    *d -= self.lr * *vi;
                }
            } else {
                apply_update(p, |_, d, g| d - self.lr * g);
            }
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

// -------------------------------------------------------------------- Adam

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: BTreeMap<u64, Vec<f32>>,
    v: BTreeMap<u64, Vec<f32>>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999) betas.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Adam {
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Snapshot step counter and both moment estimates, indexed by
    /// parameter position.
    pub fn export_state(&self) -> OptState {
        OptState {
            kind: "adam".to_string(),
            step: self.t,
            slots: vec![
                export_slot("m", &self.params, &self.m),
                export_slot("v", &self.params, &self.v),
            ],
        }
    }

    /// Restore an [`Adam::export_state`] snapshot. All-or-nothing: on
    /// error the optimizer is unchanged.
    pub fn import_state(&mut self, state: &OptState) -> Result<(), CheckpointError> {
        check_kind(state, "adam", 2)?;
        let m = import_slot(state, 0, "m", &self.params)?;
        let v = import_slot(state, 1, "v", &self.params)?;
        self.t = state.step;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in &self.params {
            let grad = match p.grad_vec() {
                Some(g) => g,
                None => continue,
            };
            let m = self.m.entry(p.id()).or_insert_with(|| vec![0.0; p.numel()]);
            let v = self.v.entry(p.id()).or_insert_with(|| vec![0.0; p.numel()]);
            let mut data = p.data_mut();
            for i in 0..grad.len() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

// ---------------------------------------------------------------- Adadelta

/// Summary of one optimizer step, collected only when observability is
/// enabled (`OM_OBS=1`). All values are L2 norms / means over every managed
/// parameter element, accumulated in f64 so the summary itself is stable.
/// Collection reads values the update loop already computes — it never
/// changes the f32 arithmetic of the update, so training results are
/// bitwise identical with stats on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// L2 norm of the full gradient vector.
    pub grad_norm: f64,
    /// L2 norm of the applied update (lr · delta).
    pub update_norm: f64,
    /// L2 norm of the parameters after the update.
    pub param_norm: f64,
    /// Mean of the running squared-gradient average (optimizer state).
    pub sq_avg_mean: f64,
    /// Mean of the running squared-delta accumulator (optimizer state).
    pub acc_delta_mean: f64,
}

/// Adadelta (Zeiler 2012) — the optimizer the paper uses, with
/// lr = 0.02 and ρ = 0.95 (§5.4).
pub struct Adadelta {
    params: Vec<Tensor>,
    lr: f32,
    rho: f32,
    eps: f32,
    sq_avg: BTreeMap<u64, Vec<f32>>,
    acc_delta: BTreeMap<u64, Vec<f32>>,
    last_stats: Option<StepStats>,
}

impl Adadelta {
    /// Build with explicit hyper-parameters.
    pub fn new(params: Vec<Tensor>, lr: f32, rho: f32) -> Adadelta {
        Adadelta {
            params,
            lr,
            rho,
            eps: 1e-6,
            sq_avg: BTreeMap::new(),
            acc_delta: BTreeMap::new(),
            last_stats: None,
        }
    }

    /// The paper's configuration: lr 0.02, ρ 0.95.
    pub fn paper(params: Vec<Tensor>) -> Adadelta {
        Adadelta::new(params, 0.02, 0.95)
    }

    /// Stats from the most recent [`Optimizer::step`], or `None` when
    /// observability was disabled at the time (stats are skipped entirely
    /// to keep the hot path free of extra work).
    pub fn step_stats(&self) -> Option<StepStats> {
        self.last_stats
    }

    /// Snapshot both running accumulators, indexed by parameter position.
    pub fn export_state(&self) -> OptState {
        OptState {
            kind: "adadelta".to_string(),
            step: 0,
            slots: vec![
                export_slot("sq_avg", &self.params, &self.sq_avg),
                export_slot("acc_delta", &self.params, &self.acc_delta),
            ],
        }
    }

    /// Restore an [`Adadelta::export_state`] snapshot. All-or-nothing: on
    /// error the optimizer is unchanged.
    pub fn import_state(&mut self, state: &OptState) -> Result<(), CheckpointError> {
        check_kind(state, "adadelta", 2)?;
        let sq_avg = import_slot(state, 0, "sq_avg", &self.params)?;
        let acc_delta = import_slot(state, 1, "acc_delta", &self.params)?;
        self.sq_avg = sq_avg;
        self.acc_delta = acc_delta;
        Ok(())
    }
}

impl Optimizer for Adadelta {
    /// Updates each parameter with the borrowed gradient through
    /// `kernels::adadelta_update`. With observability on, the same
    /// per-element update runs one element at a time instead
    /// (`kernels::adadelta_element`, bitwise the kernel) so the stats see
    /// every step.
    // om-lint: reduction-ok(five f64 telemetry accumulators over params in
    // fixed registration order, single-threaded — the update itself is
    // element-wise; the sums only feed StepStats observability)
    fn step(&mut self) {
        // om-fault: kill-point
        om_obs::fault::kill_point("optim-step");
        let collect = om_obs::enabled();
        let h = AdadeltaHp { lr: self.lr, rho: self.rho, eps: self.eps };
        let mut grad_sq = 0.0f64;
        let mut upd_sq = 0.0f64;
        let mut param_sq = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut n_elems = 0u64;
        for p in &self.params {
            let Some(grad) = p.grad() else {
                continue;
            };
            let sq = self
                .sq_avg
                .entry(p.id())
                .or_insert_with(|| vec![0.0; p.numel()]);
            let acc = self
                .acc_delta
                .entry(p.id())
                .or_insert_with(|| vec![0.0; p.numel()]);
            let mut data = p.data_mut();
            if !collect {
                kernels::adadelta_update(&mut data, &grad, sq, acc, h);
                continue;
            }
            for (((x, &g), s), a) in data.iter_mut().zip(grad.iter()).zip(sq.iter_mut()).zip(acc.iter_mut()) {
                let delta = kernels::adadelta_element(x, g, s, a, h);
                let upd = (self.lr * delta) as f64;
                grad_sq += (g as f64) * (g as f64);
                upd_sq += upd * upd;
                param_sq += (*x as f64) * (*x as f64);
                sq_sum += *s as f64;
                acc_sum += *a as f64;
            }
            n_elems += grad.len() as u64;
        }
        self.last_stats = if collect && n_elems > 0 {
            let n = n_elems as f64;
            Some(StepStats {
                grad_norm: grad_sq.sqrt(),
                update_norm: upd_sq.sqrt(),
                param_norm: param_sq.sqrt(),
                sq_avg_mean: sq_sum / n,
                acc_delta_mean: acc_sum / n,
            })
        } else {
            None
        };
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl: loss = Σ (x - target)²; every optimizer must descend.
    fn quadratic_descends(mut make: impl FnMut(Vec<Tensor>) -> Box<dyn Optimizer>) -> f32 {
        let x = Tensor::from_vec(vec![5.0, -3.0], &[2]).requires_grad();
        let mut opt = make(vec![x.clone()]);
        let mut last = f32::INFINITY;
        for _ in 0..2000 {
            opt.zero_grad();
            let loss = x.square().sum_all();
            loss.backward();
            opt.step();
            last = loss.item();
        }
        last
    }

    #[test]
    fn sgd_descends() {
        let end = quadratic_descends(|p| Box::new(Sgd::new(p, 0.1)));
        assert!(end < 1e-4, "final loss {end}");
    }

    #[test]
    fn sgd_momentum_descends() {
        let end = quadratic_descends(|p| Box::new(Sgd::with_momentum(p, 0.05, 0.9)));
        assert!(end < 1e-4, "final loss {end}");
    }

    #[test]
    fn adam_descends() {
        let end = quadratic_descends(|p| Box::new(Adam::new(p, 0.1)));
        assert!(end < 1e-2, "final loss {end}");
    }

    #[test]
    fn adadelta_descends() {
        let end = quadratic_descends(|p| Box::new(Adadelta::new(p, 1.0, 0.9)));
        assert!(end < 1.0, "final loss {end}"); // adadelta starts slowly
    }

    #[test]
    fn unused_parameter_is_skipped() {
        let used = Tensor::from_vec(vec![1.0], &[1]).requires_grad();
        let unused = Tensor::from_vec(vec![9.0], &[1]).requires_grad();
        let mut opt = Sgd::new(vec![used.clone(), unused.clone()], 0.5);
        used.square().sum_all().backward();
        opt.step();
        assert_eq!(unused.to_vec(), vec![9.0]);
        assert!(used.to_vec()[0] < 1.0);
    }

    #[test]
    fn zero_grad_clears() {
        let x = Tensor::ones(&[1]).requires_grad();
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        x.square().sum_all().backward();
        assert!(x.grad_vec().is_some());
        opt.zero_grad();
        assert!(x.grad_vec().is_none());
    }

    #[test]
    fn paper_adadelta_settings() {
        let opt = Adadelta::paper(vec![]);
        assert_eq!(opt.lr, 0.02);
        assert_eq!(opt.rho, 0.95);
    }

    /// One gradient step on two parameters (second deliberately unused so
    /// its state stays lazily unallocated → `None` in the export).
    fn stepped_pair() -> (Tensor, Tensor) {
        let used = Tensor::from_vec(vec![2.0, -1.0], &[2]).requires_grad();
        let unused = Tensor::from_vec(vec![7.0], &[1]).requires_grad();
        (used, unused)
    }

    #[test]
    fn adadelta_state_roundtrip_resumes_identically() {
        let (used, unused) = stepped_pair();
        let mut opt = Adadelta::new(vec![used.clone(), unused.clone()], 0.5, 0.9);
        used.square().sum_all().backward();
        opt.step();
        opt.zero_grad();
        let state = opt.export_state();
        assert_eq!(state.kind, "adadelta");
        assert_eq!(state.slots[0].name, "sq_avg");
        assert!(state.slots[0].per_param[0].is_some());
        assert!(state.slots[0].per_param[1].is_none(), "unused param lazily absent");

        // A fresh optimizer over *new tensors* (fresh ids — as after a
        // process restart) continues the exact update sequence.
        let resume = |import: bool| {
            let u2 = Tensor::from_vec(used.to_vec(), &[2]).requires_grad();
            let x2 = Tensor::from_vec(unused.to_vec(), &[1]).requires_grad();
            let mut o2 = Adadelta::new(vec![u2.clone(), x2], 0.5, 0.9);
            if import {
                o2.import_state(&state).unwrap();
            }
            u2.square().sum_all().backward();
            o2.step();
            u2.to_vec()
        };
        let with_state = resume(true);

        // Reference: keep stepping the original optimizer.
        used.square().sum_all().backward();
        opt.step();
        assert_eq!(used.to_vec(), with_state, "resumed step must be bitwise identical");
        assert_ne!(resume(false), with_state, "state must actually matter");
    }

    #[test]
    fn adam_state_roundtrip_keeps_step_counter() {
        let (used, unused) = stepped_pair();
        let mut opt = Adam::new(vec![used.clone(), unused.clone()], 0.1);
        used.square().sum_all().backward();
        opt.step();
        let state = opt.export_state();
        assert_eq!((state.kind.as_str(), state.step), ("adam", 1));
        let mut o2 = Adam::new(vec![used.clone(), unused], 0.1);
        o2.import_state(&state).unwrap();
        assert_eq!(o2.t, 1);
        assert_eq!(o2.export_state(), state);
    }

    #[test]
    fn sgd_state_roundtrip() {
        let (used, unused) = stepped_pair();
        let mut opt = Sgd::with_momentum(vec![used.clone(), unused.clone()], 0.1, 0.9);
        used.square().sum_all().backward();
        opt.step();
        let state = opt.export_state();
        let mut o2 = Sgd::with_momentum(vec![used, unused], 0.1, 0.9);
        o2.import_state(&state).unwrap();
        assert_eq!(o2.export_state(), state);
    }

    #[test]
    fn import_rejects_mismatched_state() {
        let x = Tensor::ones(&[2]).requires_grad();
        let mut ada = Adadelta::new(vec![x.clone()], 0.5, 0.9);
        let sgd_state = Sgd::new(vec![x.clone()], 0.1).export_state();
        assert!(ada.import_state(&sgd_state).is_err(), "wrong kind");

        let mut bad = ada.export_state();
        bad.slots[0].per_param.push(None);
        assert!(ada.import_state(&bad).is_err(), "wrong param count");

        let mut bad_len = ada.export_state();
        bad_len.slots[0].per_param[0] = Some(vec![1.0; 3]);
        assert!(ada.import_state(&bad_len).is_err(), "wrong vec length");

        // Valid import still works and failure left state untouched.
        let good = ada.export_state();
        ada.import_state(&good).unwrap();
        assert_eq!(ada.export_state(), good);
    }

    #[test]
    fn adadelta_step_stats_follow_obs_flag() {
        let run = |obs: bool| {
            om_obs::set_enabled(obs);
            let x = Tensor::from_vec(vec![3.0, -4.0], &[2]).requires_grad();
            let mut opt = Adadelta::new(vec![x.clone()], 1.0, 0.9);
            x.square().sum_all().backward();
            opt.step();
            let out = (x.to_vec(), opt.step_stats());
            om_obs::set_enabled(false);
            out
        };
        let (x_off, stats_off) = run(false);
        let (x_on, stats_on) = run(true);
        // Stats only exist when enabled, and collecting them never changes
        // the actual parameter update.
        assert!(stats_off.is_none());
        let s = stats_on.expect("stats collected when obs is enabled");
        assert_eq!(x_off, x_on);
        // grad = 2x = (6, -8) → ‖g‖ = 10.
        assert!((s.grad_norm - 10.0).abs() < 1e-9, "{}", s.grad_norm);
        assert!(s.update_norm > 0.0 && s.param_norm > 0.0);
        assert!(s.sq_avg_mean > 0.0 && s.acc_delta_mean > 0.0);
    }
}
