//! Gradcheck property suite: every differentiable op in `om_tensor::ops`
//! validated against central finite differences, at more than one shape,
//! and under both thread settings — serial (`set_threads(1)`) and the
//! default worker pool. Because the parallel kernels are bitwise identical
//! to their serial references, the analytic gradients must agree with the
//! numeric ones in *both* configurations; a divergence here is how a
//! nondeterministic or wrong parallel kernel would first surface.
//!
//! The suite can additionally be pinned fully serial from the outside with
//! `OM_THREADS=1 cargo test --test gradcheck_ops` (CI runs both).

use std::sync::{Mutex, MutexGuard, OnceLock};

use om_tensor::{gradcheck, init, runtime, seeded_rng, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// `runtime::set_threads` is process-global and the test harness runs tests
/// on parallel threads, so every test that flips the thread count holds
/// this lock for its whole body.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn param(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, &mut seeded_rng(seed)).requires_grad()
}

fn constant(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, &mut seeded_rng(seed))
}

/// Run one gradcheck serially and once on the default pool; the closure
/// must rebuild the graph from the parameter on every call.
fn check_both(name: &str, p: &Tensor, f: impl Fn(&Tensor) -> Tensor) {
    check_both_with(name, p, f, EPS, TOL);
}

fn check_both_with(name: &str, p: &Tensor, f: impl Fn(&Tensor) -> Tensor, eps: f32, tol: f32) {
    let _guard = thread_lock();
    for threads in [1usize, 0] {
        let prev = runtime::set_threads(threads);
        let r = gradcheck(p, &f, eps);
        runtime::set_threads(prev);
        assert!(
            r.passes(tol),
            "{name} failed gradcheck with set_threads({threads}): {r:?}"
        );
    }
}

// ---------------------------------------------------------------- elementwise

#[test]
fn gc_add() {
    for (shape, seed) in [(&[2usize, 3][..], 1), (&[7, 11][..], 2)] {
        let w = param(shape, seed);
        let other = constant(shape, seed + 100);
        check_both("add", &w, |w| w.add(&other).square().mean_all());
    }
}

#[test]
fn gc_sub() {
    for (shape, seed) in [(&[1usize, 1][..], 3), (&[5, 9][..], 4)] {
        let w = param(shape, seed);
        let other = constant(shape, seed + 100);
        check_both("sub", &w, |w| w.sub(&other).square().mean_all());
    }
}

#[test]
fn gc_mul() {
    for (shape, seed) in [(&[3usize, 2][..], 5), (&[13, 4][..], 6)] {
        let w = param(shape, seed);
        let other = constant(shape, seed + 100);
        check_both("mul", &w, |w| w.mul(&other).sum_all());
    }
}

#[test]
fn gc_scale_add_scalar_neg() {
    let w = param(&[4, 5], 7);
    check_both("scale", &w, |w| w.scale(-2.5).square().mean_all());
    check_both("add_scalar", &w, |w| w.add_scalar(1.5).square().mean_all());
    check_both("neg", &w, |w| w.neg().square().mean_all());
}

#[test]
fn gc_add_row() {
    // Both roles: the matrix and the broadcast row.
    let m = param(&[6, 5], 8);
    let row = constant(&[5], 108);
    check_both("add_row(matrix)", &m, |m| m.add_row(&row).square().mean_all());
    let r = param(&[5], 9);
    let mat = constant(&[6, 5], 109);
    check_both("add_row(row)", &r, |r| mat.add_row(r).square().mean_all());
}

#[test]
fn gc_mul_row() {
    let m = param(&[4, 7], 10);
    let row = constant(&[7], 110);
    check_both("mul_row(matrix)", &m, |m| m.mul_row(&row).square().mean_all());
    let r = param(&[7], 11);
    let mat = constant(&[4, 7], 111);
    check_both("mul_row(row)", &r, |r| mat.mul_row(r).square().mean_all());
}

#[test]
fn gc_relu() {
    // Keep every coordinate away from the kink at 0 so the central
    // difference stays on one side of it.
    let w = param(&[5, 6], 12);
    {
        let mut d = w.data_mut();
        for v in d.iter_mut() {
            if v.abs() < 3.0 * EPS {
                *v += 0.1;
            }
        }
    }
    check_both("relu", &w, |w| w.relu().square().mean_all());
}

#[test]
fn gc_sigmoid_tanh() {
    for (shape, seed) in [(&[2usize, 2][..], 13), (&[9, 5][..], 14)] {
        let w = param(shape, seed);
        check_both("sigmoid", &w, |w| w.sigmoid().square().mean_all());
        check_both("tanh_act", &w, |w| w.tanh_act().square().mean_all());
    }
}

#[test]
fn gc_exp_log_square() {
    let w = param(&[3, 8], 15);
    check_both("exp", &w, |w| w.exp().mean_all());
    check_both("square", &w, |w| w.square().mean_all());
    // log needs a positive domain.
    let pos = init::uniform(&[3, 8], 0.5, 1.5, &mut seeded_rng(16)).requires_grad();
    check_both("log", &pos, |w| w.log().mean_all());
}

// --------------------------------------------------------------- matmul

#[test]
fn gc_matmul_small() {
    let w = param(&[3, 4], 17);
    let x = constant(&[2, 3], 117);
    check_both("matmul", &w, |w| x.matmul(w).square().mean_all());
    // Left operand too.
    let a = param(&[2, 3], 18);
    let b = constant(&[3, 4], 118);
    check_both("matmul(left)", &a, |a| a.matmul(&b).square().mean_all());
}

#[test]
fn gc_matmul_above_parallel_threshold() {
    // m*n*k = 256 * 2 * 256 = 131072 ≥ GEMM_PAR_FLOPS, so with the pool
    // enabled this exercises the parallel blocked GEMM (forward and both
    // backward products). Inputs are kept small in magnitude (and the loss
    // is exactly quadratic in `w`, so a larger eps costs no truncation
    // error): at 256-deep f32 accumulations, finite-difference cancellation
    // noise is the limiting factor, not the kernel.
    let w = param(&[256, 2], 19);
    let x = init::uniform(&[256, 256], -0.2, 0.2, &mut seeded_rng(119));
    check_both_with("matmul(parallel)", &w, |w| x.matmul(w).square().mean_all(), 5e-2, TOL);
}

#[test]
fn gc_transpose() {
    let w = param(&[3, 5], 20);
    let m = constant(&[5, 3], 120);
    check_both("transpose", &w, |w| w.transpose().mul(&m).sum_all());
}

// --------------------------------------------------------------- reductions

#[test]
fn gc_reductions() {
    for (shape, seed) in [(&[1usize, 1][..], 21), (&[7, 13][..], 22)] {
        let w = param(shape, seed);
        check_both("sum_all", &w, |w| w.sum_all());
        check_both("mean_all", &w, |w| w.mean_all());
        check_both("sum_rows+mean_cols", &w, |w| {
            w.sum_rows().square().mean_all().add(&w.mean_cols().square().mean_all())
        });
        check_both("sum_cols+mean_rows", &w, |w| {
            w.sum_cols().square().mean_all().add(&w.mean_rows().square().mean_all())
        });
    }
}

#[test]
fn gc_sum_rows_above_parallel_threshold() {
    // 300 columns crosses the column-block grain of the parallel sum_rows.
    let w = param(&[3, 300], 23);
    check_both("sum_rows(parallel)", &w, |w| w.sum_rows().square().mean_all());
}

// --------------------------------------------------------------- softmax

#[test]
fn gc_softmax_family() {
    // The 33-row shape crosses the 8-row softmax fill grain, so the default
    // setting runs the parallel path; tolerance is slightly relaxed there
    // because the mean over 231 f32 squares limits finite-difference
    // resolution.
    for (rows, cols, seed, tol) in [(1usize, 4usize, 24, TOL), (33, 7, 25, 4e-2)] {
        let w = param(&[rows, cols], seed);
        let targets: Vec<usize> = (0..rows).map(|i| i % cols).collect();
        check_both_with(
            "log_softmax_rows",
            &w,
            |w| w.log_softmax_rows().square().mean_all(),
            EPS,
            tol,
        );
        check_both_with(
            "softmax_rows",
            &w,
            |w| w.softmax_rows().square().mean_all(),
            EPS,
            tol,
        );
        check_both("nll_gather", &w, |w| w.nll_gather(&targets));
        check_both_with("cross_entropy", &w, |w| w.cross_entropy(&targets), EPS, tol);
    }
}

// --------------------------------------------------------------- special

#[test]
fn gc_grad_scale_and_reversal() {
    // grad_scale and gradient_reversal deliberately decouple the gradient
    // from the value (identity forward), so finite differences cannot see
    // them; instead verify the backward against the unmodified gradient:
    // grad_scale(c) must yield c·g and gradient_reversal(λ) must yield -λ·g,
    // under both thread settings.
    let _guard = thread_lock();
    for threads in [1usize, 0] {
        let prev = runtime::set_threads(threads);
        let w = param(&[4, 4], 26);
        w.zero_grad();
        w.square().mean_all().backward();
        let base = w.grad_vec().unwrap();
        w.zero_grad();
        w.grad_scale(0.3).square().mean_all().backward();
        let scaled = w.grad_vec().unwrap();
        w.zero_grad();
        w.gradient_reversal(0.7).square().mean_all().backward();
        let reversed = w.grad_vec().unwrap();
        runtime::set_threads(prev);
        for i in 0..base.len() {
            assert!(
                (scaled[i] - 0.3 * base[i]).abs() < 1e-6,
                "grad_scale at {i} with set_threads({threads})"
            );
            assert!(
                (reversed[i] + 0.7 * base[i]).abs() < 1e-6,
                "gradient_reversal at {i} with set_threads({threads})"
            );
        }
    }
}

#[test]
fn gc_l2_normalize_rows() {
    for (shape, seed) in [(&[1usize, 4][..], 27), (&[9, 6][..], 28)] {
        let w = param(shape, seed);
        let m = constant(shape, seed + 100);
        check_both("l2_normalize_rows", &w, |w| {
            w.l2_normalize_rows().mul(&m).sum_all()
        });
    }
}

#[test]
fn gc_layer_norm_rows() {
    for (shape, seed) in [(&[2usize, 5][..], 29), (&[11, 8][..], 30)] {
        let w = param(shape, seed);
        let m = constant(shape, seed + 100);
        check_both("layer_norm_rows", &w, |w| {
            w.layer_norm_rows().mul(&m).sum_all()
        });
    }
}

// --------------------------------------------------------------- structural

#[test]
fn gc_reshape() {
    let w = param(&[3, 4], 31);
    let m = constant(&[2, 6], 131);
    check_both("reshape", &w, |w| w.reshape(&[2, 6]).mul(&m).sum_all());
}

#[test]
fn gc_concat_and_stack() {
    let w = param(&[3, 2], 32);
    let side = constant(&[3, 4], 132);
    check_both("concat_cols", &w, |w| {
        Tensor::concat_cols(&[w, &side]).square().mean_all()
    });
    let below = constant(&[2, 2], 133);
    check_both("concat_rows", &w, |w| {
        Tensor::concat_rows(&[w, &below]).square().mean_all()
    });
    let row = param(&[4], 33);
    let other_row = constant(&[4], 134);
    check_both("stack_rows", &row, |r| {
        Tensor::stack_rows(&[r, &other_row, r]).square().mean_all()
    });
}

#[test]
fn gc_embedding_lookup() {
    // Repeated indices exercise the scatter-add backward.
    for (vocab, d, idx, seed) in [
        (6usize, 3usize, vec![0usize, 2, 2, 5], 34u64),
        (80, 4, (0..70usize).map(|i| (i * 7) % 80).collect(), 35),
    ] {
        let table = param(&[vocab, d], seed);
        check_both("embedding_lookup", &table, |t| {
            t.embedding_lookup(&idx).square().mean_all()
        });
    }
}

#[test]
fn gc_unfold_windows() {
    // Overlapping windows make the backward accumulate; the larger shape
    // crosses the 16-row fill grain so the pool participates.
    for (b, l, d, k, seed) in [(1usize, 5usize, 3usize, 2usize, 36u64), (4, 9, 2, 3, 37)] {
        let w = param(&[b, l, d], seed);
        check_both("unfold_windows", &w, |w| {
            w.unfold_windows(k).square().mean_all()
        });
    }
}

#[test]
fn gc_max_over_time() {
    // Values are multiples of 0.05, distinct within every (batch, filter)
    // column, so an EPS nudge can never flip an argmax and the loss stays
    // differentiable at every probe point.
    for (b, t, f, seed) in [(1usize, 3usize, 2usize, 38u64), (6, 5, 4, 39)] {
        let w = param(&[b, t, f], seed);
        {
            let mut d = w.data_mut();
            for (i, v) in d.iter_mut().enumerate() {
                *v = ((i * 31) % 53) as f32 * 0.05;
            }
        }
        check_both("max_over_time", &w, |w| {
            w.max_over_time().square().mean_all()
        });
    }
}

/// Smallest distance, over every (document, branch, filter), from a kink
/// of the TextCNN tower: a window's pre-activation crossing 0, or the
/// winning window's lead over the runner-up. An EPS nudge of any one
/// input moves a pre-activation by at most EPS times the number of
/// positions one table row fills in a window (all inputs lie in [-1, 1]),
/// so a margin above `2·EPS` times that count keeps the loss smooth at
/// every probe point.
fn tower_kink_margin(table: &Tensor, ids: &[usize], len: usize, branches: &[(&Tensor, &Tensor)]) -> f32 {
    let (b, d) = (ids.len() / len, table.dims()[1]);
    let x = {
        let _off = om_tensor::no_grad();
        table.embedding_lookup(ids).reshape(&[b, len, d])
    };
    let mut margin = f32::INFINITY;
    for (w, bias) in branches {
        let (k, f) = (w.dims()[0] / d, bias.numel());
        let t = len - k + 1;
        let pre = {
            let _off = om_tensor::no_grad();
            x.unfold_windows(k).matmul(w).add_row(bias).to_vec()
        };
        for bi in 0..b {
            for fi in 0..f {
                let mut col: Vec<f32> = (0..t).map(|ti| pre[(bi * t + ti) * f + fi]).collect();
                margin = col.iter().fold(margin, |m, z| m.min(z.abs()));
                col.sort_by(|a, b| b.total_cmp(a));
                if t > 1 && col[0] > 0.0 {
                    margin = margin.min(col[0] - col[1].max(0.0));
                }
            }
        }
    }
    margin
}

#[test]
fn gc_text_cnn() {
    // The TextCNN tower, checked against the table and every weight and
    // bias. The first two shapes are the fused branch's cases carried over
    // (one branch over `[b, l, d]` as a `b·l`-row table with ids
    // `0..b·l`); the third has two branches and repeated ids, so a table
    // row's gradient sums several token rows.
    // (documents, len, d, widths, filters, ids, seed)
    let cases = [
        (1usize, 4usize, 2usize, vec![2usize], 3usize, (0..4).collect::<Vec<usize>>(), 43u64),
        (3, 7, 3, vec![3], 4, (0..21).collect(), 48),
        (2, 5, 2, vec![2, 3], 3, vec![1, 0, 3, 1, 2, 2, 3, 0, 3, 4], 62),
    ];
    for (b, l, d, widths, f, ids, seed) in cases {
        let vocab = ids.iter().max().unwrap() + 1;
        assert_eq!(ids.len(), b * l);
        let table = param(&[vocab, d], seed);
        let ws: Vec<Tensor> = widths.iter().enumerate().map(|(i, &k)| param(&[k * d, f], seed + 100 + i as u64)).collect();
        let bs: Vec<Tensor> = (0..widths.len()).map(|i| param(&[f], seed + 200 + i as u64)).collect();
        let branches: Vec<(&Tensor, &Tensor)> = ws.iter().zip(&bs).collect();
        // The most positions one id fills in any window of any branch.
        let uses = ids
            .chunks(l)
            .flat_map(|doc| widths.iter().flat_map(move |&k| doc.windows(k)))
            .flat_map(|win| win.iter().map(move |id| win.iter().filter(|&x| x == id).count()))
            .max()
            .unwrap();
        let margin = tower_kink_margin(&table, &ids, l, &branches);
        assert!(margin > 2.0 * EPS * uses as f32, "seed {seed}: kink margin {margin} too small for EPS {EPS}");
        check_both("text_cnn d table", &table, |t| Tensor::text_cnn(t, &ids, l, &branches).square().mean_all());
        for (i, w) in ws.iter().enumerate() {
            check_both(&format!("text_cnn d weight {i}"), w, |w| {
                let mut br = branches.clone();
                br[i].0 = w;
                Tensor::text_cnn(&table, &ids, l, &br).square().mean_all()
            });
        }
        for (i, bias) in bs.iter().enumerate() {
            check_both(&format!("text_cnn d bias {i}"), bias, |bias| {
                let mut br = branches.clone();
                br[i].1 = bias;
                Tensor::text_cnn(&table, &ids, l, &br).square().mean_all()
            });
        }
    }
}

#[test]
fn gc_select_rows() {
    // Row repetition exercises the scatter backward.
    let w = param(&[6, 4], 40);
    let rows = [0usize, 5, 2, 2, 1];
    check_both("select_rows", &w, |w| {
        w.select_rows(&rows).square().mean_all()
    });
}

// --------------------------------------------------------------- composition

#[test]
fn gc_textcnn_like_chain() {
    // unfold → matmul → add_row → relu-free smooth head: the exact lowering
    // TextCNN uses, as one chained graph.
    let w = param(&[6, 5], 41); // [k*d, f] with k=3, d=2, f=5
    let x = constant(&[2, 7, 2], 141);
    let bias = constant(&[5], 142);
    check_both("unfold+matmul+bias chain", &w, |w| {
        x.unfold_windows(3)
            .matmul(w)
            .add_row(&bias)
            .tanh_act()
            .reshape(&[2, 5, 5])
            .max_over_time()
            .square()
            .mean_all()
    });
}
