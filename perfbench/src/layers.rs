//! Per-layer timings made in-process around public calls, outside the
//! traced window: the paper's components recorded alone on the workload's
//! URG (forward = replay, backward = `backward`), the kernels under them on
//! the workload's shapes (operation counts computed from the shapes), and
//! the serving engine's batch scorer and updater.

use std::sync::Arc;
use std::time::Instant;

use cmsf::{CmsfConfig, FixedAssignment, Gscm, MagaStack, MsGate};
use rand::Rng;
use uvd_nn::{Activation, FusionAgg, Linear, Mlp};
use uvd_serve::{BatchScorer, Updater};
use uvd_tensor::conv::{conv2d_batch, ConvMeta};
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::plan::gated_matmul_into;
use uvd_tensor::{Adam, Graph, Matrix, MatrixStore, NodeId, ParamSet};
use uvd_urg::Urg;

use crate::report::{median, Metrics};
use crate::serve::{edits, TILE};

/// Median wall time of `f` in ms over `reps` calls, after one warm-up call.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// Forward (replay) and backward time of a recorded tape whose `loss` is
/// a scalar.
fn fwd_bwd_ms(g: &mut Graph, loss: NodeId, reps: usize) -> (f64, f64) {
    let fwd = time_ms(reps, || g.replay());
    let bwd = time_ms(reps, || g.backward(loss));
    (fwd, bwd)
}

fn sq_loss(g: &mut Graph, x: NodeId) -> NodeId {
    let sq = g.mul(x, x);
    g.sum_all(sq)
}

/// Component forward/backward times on `urg`, built with the model's own
/// constructors and widths, plus the rest of the master-stage tape (image
/// reduction, fusion, classifier, loss) and one optimizer step over all of
/// their parameters. Sets `cmsf.{maga,gscm,msgate}_{fwd,bwd}_ms` and
/// returns the master-epoch estimate they sum to.
pub fn components(m: &mut Metrics, urg: &Urg, cfg: &CmsfConfig, reps: usize) -> f64 {
    let mut rng = seeded_rng(0xC0_4E57);
    let n = urg.n;
    let d_img = if urg.has_image() { cfg.img_reduce } else { 0 };
    let maga = MagaStack::new(
        "bench.maga",
        urg.x_poi.cols(),
        d_img,
        cfg.hidden,
        cfg.n_heads,
        cfg.maga_layers,
        cfg.modal_agg,
        cfg.use_maga_cross,
        &mut rng,
    );
    let d_rep = maga.out_dim();
    let gscm = Gscm::new("bench.gscm", d_rep, cfg.k_clusters, cfg.tau, &mut rng);
    let fuse = FusionAgg::new("bench.gfuse", cfg.global_agg, d_rep, &mut rng);
    let d_final = fuse.out_dim(d_rep);
    let clf = Mlp::new(
        "bench.clf",
        &[d_final, cfg.hidden, 1],
        Activation::Tanh,
        &mut rng,
    );
    let gate = MsGate::new(
        "bench.gate",
        d_rep,
        cfg.k_clusters,
        cfg.hidden,
        &clf,
        &mut rng,
    );
    let img_reduce = urg
        .has_image()
        .then(|| Linear::new("bench.img", urg.x_img.cols(), cfg.img_reduce, &mut rng));
    let mut params = ParamSet::new();
    maga.collect_params(&mut params);
    gscm.collect_params(&mut params);
    fuse.collect_params(&mut params);
    clf.collect_params(&mut params);
    if let Some(l) = &img_reduce {
        l.collect_params(&mut params);
    }

    // MAGA over the URG's edges.
    let mut g = Graph::new();
    let xp = g.constant(urg.x_poi.clone());
    let xi = (d_img > 0).then(|| g.constant(normal_matrix(n, d_img, 0.0, 0.5, &mut rng)));
    let out = maga.forward(&mut g, xp, xi, &urg.edges);
    let loss = sq_loss(&mut g, out);
    let (maga_fwd, maga_bwd) = fwd_bwd_ms(&mut g, loss, reps);

    // GSCM from a differentiable x̃.
    let mut g = Graph::new();
    let xt = g.variable(normal_matrix(n, d_rep, 0.0, 0.5, &mut rng));
    let out = gscm.forward(&mut g, xt, None);
    let loss = sq_loss(&mut g, out.x_global);
    let (gscm_fwd, gscm_bwd) = fwd_bwd_ms(&mut g, loss, reps);

    // MS-Gate over a frozen assignment, as in the slave stage.
    let k = cfg.k_clusters;
    let mut b_soft = Matrix::filled(n, k, 0.4 / k as f32);
    let mut b_hard_t = Matrix::zeros(k, n);
    let cluster_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
    for (i, &c) in cluster_of.iter().enumerate() {
        b_soft.set(i, c as usize, 0.6);
        b_hard_t.set(c as usize, i, 1.0);
    }
    let fixed = FixedAssignment {
        b_soft,
        b_hard_t,
        pseudo: (0..k).map(|j| if j % 4 == 0 { 1.0 } else { 0.0 }).collect(),
        cluster_of,
    };
    let mut g = Graph::new();
    let h = g.variable(normal_matrix(k, d_rep, 0.0, 0.5, &mut rng));
    let x = g.variable(normal_matrix(n, d_final, 0.0, 0.5, &mut rng));
    let probs = gate.inclusion_probs(&mut g, h);
    let q = gate.context(&mut g, &fixed, probs);
    let f = gate.filter(&mut g, q);
    let logits = gate.gated_forward(&mut g, &clf, x, f);
    let loss = sq_loss(&mut g, logits);
    let (gate_fwd, gate_bwd) = fwd_bwd_ms(&mut g, loss, reps);

    // The rest of the master tape: image reduction, fusion, classifier,
    // labeled-row gather and BCE, then the optimizer step.
    let mut g = Graph::new();
    let xt = g.variable(normal_matrix(n, d_rep, 0.0, 0.5, &mut rng));
    let xg = g.variable(normal_matrix(n, d_rep, 0.0, 0.5, &mut rng));
    let img_loss = img_reduce.as_ref().map(|l| {
        let raw = g.constant(urg.x_img.clone());
        let red = l.forward(&mut g, raw);
        let red = g.tanh(red);
        sq_loss(&mut g, red)
    });
    let xf = fuse.forward(&mut g, xt, xg);
    let logits = clf.forward(&mut g, xf);
    let rows: Arc<Vec<u32>> = Arc::new(urg.labeled.clone());
    let picked = g.gather_rows(logits, rows);
    let loss = g.bce_with_logits(
        picked,
        Arc::new(urg.y.clone()),
        Arc::new(vec![1.0; urg.labeled.len()]),
    );
    let loss = match img_loss {
        Some(l) => g.add(loss, l),
        None => loss,
    };
    let (head_fwd, head_bwd) = fwd_bwd_ms(&mut g, loss, reps);
    g.write_grads();
    let mut opt = Adam::new(cfg.lr);
    let step = time_ms(reps, || {
        params.clip_grad_norm(cfg.grad_clip);
        opt.step(&params);
    });

    m.set("cmsf.maga_fwd_ms", maga_fwd, "ms");
    m.set("cmsf.maga_bwd_ms", maga_bwd, "ms");
    m.set("cmsf.gscm_fwd_ms", gscm_fwd, "ms");
    m.set("cmsf.gscm_bwd_ms", gscm_bwd, "ms");
    m.set("cmsf.msgate_fwd_ms", gate_fwd, "ms");
    m.set("cmsf.msgate_bwd_ms", gate_bwd, "ms");
    m.set("cmsf.head_ms", head_fwd + head_bwd + step, "ms");
    maga_fwd + maga_bwd + gscm_fwd + gscm_bwd + head_fwd + head_bwd + step
}

/// Kernel rates on the workload's shapes: the image-reduction GEMM and the
/// attention-width SpMM over the URG, the MS-Gate gated matmul (classifier
/// input width `d_final`) at `gated_rows` rows, and the first VGG-sim
/// convolution on a batch of 64 region images. GF/s from operation counts computed from the shapes.
pub fn kernels(
    m: &mut Metrics,
    urg: &Urg,
    cfg: &CmsfConfig,
    d_final: usize,
    gated_rows: usize,
    reps: usize,
) {
    let mut rng = seeded_rng(0x4E2_7E1);
    let n = urg.n;
    let gf = |flops: f64, ms: f64| flops / (ms.max(1e-6) * 1e6);

    let k = urg.x_img.cols().max(1);
    let a = if urg.has_image() {
        urg.x_img.clone()
    } else {
        normal_matrix(n, k, 0.0, 1.0, &mut rng)
    };
    let b = normal_matrix(k, cfg.img_reduce, 0.0, 0.1, &mut rng);
    let ms = time_ms(reps, || {
        std::hint::black_box(a.matmul(&b));
    });
    m.set(
        "tensor.gemm_gflops",
        gf(2.0 * (n * k * cfg.img_reduce) as f64, ms),
        "GF/s",
    );

    let width = cfg.hidden * cfg.n_heads;
    let x = normal_matrix(n, width, 0.0, 1.0, &mut rng);
    let adj = &urg.adj_norm.fwd;
    let ms = time_ms(reps, || {
        std::hint::black_box(adj.spmm(&x));
    });
    m.set(
        "tensor.spmm_gflops",
        gf(2.0 * (adj.nnz() * width) as f64, ms),
        "GF/s",
    );

    let (d, h) = (d_final, cfg.hidden);
    let xm = normal_matrix(gated_rows, d, 0.0, 1.0, &mut rng);
    let wm = normal_matrix(d, h, 0.0, 0.3, &mut rng);
    let fm = normal_matrix(gated_rows, d * h, 0.5, 0.2, &mut rng);
    let mut out = vec![0.0f32; gated_rows * h];
    let ms = time_ms(reps, || gated_matmul_into(&xm, &wm, &fm, &mut out));
    m.set(
        "tensor.gated_gflops",
        gf(3.0 * (gated_rows * d * h) as f64, ms),
        "GF/s",
    );

    let meta = ConvMeta {
        c_in: 3,
        h_in: 32,
        w_in: 32,
        c_out: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let batch = 64;
    let xs = normal_matrix(batch, meta.in_len(), 0.0, 1.0, &mut rng);
    let (kr, kc) = meta.kernel_shape();
    let kernel = normal_matrix(kr, kc, 0.0, 0.2, &mut rng);
    let ms = time_ms(reps, || {
        std::hint::black_box(conv2d_batch(&xs, &kernel, &meta));
    });
    let flops = 2.0 * (batch * meta.h_out() * meta.w_out() * kr * kc) as f64;
    m.set("tensor.conv_gflops", gf(flops, ms), "GF/s");
}

/// The serving engine in-process: one worker's `BatchScorer::score_chunk`
/// on a full tile of ids, and the updater's `update_poi` (k-hop re-embed,
/// head replay) with its re-embedded and subgraph row counts. Returns the
/// classifier input width `d_final` of the checkpoint.
pub fn serve_engine(
    m: &mut Metrics,
    urg: &Urg,
    cfg: CmsfConfig,
    store: &MatrixStore,
    seed: u64,
) -> usize {
    let Ok(mut updater) = Updater::new(urg.clone(), cfg, store) else {
        return 0;
    };
    let caches = updater.caches();
    let d_final = caches.x_final.cols();
    let gated = caches.filter.is_some();
    let Ok(mut scorer) = BatchScorer::new(urg, cfg, store, TILE * TILE, d_final, gated) else {
        return d_final;
    };
    let mut rng = seeded_rng(seed ^ 0x00E1_614E);
    let ids: Vec<u32> = (0..TILE * TILE)
        .map(|_| rng.gen_range(0..urg.n as u32))
        .collect();
    let mut out = Vec::with_capacity(ids.len());
    let us = 1e3
        * time_ms(200, || {
            out.clear();
            scorer.score_chunk(&caches, &ids, &mut out);
        });
    m.set("serve.score_chunk_us", us, "us");

    let mut times = Vec::new();
    let mut reembed = Vec::new();
    let mut subgraph = Vec::new();
    for e in edits(urg, &mut rng, 9) {
        let t = Instant::now();
        if let Ok(o) = updater.update_poi(e.region as u64, &e.poi) {
            times.push(t.elapsed().as_secs_f64() * 1e3);
            reembed.push(o.reembedded as f64);
            subgraph.push(o.subgraph as f64);
        }
    }
    m.set("serve.update_poi_ms", median(&times), "ms");
    m.set("serve.reembed_rows", median(&reembed), "count");
    m.set("serve.subgraph_rows", median(&subgraph), "count");
    d_final
}
