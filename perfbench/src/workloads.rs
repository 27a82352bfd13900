//! The three workloads. Each makes its inputs from the seed, times the
//! calls into each layer from outside, checks the outputs, and fills the
//! end-to-end metrics (and, in a traced run, the per-layer ones).
//!
//! * `paper-fold` — the paper protocol on the beijing-like preset: dense
//!   build, full-batch master stage and freeze, slave stage, full-city
//!   predict on one held-out block fold; then a short serving pass over the
//!   trained model.
//! * `city-stream` — a 22,500-region scale city streamed tile by tile and
//!   trained on neighbor-sampled mini-batches; then a short serving pass
//!   over the trained model.
//! * `serve-mix` — a resident server over a shenzhen-like checkpoint and
//!   embedding store: open-loop scores with a share of `tasks` ops at the
//!   nominal rate, then up the rate ladder, under `update_poi` writes. Its
//!   set-up is the checkpoint's own pipeline, which gives its pipeline
//!   figures.

use std::path::PathBuf;
use std::time::Instant;

use cmsf::{embedding_key, Cmsf, CmsfConfig};
use uvd_citysim::{City, CityPreset, CityStream};
use uvd_tasks::{
    accessibility_targets, AccessibilityHead, EmbeddingStore, LandUseHead, TaskHeadConfig,
};
use uvd_tensor::MatrixStore;
use uvd_urg::Urg;

use crate::layers;
use crate::pipeline::{self, Round, Source, Spec, Times};
use crate::report::{mean, median, percentile, Kind, Metrics, Ops};
use crate::serve::{self, Fixture, Plan};
use crate::trace::{Trace, Tracer};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trace_path: PathBuf,
    pub ops: Ops,
    pub m: Metrics,
    pub tracer: Tracer,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Ctx {
    fn start_trace(&mut self) {
        let ok = self.tracer.start(self.trace_path.clone()).is_ok();
        self.ops.check(ok, "trace sink opens inside the checkout");
    }

    /// Close the traced window and read back what it recorded.
    fn stop_trace(&mut self) -> Option<Trace> {
        let trace = self.tracer.stop();
        if let Err(e) = &trace {
            self.ops.check(false, &format!("trace file parses: {e}"));
        }
        trace.ok()
    }
}

/// Set-up repetitions whose median is `setup_s`, made in batches of this
/// many: one batch before the first timed operation and one more before
/// each pipeline round, so that they span the run. A city or stream
/// skeleton takes 15–45 ms, and the reference host switches between two
/// speeds (about 1.5× apart) every fraction of a second to every few
/// minutes: a single batch at the start lands in one speed.
const SETUP_BATCH: usize = 11;
/// Full-city predictions after the first, per round and again after the
/// serving pass, whose pooled median is `predict_regions_per_s`: one call
/// takes 40–70 ms on paper-fold and 150–200 ms on city-stream, and single
/// calls vary by ±20% from one to the next, so each workload times 2–4 s
/// of them, at three or four points in the run.
const PAPER_PREDICT_REPS: usize = 12;
const STREAM_PREDICT_REPS: usize = 6;
/// Full-city predictions after the first per serve-mix checkpoint
/// preparation (five preparations).
const SERVE_PREDICT_REPS: usize = 5;
/// Dense builds after the first, per round.
const BUILD_REPS: usize = 2;
/// Checkpoint preparations of serve-mix whose median is `setup_s`.
const SERVE_SETUP_REPS: usize = 5;
/// Rows per streamed tile of the scale city.
const TILE_ROWS: usize = 16;
/// Scale-city side: 150 × 150 = 22,500 regions.
const SCALE_SIDE: usize = 150;
/// Seconds of run per pipeline round: the round count is
/// `max(1, seconds / this)`, fixed by the run length alone (two rounds
/// each at 20 s).
const PAPER_ROUND_S: f64 = 10.0;
const STREAM_ROUND_S: f64 = 10.0;
/// Share of the run length the pipeline workloads spend serving.
const SHORT_SERVE_SHARE: f64 = 0.25;
/// `update_poi` per second on serve-mix, whose edits take 35–45 ms: about
/// a quarter of the one CPU.
const MIX_WRITE_RPS: f64 = 6.0;
/// Floor of the AUC over every labeled region: a working CMSF fits the
/// survey labels it trains on (0.88 or more over the development seeds), a
/// model that learned nothing sits near 0.5. The held-out fold's AUC is
/// reported but carries no floor: on these cities it ranged from below
/// chance to 0.92 between seeds (see the README).
const AUC_FLOOR: f64 = 0.7;
/// Share of a pipeline's wall time the program's own stage spans
/// (`urg.build`/`urg.shard.build`, `cmsf.master`, `cmsf.slave`,
/// `cmsf.predict`) must cover in the traced run.
const STAGE_SHARE_MIN: f64 = 0.95;
/// Accepted ratio of (components + head + optimizer step), each timed
/// alone, to the traced full-batch master epoch.
const COMPONENT_RATIO: (f64, f64) = (0.7, 1.3);
/// The reconciliation pairs each component timing with a short traced
/// master stage of this many epochs run just before it, and takes the
/// median ratio over this many pairs. The reference host switches between
/// two speeds about 1.5× apart, so an epoch timed seconds away from the
/// components (the measured window's own epochs) read 0.80–1.32 of them.
const RECONCILE_EPOCHS: usize = 6;
const RECONCILE_PAIRS: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one batch of set-ups into `times`; returns the last result.
fn setup_batch<T>(times: &mut Vec<f64>, make: &mut impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        last = Some(make());
        times.push(secs(t));
    }
    last.expect("a batch makes at least one set-up")
}

fn setup_metrics(ctx: &mut Ctx, times: &[f64]) {
    ctx.m.set("setup_s", median(times), "s");
    ctx.m.set("citysim.city_ms", 1e3 * median(times), "ms");
}

/// Set the pipeline metrics from the medians over `rounds`; the training
/// rate pools every round (all epochs over all training time), since one
/// round trains for only a second or two. `more_predicts` are full-city
/// predictions timed outside the rounds, pooled with theirs.
fn pipeline_metrics(ctx: &mut Ctx, rounds: &[Times], cfg: &CmsfConfig, more_predicts: &[f64]) {
    let epochs = (cfg.master_epochs + cfg.slave_epochs) as f64;
    let pick =
        |f: &dyn Fn(&Times) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<_>>()) };
    let n = rounds.first().map_or(0, |r| r.n_regions) as f64;
    let predicts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.repeat_predict_s.iter().copied())
        .chain(more_predicts.iter().copied())
        .collect();
    let builds: Vec<f64> = rounds
        .iter()
        .flat_map(|r| std::iter::once(r.build_s).chain(r.repeat_build_s.iter().copied()))
        .collect();
    let auc = pick(&|r| r.auc.labeled);
    let held_out_auc = pick(&|r| r.auc.held_out);
    let m = &mut ctx.m;
    m.set("pipeline_s", pick(&|r| r.pipeline_s), "s");
    let train_s: f64 = rounds.iter().map(|r| r.master_s + r.slave_s).sum();
    m.set(
        "train_epochs_per_s",
        epochs * rounds.len() as f64 / train_s,
        "1/s",
    );
    m.set("build_regions_per_s", n / median(&builds), "1/s");
    m.set("predict_regions_per_s", n / median(&predicts), "1/s");
    m.set("auc", auc, "ratio");
    m.set("cmsf.heldout_auc", held_out_auc, "ratio");
    m.set("cmsf.predict_ms", 1e3 * median(&predicts), "ms");
    m.set("urg.build_ms", 1e3 * median(&builds), "ms");
    m.set("urg.build_peak_mb", pick(&|r| r.build_peak_mb), "MB");
    ctx.ops.check(
        auc >= AUC_FLOOR,
        &format!("labeled-region AUC {auc:.4} >= floor {AUC_FLOOR}"),
    );
    ctx.notes.push(format!(
        "pipeline rounds={} regions={n} build={:.3}s master={:.3}s slave={:.3}s \
         predict={:.4}s pipeline={:.3}s auc={auc:.4} held_out_auc={held_out_auc:.4}",
        rounds.len(),
        pick(&|r| r.build_s),
        pick(&|r| r.master_s),
        pick(&|r| r.slave_s),
        pick(&|r| r.predict_s),
        pick(&|r| r.pipeline_s),
    ));
}

/// `n` pipeline rounds on the same split; every one must reproduce the
/// first round's scores bitwise. Calls `before_round` before each round.
/// Returns the last round and every round's timings.
fn pipeline_phase(
    ctx: &mut Ctx,
    spec: Spec,
    n: usize,
    before_round: &mut dyn FnMut(),
) -> (Option<Round>, Vec<Times>) {
    let mut times = Vec::with_capacity(n);
    let mut first: Option<Vec<f32>> = None;
    let mut last = None;
    for _ in 0..n {
        before_round();
        let Some(r) = pipeline::round(&mut ctx.ops, &mut ctx.tracer, &spec) else {
            return (None, times);
        };
        match &first {
            None => first = Some(r.probs.clone()),
            Some(p) => ctx.ops.check(
                *p == r.probs,
                "every round reproduces the first round's scores bitwise",
            ),
        }
        times.push(r.t.clone());
        last = Some(r);
    }
    (last, times)
}

/// The closing predictions of a pipeline workload, after its serving pass:
/// the last round's model again on its URG, checked against its scores.
fn closing_predicts(ctx: &mut Ctx, last: &Round, reps: usize) -> Vec<f64> {
    pipeline::repeat_predicts(
        &mut ctx.ops,
        &mut ctx.tracer,
        &last.model,
        &last.urg,
        Some(&last.probs),
        reps,
    )
}

/// Export the model's frozen embeddings and train both task heads on
/// them, all captured into one store (the `tasks` op's input).
fn task_store(model: &Cmsf, urg: &Urg, city: &City, head_cfg: &TaskHeadConfig) -> EmbeddingStore {
    let mut store = EmbeddingStore::new();
    model.export_embeddings(urg, &city.name, &mut store);
    let key = embedding_key(&city.name);
    let emb = store.get(&key).expect("embedding just exported").clone();
    let meta = store.meta(&key).expect("embedding just exported").clone();
    let idx: Vec<usize> = (0..urg.n).filter(|i| i % 4 != 0).collect();
    let mut lu = LandUseHead::new(emb.cols(), head_cfg);
    lu.fit(&emb, &uvd_citysim::land_use_classes(city), &idx, head_cfg);
    let mut ac = AccessibilityHead::new(emb.cols(), head_cfg);
    ac.fit(&emb, &accessibility_targets(city), &idx, head_cfg);
    lu.capture(&mut store, &meta);
    ac.capture(&mut store, &meta);
    store
}

/// The short serving pass of the pipeline workloads, `0.25 × seconds`
/// long: reads alone (`score_p50_ms`, 2,000 scores at 20 s). No writes, no
/// ladder and no `tasks` ops: serve-mix measures those. Writes were left
/// out because their latency here was not steady: these edits re-publish
/// bigger caches than serve-mix's (50–220 ms on beijing-like, 60–130 ms on
/// the streamed city, varying with the edited region's closure), and the
/// median of a few dozen of them spread 0.40–0.48 over five seeds.
fn short_plan(seconds: f64) -> Plan {
    Plan {
        read_s: SHORT_SERVE_SHARE * seconds,
        write_s: 0.0,
        write_rps: 0.0,
        ladder: vec![],
        rung_s: 0.0,
        tasks_every: 0,
    }
}

/// Start a server on `fx`, serve `plan`, set the serving metrics.
fn serve_phase(ctx: &mut Ctx, fx: &Fixture, plan: &Plan) {
    let op = ctx.tracer.next_op();
    let started = {
        let _s = ctx.tracer.span("bench.serve_start", op);
        serve::start(fx)
    };
    match started {
        Ok((server, start_s)) => {
            let out = serve::run(&mut ctx.ops, &mut ctx.tracer, fx, &server, plan, ctx.seed);
            server.shutdown();
            record_serving(ctx, &out, start_s);
        }
        Err(e) => ctx
            .ops
            .check(false, &format!("server starts and answers health: {e}")),
    }
}

fn record_serving(ctx: &mut Ctx, out: &serve::Outcome, start_s: f64) {
    let m = &mut ctx.m;
    m.set("score_p50_ms", median(&out.score_lat_ms), "ms");
    m.set(
        "serve.score_p99_ms",
        percentile(&out.score_lat_ms, 99.0),
        "ms",
    );
    m.set("serve.max_rps", out.max_rps, "1/s");
    if !out.update_lat_ms.is_empty() {
        m.set("serve.update_p50_ms", median(&out.update_lat_ms), "ms");
    }
    m.set("serve.start_ms", start_s * 1e3, "ms");
    m.set("serve.gen_late_ms", percentile(&out.late_ms, 99.0), "ms");
    m.set("tasks.op_p50_ms", median(&out.tasks_lat_ms), "ms");
    let rungs: Vec<String> = out
        .rungs
        .iter()
        .map(|(rate, p99, growth, pass)| {
            format!(
                "{rate:.0}:{p99:.2}/{growth:+.2}{}",
                if *pass { "" } else { "!" }
            )
        })
        .collect();
    ctx.notes.push(format!(
        "serve scores={} p50={:.3}ms p99={:.3}ms tasks={} updates={} update_p50={:.2}ms \
         late_p99={:.3}ms max_rps={}",
        out.score_lat_ms.len(),
        median(&out.score_lat_ms),
        percentile(&out.score_lat_ms, 99.0),
        out.tasks_lat_ms.len(),
        out.update_lat_ms.len(),
        median(&out.update_lat_ms),
        percentile(&out.late_ms, 99.0),
        out.max_rps
    ));
    ctx.notes.push(format!(
        "ladder rps:p99ms/lateness-growth-ms {}",
        rungs.join(" ")
    ));
    ctx.notes.push(format!("stats {}", out.stats));
}

/// Per-layer figures read from the traced window.
fn layers_from_trace(ctx: &mut Ctx, trace: &Trace) {
    let m = &mut ctx.m;
    let builds: Vec<_> = trace.named("bench.build").collect();
    let per_build = |name: &str| -> f64 {
        let v: Vec<f64> = builds
            .iter()
            .map(|b| trace.within(name, b).map(|s| s.ms()).sum::<f64>())
            .collect();
        median(&v)
    };
    m.set("urg.features_ms", per_build("urg.features"), "ms");
    m.set("urg.edges_ms", per_build("urg.edges"), "ms");
    m.set("urg.csr_ms", per_build("urg.csr"), "ms");
    m.set("urg.shard_build_ms", per_build("urg.shard.build"), "ms");

    let replay_epochs = |name: &str| -> Vec<f64> {
        trace
            .named(name)
            .filter(|s| s.field("epoch").unwrap_or(0.0) >= 1.0)
            .map(|s| s.ms())
            .collect()
    };
    m.set(
        "cmsf.master_epoch_ms",
        median(&replay_epochs("cmsf.master.epoch")),
        "ms",
    );
    m.set(
        "cmsf.slave_epoch_ms",
        median(&replay_epochs("cmsf.slave.epoch")),
        "ms",
    );
    // The recording epoch: the master stage minus its freeze and its
    // replayed epochs (tape recording plus the first step).
    let record: Vec<f64> = trace
        .named("cmsf.master")
        .map(|st| {
            let freeze: f64 = trace.within("cmsf.freeze", st).map(|s| s.ms()).sum();
            let replays: f64 = trace
                .within("cmsf.master.epoch", st)
                .filter(|s| s.field("epoch").unwrap_or(0.0) >= 1.0)
                .map(|s| s.ms())
                .sum();
            st.ms() - freeze - replays
        })
        .collect();
    m.set("cmsf.record_epoch_ms", median(&record), "ms");
    m.set(
        "cmsf.freeze_ms",
        median(&trace.durations_ms("cmsf.freeze")),
        "ms",
    );
    m.set(
        "cmsf.sample_ms",
        median(&trace.durations_ms("cmsf.sample")),
        "ms",
    );
    let rounds = trace.named("bench.pipeline").count().max(1) as f64;
    let per_round = |c: &str| trace.counter(c) as f64 / rounds;
    m.set(
        "cmsf.prefetch_wait_ms",
        per_round("batch.prefetch.wait_ms"),
        "ms",
    );
    m.set(
        "cmsf.prefetch_hits",
        per_round("batch.prefetch.hit"),
        "count",
    );
    m.set(
        "cmsf.prefetch_misses",
        per_round("batch.prefetch.miss"),
        "count",
    );
    let total = |c: &str| trace.counter(c) as f64;
    m.set(
        "tensor.dispatch_parallel",
        total("par.dispatch.parallel"),
        "count",
    );
    m.set(
        "tensor.dispatch_serial",
        total("par.dispatch.serial"),
        "count",
    );
    m.set("tensor.pack_repack", total("gemm.pack_repack"), "count");
    m.set("tensor.replays", total("tensor.replay.count"), "count");

    let batches: Vec<_> = trace.named("serve.batch").collect();
    let batch_ms: Vec<f64> = batches.iter().map(|s| s.ms()).collect();
    let rows: Vec<f64> = batches.iter().filter_map(|s| s.field("rows")).collect();
    m.set("serve.batch_ms", median(&batch_ms), "ms");
    m.set("serve.batch_fill_rows", mean(&rows), "count");
    let depth = batches
        .iter()
        .filter_map(|s| s.field("queue"))
        .fold(0.0, f64::max);
    m.set("serve.queue_depth_max", depth, "count");

    // Self times: a span's duration minus its children on the same thread.
    let self_of = |names: &[&str]| -> f64 {
        let v: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .map(|s| s.self_ms())
            .collect();
        median(&v)
    };
    m.set("self.pipeline_glue_ms", self_of(&["bench.pipeline"]), "ms");
    m.set(
        "self.urg_build_ms",
        self_of(&["urg.build", "urg.shard.build"]),
        "ms",
    );
    m.set("self.cmsf_master_ms", self_of(&["cmsf.master"]), "ms");
    m.set("self.cmsf_slave_ms", self_of(&["cmsf.slave"]), "ms");
    for (name, (count, total, own)) in trace.self_times() {
        ctx.notes.push(format!(
            "span {name:20} n={count:6} total={total:11.2}ms self={own:11.2}ms"
        ));
    }

    // Reconciliation: the program's stage spans cover each traced
    // pipeline's wall time.
    let stages = [
        "urg.build",
        "urg.shard.build",
        "cmsf.master",
        "cmsf.slave",
        "cmsf.predict",
    ];
    let shares: Vec<f64> = trace
        .named("bench.pipeline")
        .map(|p| {
            let covered: f64 = stages
                .iter()
                .map(|n| trace.within(n, p).map(|s| s.ms()).sum::<f64>())
                .sum();
            covered / p.ms()
        })
        .collect();
    if !shares.is_empty() {
        let share = median(&shares);
        ctx.m.set("reconcile.stage_share", share, "ratio");
        ctx.ops.check(
            shares.iter().all(|&s| (STAGE_SHARE_MIN..=1.001).contains(&s)),
            &format!(
                "stage spans cover {shares:.4?} of pipeline wall time (accepted: >= {STAGE_SHARE_MIN})"
            ),
        );
    }
}

/// The traced run's closing part: close the window, read the per-layer
/// figures, report the tracing overhead on the workload's headline metric,
/// then time the layers in-process with tracing off and reconcile.
fn finish_traced(
    ctx: &mut Ctx,
    fx: &Fixture,
    gated_rows: usize,
    headline: &str,
    untraced: f64,
    reconcile_components: bool,
) {
    let Some(trace) = ctx.stop_trace() else {
        return;
    };
    layers_from_trace(ctx, &trace);
    let traced = ctx.m.get(headline).unwrap_or(0.0);
    ctx.m
        .set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%");
    ctx.notes.push(format!(
        "tracing overhead on {headline}: {untraced:.4} untraced, {traced:.4} traced"
    ));

    if reconcile_components {
        let mut pairs = Vec::with_capacity(RECONCILE_PAIRS);
        for _ in 0..RECONCILE_PAIRS {
            let epoch = short_master_epoch_ms(ctx, fx);
            let estimate = layers::components(&mut ctx.m, fx.urg, &fx.cfg, 5);
            pairs.push((estimate, epoch, estimate / epoch));
        }
        let ratio = median(&pairs.iter().map(|p| p.2).collect::<Vec<_>>());
        ctx.m.set("reconcile.component_ratio", ratio, "ratio");
        ctx.ops.check(
            (COMPONENT_RATIO.0..=COMPONENT_RATIO.1).contains(&ratio),
            &format!(
                "components + head + step against the master epoch next to them, \
                 (ms, ms, ratio) {pairs:.3?}: median ratio {ratio:.3} (accepted {COMPONENT_RATIO:?})"
            ),
        );
    } else {
        layers::components(&mut ctx.m, fx.urg, &fx.cfg, 5);
    }
    let d_final = layers::serve_engine(&mut ctx.m, fx.urg, fx.cfg, fx.store, ctx.seed);
    layers::kernels(&mut ctx.m, fx.urg, &fx.cfg, d_final, gated_rows, 20);
}

/// Median replayed epoch, ms, of a short master stage on `fx`'s URG, read
/// from a trace window of its own: the reference a component timing made
/// right after it is reconciled against.
fn short_master_epoch_ms(ctx: &mut Ctx, fx: &Fixture) -> f64 {
    let cfg = CmsfConfig {
        master_epochs: RECONCILE_EPOCHS,
        ..fx.cfg
    };
    let train = pipeline::training_split(fx.urg, ctx.seed);
    let mut model = Cmsf::new(fx.urg, cfg);
    ctx.start_trace();
    let ok = matches!(
        pipeline::guarded(|| model.train_master(fx.urg, &train)),
        Some(Ok(_))
    );
    ctx.ops.record(Kind::Master, ok);
    let Some(trace) = ctx.stop_trace() else {
        return 0.0;
    };
    let epochs: Vec<f64> = trace
        .named("cmsf.master.epoch")
        .filter(|s| s.field("epoch").unwrap_or(0.0) >= 1.0)
        .map(|s| s.ms())
        .collect();
    median(&epochs)
}

/// Round count of a pipeline workload: fixed by the run length alone.
fn rounds_for(seconds: f64, round_s: f64) -> usize {
    ((seconds / round_s) as usize).max(1)
}

/// In the traced run: one untraced round for the overhead reference, then
/// the trace window opens. Returns the reference `pipeline_s`.
fn traced_reference(ctx: &mut Ctx, spec: Spec) -> f64 {
    let r = pipeline::round(&mut ctx.ops, &mut ctx.tracer, &spec);
    ctx.start_trace();
    r.map_or(0.0, |r| r.t.pipeline_s)
}

pub fn paper_fold(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let mut make = || City::from_config(CityPreset::BeijingLike.config(), seed);
    let mut setups = Vec::new();
    let city = setup_batch(&mut setups, &mut make);
    let cfg = CmsfConfig::for_city(&city.name);
    let spec = Spec {
        source: Source::Dense(&city),
        cfg,
        split_seed: seed,
        build_reps: BUILD_REPS,
        predict_reps: PAPER_PREDICT_REPS,
    };
    let untraced = if ctx.traced {
        traced_reference(ctx, spec)
    } else {
        0.0
    };
    let rounds = rounds_for(ctx.seconds, PAPER_ROUND_S);
    let (last, times) = pipeline_phase(ctx, spec, rounds, &mut || {
        setup_batch(&mut setups, &mut make);
    });
    setup_metrics(ctx, &setups);
    let Some(last) = last else {
        return;
    };
    let store = last.model.to_store();
    let fx = Fixture {
        urg: &last.urg,
        cfg,
        store: &store,
        embeddings: None,
        head_cfg: TaskHeadConfig::default(),
    };
    serve_phase(ctx, &fx, &short_plan(ctx.seconds));
    let closing = closing_predicts(ctx, &last, PAPER_PREDICT_REPS);
    pipeline_metrics(ctx, &times, &cfg, &closing);
    if ctx.traced {
        finish_traced(ctx, &fx, last.urg.n, "pipeline_s", untraced, true);
    }
}

/// The model configuration of the streamed city: the compact widths of
/// the scaling harness (one MAGA layer, one head), trained on
/// neighbor-sampled mini-batches with the default prefetch.
fn stream_cfg() -> CmsfConfig {
    CmsfConfig {
        batch_size: 128,
        sample_fanout: 6,
        master_epochs: 12,
        slave_epochs: 4,
        ..CmsfConfig::fast_test()
    }
}

pub fn city_stream(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let city_cfg = uvd_bench::scale_city(SCALE_SIDE);
    let mut make = || CityStream::new(city_cfg.clone(), seed, TILE_ROWS);
    let mut setups = Vec::new();
    setup_batch(&mut setups, &mut make);
    let cfg = stream_cfg();
    let spec = Spec {
        source: Source::Stream {
            cfg: &city_cfg,
            seed,
            tile_rows: TILE_ROWS,
        },
        cfg,
        split_seed: seed,
        build_reps: 0,
        predict_reps: STREAM_PREDICT_REPS,
    };
    let untraced = if ctx.traced {
        traced_reference(ctx, spec)
    } else {
        0.0
    };
    let rounds = rounds_for(ctx.seconds, STREAM_ROUND_S);
    let (last, times) = pipeline_phase(ctx, spec, rounds, &mut || {
        setup_batch(&mut setups, &mut make);
    });
    setup_metrics(ctx, &setups);
    let Some(last) = last else {
        return;
    };

    // The survey, re-derived from a second stream drained tile by tile,
    // must label exactly the regions the streamed URG carries.
    let mut check = CityStream::new(city_cfg.clone(), seed, TILE_ROWS);
    while check.next_tile().is_some() {}
    let survey = check.finish();
    let mut want: Vec<(u32, f32)> = survey
        .uv_regions
        .iter()
        .map(|&r| (r, 1.0))
        .chain(survey.non_uv_regions.iter().map(|&r| (r, 0.0)))
        .collect();
    want.sort_by_key(|w| w.0);
    let got: Vec<(u32, f32)> = last
        .urg
        .labeled
        .iter()
        .copied()
        .zip(last.urg.y.iter().copied())
        .collect();
    ctx.ops.check(
        survey.num_labeled() == last.urg.labeled.len() && want == got,
        &format!(
            "labeled regions match the survey: {} surveyed, {} in the URG",
            survey.num_labeled(),
            last.urg.labeled.len()
        ),
    );

    let store = last.model.to_store();
    let fx = Fixture {
        urg: &last.urg,
        cfg,
        store: &store,
        embeddings: None,
        head_cfg: TaskHeadConfig::default(),
    };
    serve_phase(ctx, &fx, &short_plan(ctx.seconds));
    let closing = closing_predicts(ctx, &last, STREAM_PREDICT_REPS);
    pipeline_metrics(ctx, &times, &cfg, &closing);
    if ctx.traced {
        finish_traced(ctx, &fx, last.urg.n, "pipeline_s", untraced, false);
    }
}

/// Everything a serve-mix server starts from.
struct Prepared {
    round: Round,
    store: MatrixStore,
    emb: EmbeddingStore,
}

impl Prepared {
    fn fixture(&self, cfg: CmsfConfig) -> Fixture<'_> {
        Fixture {
            urg: &self.round.urg,
            cfg,
            store: &self.store,
            embeddings: Some(&self.emb),
            head_cfg: TaskHeadConfig::default(),
        }
    }
}

/// The serving checkpoint: the shenzhen-like preset's own configuration
/// with a short training budget (serving cost does not depend on it).
fn serve_cfg() -> CmsfConfig {
    CmsfConfig {
        master_epochs: 20,
        slave_epochs: 5,
        ..CmsfConfig::for_city("shenzhen-like")
    }
}

/// Checkpoint preparation: pipeline on the held-out split, store,
/// embeddings and task heads.
fn prepare(ctx: &mut Ctx, city: &City) -> Option<Prepared> {
    let spec = Spec {
        source: Source::Dense(city),
        cfg: serve_cfg(),
        split_seed: ctx.seed,
        build_reps: BUILD_REPS,
        predict_reps: SERVE_PREDICT_REPS,
    };
    let round = pipeline::round(&mut ctx.ops, &mut ctx.tracer, &spec)?;
    let store = round.model.to_store();
    let emb = task_store(&round.model, &round.urg, city, &TaskHeadConfig::default());
    Some(Prepared { round, store, emb })
}

/// The serve-mix schedule over `secs`: 30% reads alone, 40% reads under
/// writes, 30% on the ladder with writes going on, and one read
/// request in 20 a `tasks` op. The ladder starts at 1,000 req/s (2.5 times
/// the nominal rate) and climbs 15% per 0.5 s rung: at 20 s, twelve rungs
/// up to 4,650 req/s, around the reference host's knee.
fn mix_plan(secs: f64) -> Plan {
    let rung_s = 0.5;
    let rungs = (0.3 * secs / rung_s).floor() as usize;
    Plan {
        read_s: 0.3 * secs,
        write_s: 0.4 * secs,
        write_rps: MIX_WRITE_RPS,
        ladder: (0..rungs.max(1))
            .map(|i| (1000.0 * 1.15f64.powi(i as i32)).round())
            .collect(),
        rung_s,
        tasks_every: 20,
    }
}

pub fn serve_mix(ctx: &mut Ctx) {
    let cfg = serve_cfg();
    let mut times = Vec::new();
    let mut city_ms = Vec::new();
    let mut setups = Vec::new();
    let mut ready: Option<(uvd_serve::Server, f64, Prepared)> = None;
    let mut first: Option<Vec<f32>> = None;
    for _ in 0..SERVE_SETUP_REPS {
        let t = Instant::now();
        let city = City::from_config(CityPreset::ShenzhenLike.config(), ctx.seed);
        city_ms.push(secs(t) * 1e3);
        let Some(p) = prepare(ctx, &city) else {
            return;
        };
        match &first {
            None => first = Some(p.round.probs.clone()),
            Some(f) => ctx.ops.check(
                *f == p.round.probs,
                "every checkpoint preparation reproduces the first one's scores bitwise",
            ),
        }
        match serve::start(&p.fixture(cfg)) {
            Ok((server, start_s)) => {
                times.push(secs(t));
                setups.push(p.round.t.clone());
                if let Some((old, _, _)) = ready.replace((server, start_s, p)) {
                    old.shutdown();
                }
            }
            Err(e) => {
                ctx.ops
                    .check(false, &format!("server starts and answers health: {e}"));
                return;
            }
        }
    }
    let (server, start_s, p) = ready.expect("at least one set-up");
    ctx.m.set("setup_s", median(&times), "s");
    ctx.m.set("citysim.city_ms", median(&city_ms), "ms");
    pipeline_metrics(ctx, &setups, &cfg, &[]);
    let plan = mix_plan(ctx.seconds);
    if !ctx.traced {
        let out = serve::run(
            &mut ctx.ops,
            &mut ctx.tracer,
            &p.fixture(cfg),
            &server,
            &plan,
            ctx.seed,
        );
        server.shutdown();
        record_serving(ctx, &out, start_s);
        return;
    }
    // Traced: reads alone untraced first (the overhead reference), then a
    // traced checkpoint preparation and the whole schedule.
    let reference = Plan {
        write_s: 0.0,
        ladder: vec![],
        ..mix_plan(ctx.seconds)
    };
    let out = serve::run(
        &mut ctx.ops,
        &mut ctx.tracer,
        &p.fixture(cfg),
        &server,
        &reference,
        ctx.seed,
    );
    server.shutdown();
    let untraced = median(&out.score_lat_ms);
    drop(p);
    ctx.start_trace();
    let city = City::from_config(CityPreset::ShenzhenLike.config(), ctx.seed);
    let Some(p) = prepare(ctx, &city) else {
        return;
    };
    pipeline_metrics(ctx, std::slice::from_ref(&p.round.t), &cfg, &[]);
    let fx = p.fixture(cfg);
    serve_phase(ctx, &fx, &plan);
    finish_traced(
        ctx,
        &fx,
        serve::TILE * serve::TILE,
        "score_p50_ms",
        untraced,
        false,
    );
}
