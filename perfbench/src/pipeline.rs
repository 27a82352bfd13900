//! The training pipeline, timed stage by stage from outside: URG build →
//! `Cmsf::new` → master stage (with its freeze) → slave stage → full-city
//! `predict_proba`, plus the checks made apart from the program: the
//! benchmark's own block split, pair-counting AUCs, score ranges and
//! repeatability.

use std::collections::BTreeMap;
use std::time::Instant;

use cmsf::{Cmsf, CmsfConfig};
use rand::seq::SliceRandom;
use uvd_citysim::{City, CityConfig, CityStream};
use uvd_urg::{ShardedUrg, Urg, UrgOptions};

use crate::report::{Kind, Ops};
use crate::trace::Tracer;

/// Where a round's URG comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// A dense `Urg::build` over a generated city.
    Dense(&'a City),
    /// A tile-streamed `ShardedUrg::from_stream` → `into_urg` build; the
    /// stream skeleton is generated inside the round, before the clock.
    Stream {
        cfg: &'a CityConfig,
        seed: u64,
        tile_rows: usize,
    },
}

/// One round's URG, trained model, scores and timings.
pub struct Round {
    pub urg: Urg,
    pub model: Cmsf,
    pub probs: Vec<f32>,
    pub t: Times,
}

/// Timings of one round, in seconds.
#[derive(Clone)]
pub struct Times {
    pub n_regions: usize,
    pub build_s: f64,
    /// Wall time of each repeated build after the pipeline's own.
    pub repeat_build_s: Vec<f64>,
    /// Heap high-water mark over the build (traced run only), MB.
    pub build_peak_mb: f64,
    pub master_s: f64,
    pub slave_s: f64,
    pub predict_s: f64,
    pub pipeline_s: f64,
    /// Wall time of each repeated full-city `predict_proba` after the first.
    pub repeat_predict_s: Vec<f64>,
    pub auc: Aucs,
}

/// Folds are dealt 8×8 blocks of regions, like the paper's block-level
/// cross-validation, so that no held-out region has a labeled neighbour in
/// the same block in training.
const FOLD_BLOCK: usize = 8;
const FOLDS: usize = 5;

/// The benchmark's own block split (independent of `uvd_eval`): labeled
/// samples grouped by 8×8 block, blocks shuffled by `seed`, then dealt to
/// five folds balancing positives and then sizes. Returns the indices into
/// `urg.labeled` of the training folds; fold 0 is held out.
pub fn training_split(urg: &Urg, seed: u64) -> Vec<usize> {
    let blocks_w = urg.width.div_ceil(FOLD_BLOCK);
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &r) in urg.labeled.iter().enumerate() {
        let (x, y) = (r as usize % urg.width, r as usize / urg.width);
        groups
            .entry((y / FOLD_BLOCK) * blocks_w + x / FOLD_BLOCK)
            .or_default()
            .push(i);
    }
    let mut blocks: Vec<Vec<usize>> = groups.into_values().collect();
    blocks.shuffle(&mut uvd_tensor::seeded_rng(seed ^ 0x5EED_F01D));
    let positives = |b: &[usize]| b.iter().filter(|&&i| urg.y[i] > 0.5).count();
    blocks.sort_by_key(|b| std::cmp::Reverse(positives(b)));
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); FOLDS];
    let mut fold_pos = [0usize; FOLDS];
    for b in blocks {
        // Blocks with positives go where positives are fewest; the rest
        // where samples are fewest, so that folds also balance in size.
        let has_pos = positives(&b) > 0;
        let f = (0..FOLDS)
            .min_by_key(|&f| (if has_pos { fold_pos[f] } else { 0 }, folds[f].len()))
            .expect("five folds");
        fold_pos[f] += positives(&b);
        folds[f].extend(b);
    }
    let mut train: Vec<usize> = folds[1..].concat();
    train.sort_unstable();
    train
}

/// AUC by direct pair counting (Mann–Whitney U with ties counting one
/// half), written apart from `uvd_eval::auc`'s rank-sum code.
pub fn pair_count_auc(scores: &[f32], labels: &[f32]) -> f64 {
    let pos: Vec<f32> = (0..scores.len())
        .filter(|&i| labels[i] > 0.5)
        .map(|i| scores[i])
        .collect();
    let neg: Vec<f32> = (0..scores.len())
        .filter(|&i| labels[i] <= 0.5)
        .map(|i| scores[i])
        .collect();
    let mut wins = 0.0f64;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() * neg.len()) as f64
}

/// AUCs of one round: over every labeled region (the bounded metric), and
/// over the held-out fold alone.
#[derive(Clone, Copy)]
pub struct Aucs {
    pub labeled: f64,
    pub held_out: f64,
}

/// Check the scores and return their AUCs against the survey labels: every
/// score finite and in [0, 1]; each AUC, over every labeled region and over
/// the held-out fold, with both classes present and equal to
/// `uvd_eval::auc`.
pub fn check_scores(ops: &mut Ops, urg: &Urg, probs: &[f32], train: &[usize]) -> Aucs {
    ops.check(
        probs.len() == urg.n,
        "predict_proba returns one score per region",
    );
    ops.check(
        probs
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
        "every score is finite and in [0, 1]",
    );
    let mut in_train = vec![false; urg.labeled.len()];
    for &i in train {
        in_train[i] = true;
    }
    let mut auc_over = |what: &str, keep: &dyn Fn(usize) -> bool| -> f64 {
        let (scores, labels): (Vec<f32>, Vec<f32>) = (0..urg.labeled.len())
            .filter(|&i| keep(i))
            .map(|i| {
                (
                    probs
                        .get(urg.labeled[i] as usize)
                        .copied()
                        .unwrap_or(f32::NAN),
                    urg.y[i],
                )
            })
            .unzip();
        let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
        ops.check(
            n_pos > 0 && n_pos < labels.len(),
            &format!("{what} regions hold both classes"),
        );
        let ours = pair_count_auc(&scores, &labels);
        let theirs = uvd_eval::auc(&scores, &labels);
        ops.check(
            matches!(theirs, Ok(a) if (a - ours).abs() <= 1e-9),
            &format!("{what} AUC {ours} by pair counting equals uvd_eval::auc {theirs:?}"),
        );
        ours
    };
    Aucs {
        labeled: auc_over("labeled", &|_| true),
        held_out: auc_over("held-out", &|i| !in_train[i]),
    }
}

/// Run `f`, turning a panic into `None` so that a failing stage is counted
/// instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Time `reps` full-city `predict_proba` calls of `model`, each checked
/// bitwise against `want` (the round's own scores; `None` when its first
/// prediction failed, so that every repeat counts as a failed check).
pub fn repeat_predicts(
    ops: &mut Ops,
    tracer: &mut Tracer,
    model: &Cmsf,
    urg: &Urg,
    want: Option<&[f32]>,
    reps: usize,
) -> Vec<f64> {
    let op = tracer.next_op();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _s = tracer.span("bench.predict", op);
        let t = Instant::now();
        let p = guarded(|| model.predict_proba(urg));
        times.push(t.elapsed().as_secs_f64());
        let same = matches!((&p, want), (Some(a), Some(b)) if a == b);
        ops.record(Kind::Predict, p.is_some());
        ops.check(same, "repeated predict_proba is bitwise identical");
    }
    times
}

/// The streamed build, with the shard accounting checks.
fn streamed_build(ops: &mut Ops, stream: CityStream) -> Urg {
    let n_regions = stream.n_regions();
    let sharded = ShardedUrg::from_stream(stream, UrgOptions::default());
    let stats = sharded.stats();
    let shard_sum: usize = stats.shards.iter().map(|s| s.n_regions).sum();
    ops.check(
        stats.n_regions == n_regions && shard_sum == n_regions,
        &format!(
            "shard stats cover the city: {shard_sum} in shards, {} in stats, {n_regions} in the city",
            stats.n_regions
        ),
    );
    sharded.into_urg()
}

/// What a round runs: where its URG comes from, the model configuration,
/// the seed of the block split, and how many times the build and the
/// full-city prediction are repeated after the pipeline (for their rates).
#[derive(Clone, Copy)]
pub struct Spec<'a> {
    pub source: Source<'a>,
    pub cfg: CmsfConfig,
    pub split_seed: u64,
    pub build_reps: usize,
    pub predict_reps: usize,
}

/// One timed pipeline round. A stage that fails is counted and the round
/// carries on, so every round attempts the same operations; a round whose
/// build or prediction fails returns `None`.
pub fn round(ops: &mut Ops, tracer: &mut Tracer, spec: &Spec) -> Option<Round> {
    let Spec {
        source,
        cfg,
        split_seed,
        build_reps,
        predict_reps,
    } = *spec;
    let op = tracer.next_op();
    let stream = match source {
        Source::Dense(_) => None,
        Source::Stream {
            cfg,
            seed,
            tile_rows,
        } => {
            let _s = tracer.span("bench.citysim", op);
            Some(CityStream::new(cfg.clone(), seed, tile_rows))
        }
    };

    // In the traced run the allocator's high-water mark is restarted at the
    // build, so that the build's own peak can be read after it.
    let traced = uvd_obs::enabled();
    if traced {
        uvd_obs::alloc::reset_peak();
    }
    let round_span = tracer.span("bench.pipeline", op);
    let t0 = Instant::now();
    let urg = {
        let _s = tracer.span("bench.build", op);
        let built = match (source, stream) {
            (Source::Dense(city), _) => guarded(|| Urg::build(city, UrgOptions::default())),
            (Source::Stream { .. }, Some(stream)) => guarded(|| streamed_build(ops, stream)),
            (Source::Stream { .. }, None) => unreachable!("streamed rounds make a stream"),
        };
        ops.record(Kind::Build, built.is_some());
        built?
    };
    let build_s = t0.elapsed().as_secs_f64();
    let build_peak_mb = if traced {
        uvd_obs::alloc::peak_bytes() as f64 / 1e6
    } else {
        0.0
    };
    let train = training_split(&urg, split_seed);

    let mut model = {
        let _s = tracer.span("bench.model_new", op);
        Cmsf::new(&urg, cfg)
    };
    let t_master = Instant::now();
    {
        let _s = tracer.span("bench.master", op);
        let ok = matches!(guarded(|| model.train_master(&urg, &train)), Some(Ok(_)));
        ops.record(Kind::Master, ok);
    }
    let master_s = t_master.elapsed().as_secs_f64();
    let t_slave = Instant::now();
    {
        let _s = tracer.span("bench.slave", op);
        let ok = matches!(guarded(|| model.train_slave(&urg, &train)), Some(Ok(_)));
        ops.record(Kind::Slave, ok);
    }
    let slave_s = t_slave.elapsed().as_secs_f64();
    let t_pred = Instant::now();
    let probs = {
        let _s = tracer.span("bench.predict", op);
        guarded(|| model.predict_proba(&urg))
    };
    ops.record(Kind::Predict, probs.is_some());
    let predict_s = t_pred.elapsed().as_secs_f64();
    let pipeline_s = t0.elapsed().as_secs_f64();
    drop(round_span);

    let repeat_predict_s =
        repeat_predicts(ops, tracer, &model, &urg, probs.as_deref(), predict_reps);

    let mut repeat_build_s = Vec::with_capacity(build_reps);
    if let Source::Dense(city) = source {
        for _ in 0..build_reps {
            let _s = tracer.span("bench.build", op);
            let t = Instant::now();
            let again = guarded(|| Urg::build(city, UrgOptions::default()));
            repeat_build_s.push(t.elapsed().as_secs_f64());
            ops.record(Kind::Build, again.is_some());
            let same = matches!(&again, Some(u) if u.x_poi == urg.x_poi
                && u.x_img == urg.x_img
                && u.pairs == urg.pairs
                && u.labeled == urg.labeled);
            ops.check(same, "repeated Urg::build is bitwise identical");
        }
    }

    let probs = probs?;
    let auc = check_scores(ops, &urg, &probs, &train);
    Some(Round {
        t: Times {
            n_regions: urg.n,
            build_s,
            repeat_build_s,
            build_peak_mb,
            master_s,
            slave_s,
            predict_s,
            pipeline_s,
            repeat_predict_s,
            auc,
        },
        urg,
        model,
        probs,
    })
}
