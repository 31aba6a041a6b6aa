"""Per-layer metrics derived from the spans of a traced run.

Each metric is named ``<module>.<quantity>`` after the rml_lab module it
measures. Times ending in ``_ms``/``_s`` are means per call unless the
name says otherwise; ``_per_iter`` counts are per RML iteration and
``_per_interval`` counts per in-run eval interval. The README maps each
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import inspect
import os

from spans import SpanIndex

STEPS = ("trainer.labeled_step", "trainer.unlabeled_step")
EVAL_PHASE = ("trainer.evaluate_model", "trainer._pair_tv", "trainer._measure_pseudo_acc")
FORWARDS = ("netcore.NetModel.forward", "netcore.loss_and_gradients",
            "netcore.multi_loss_and_gradients")
CUTMIX = ("augment.sample_rect_mask", "augment.mix_images", "augment.mix_label_maps",
          "augment.mix_valid_masks")

METRICS = (
    ("trainer.train_baseline_s", "s"),
    ("trainer.init_stage_s", "s"),
    ("trainer.labeled_step_ms", "ms"),
    ("trainer.unlabeled_step_ms", "ms"),
    ("trainer.eval_interval_ms", "ms"),
    ("trainer.soft_predictions_per_interval", "count"),
    ("trainer.loop_self_ms", "ms"),
    ("netcore.forward_calls_per_iter", "count"),
    ("netcore.forward_images_per_iter", "count"),
    ("netcore.forward_ms", "ms"),
    ("netcore.loss_grad_ms", "ms"),
    ("netcore.sgd_step_ms", "ms"),
    ("netcore.ema_params_ms", "ms"),
    ("netcore.save_checkpoint_ms", "ms"),
    ("netcore.checkpoint_bytes", "bytes"),
    ("netcore.load_checkpoint_ms", "ms"),
    ("netcore.eval_forward_ms", "ms"),
    ("augment.photometric_ms", "ms"),
    ("augment.photometric_calls_per_iter", "count"),
    ("augment.cutmix_ms", "ms"),
    ("rectify.teacher_predict_calls_per_iter", "count"),
    ("rectify.teacher_predict_ms", "ms"),
    ("rectify.rectified_labels_ms", "ms"),
    ("rectify.denoise_ms", "ms"),
    ("rectify.store_get_batch_ms", "ms"),
    ("rectify.valid_pixel_share", "ratio"),
    ("rectify.fallback_pixels", "count"),
    ("protobank.confidence_weights_ms", "ms"),
    ("protobank.batch_prototypes_ms", "ms"),
    ("protobank.update_bank_ms", "ms"),
    ("protobank.init_bank_ms", "ms"),
    ("metrics.segmentation_scores_ms", "ms"),
    ("metrics.tv_distance_ms", "ms"),
    ("metrics.pseudo_accuracy_ms", "ms"),
    ("data.generate_shapes_dataset_s", "s"),
    ("data.load_dataset_ms", "ms"),
    ("cli.eval_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
)


def make_hooks(rectified_labels, captures: list, limit: int) -> dict:
    """Span hooks: batch sizes, checkpoint sizes, step diagnostics, and up to
    ``limit`` prototype-rectification calls captured for the reference check."""
    signature = inspect.signature(rectified_labels)

    def images(args, kwargs, result):
        return {"images": len(args[1])}

    def checkpoint(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def step(args, kwargs, result):
        info = result[1]
        x1 = args[1][0]
        pixels = x1.shape[0] * x1.shape[1] * x1.shape[2]
        return {"valid": sum(info.valid_pixels),
                "offered": sum(len(t) for t in info.loss_terms) * pixels,
                "fallback": info.fallback_pixels}

    def rectification(args, kwargs, result):
        if len(captures) >= limit:
            return None
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        if a["confidence_source"] != "prototype":
            return None
        bank = a["bank"]
        captures.append({
            "labels": result[0].onehot.argmax(axis=-1), "feats": result[1].copy(),
            "p0": a["store"].get_batch(a["ids"]).copy(), "eta": bank.eta.copy(),
            "pi": bank.pi.copy(), "seen": bank.seen.copy(),
        })
        return None

    return {
        "netcore.NetModel.forward": images,
        "netcore.loss_and_gradients": images,
        "netcore.multi_loss_and_gradients": images,
        "netcore.save_checkpoint": checkpoint,
        "trainer.unlabeled_step": step,
        "rectify.rectified_labels": rectification,
    }


def layer_metrics(ix: SpanIndex, iterations: int, intervals: int, runs: int) -> dict:
    """Values of every metric in METRICS except the ``trace.*`` pair.

    ``iterations``, ``intervals`` and ``runs`` are the RML iterations, in-run
    eval intervals and training runs that the traced spans cover.
    """
    spans = ix.spans

    def ms(*names):
        return 1e3 * ix.mean_s(ix.named(*names))

    def under(names, *within):
        return [i for i in ix.named(*names) if ix.under(i, within)]

    in_loop = [i for i in ix.named(*EVAL_PHASE)
               if spans[i].parent >= 0 and spans[spans[i].parent].name == "trainer.run_rml"]
    step_forwards = under(FORWARDS, *STEPS)
    unlabeled = ix.named("trainer.unlabeled_step")
    offered = ix.info_sum(unlabeled, "offered")
    saves = ix.named("netcore.save_checkpoint")
    cutmix = [i for i in under(CUTMIX, "trainer.unlabeled_step") if not ix.under(i, CUTMIX)]
    evals = ix.named("cli.cmd_eval")
    return {
        "trainer.train_baseline_s": ix.mean_s(ix.named("trainer.train_baseline")),
        "trainer.init_stage_s": ix.mean_s(ix.named("trainer.init_stage")),
        "trainer.labeled_step_ms": ms("trainer.labeled_step"),
        "trainer.unlabeled_step_ms": ms("trainer.unlabeled_step"),
        "trainer.eval_interval_ms": 1e3 * ix.total_s(in_loop) / intervals,
        "trainer.soft_predictions_per_interval":
            len([i for i in under(("trainer.soft_predictions",), *EVAL_PHASE)
                 if ix.under(i, ("trainer.run_rml",))]) / intervals,
        "trainer.loop_self_ms":
            1e3 * sum(ix.self_s[i] for i in ix.named("trainer.run_rml")) / iterations,
        "netcore.forward_calls_per_iter": len(step_forwards) / iterations,
        "netcore.forward_images_per_iter": ix.info_sum(step_forwards, "images") / iterations,
        "netcore.forward_ms":
            1e3 * ix.mean_s(under(("netcore.NetModel.forward",), *STEPS)),
        "netcore.loss_grad_ms": ms("netcore.loss_and_gradients",
                                   "netcore.multi_loss_and_gradients"),
        "netcore.sgd_step_ms": ms("netcore.sgd_step"),
        "netcore.ema_params_ms": ms("netcore.ema_params"),
        "netcore.save_checkpoint_ms": ms("netcore.save_checkpoint"),
        "netcore.checkpoint_bytes": ix.info_sum(saves, "bytes") / max(len(saves), 1),
        "netcore.load_checkpoint_ms": ms("netcore.load_checkpoint"),
        "netcore.eval_forward_ms":
            1e3 * ix.mean_s(under(("netcore.NetModel.forward",), "cli.cmd_eval")),
        "augment.photometric_ms": ms("augment.photometric"),
        "augment.photometric_calls_per_iter":
            len(under(("augment.photometric",), *STEPS)) / iterations,
        "augment.cutmix_ms": 1e3 * ix.total_s(cutmix) / iterations,
        "rectify.teacher_predict_calls_per_iter":
            len(under(("rectify.teacher_predict",), "trainer.unlabeled_step")) / iterations,
        "rectify.teacher_predict_ms": ms("rectify.teacher_predict"),
        "rectify.rectified_labels_ms": ms("rectify.rectified_labels"),
        "rectify.denoise_ms": ms("rectify.denoise"),
        "rectify.store_get_batch_ms": ms("rectify.StagePseudoStore.get_batch"),
        "rectify.valid_pixel_share":
            ix.info_sum(unlabeled, "valid") / offered if offered else 0.0,
        "rectify.fallback_pixels": ix.info_sum(unlabeled, "fallback") / runs,
        "protobank.confidence_weights_ms": ms("protobank.confidence_weights"),
        "protobank.batch_prototypes_ms": ms("protobank.batch_prototypes"),
        "protobank.update_bank_ms": ms("protobank.update_bank"),
        "protobank.init_bank_ms": ms("protobank.init_bank"),
        "metrics.segmentation_scores_ms": ms("metrics.segmentation_scores"),
        "metrics.tv_distance_ms": ms("metrics.tv_distance"),
        "metrics.pseudo_accuracy_ms": ms("metrics.pseudo_accuracy"),
        "data.generate_shapes_dataset_s": ix.mean_s(ix.named("data.generate_shapes_dataset")),
        "data.load_dataset_ms": ms("data.load_dataset"),
        "cli.eval_self_ms": 1e3 * sum(ix.self_s[i] for i in evals) / max(len(evals), 1),
    }
