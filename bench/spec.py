"""Metric names, units and directions; BENCHMARK.json lists the same."""

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "command_s": ("s", "lower"),
    "error_3d_mm": ("mm", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "synth.gen_ms_per_1k": ("ms", "lower"),
    "synth.load_ms_per_1k": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "pipeline.stub.fwd_ms": ("ms", "lower"),
    "pipeline.stub.bwd_ms": ("ms", "lower"),
}
LAYERS = (["refine.conv0", "refine.conv1", "refine.conv2"]
          + [f"unet.enc{i}" for i in range(3)] + [f"unet.pool{i}" for i in range(3)]
          + ["unet.bottleneck"] + [f"unet.unpool{i}" for i in range(3)]
          + [f"unet.dec{i}" for i in range(3)] + ["unet.final"])
for _layer in LAYERS:
    PER_LAYER[f"layers.{_layer}.fwd_ms"] = ("ms", "lower")
    PER_LAYER[f"layers.{_layer}.bwd_ms"] = ("ms", "lower")
    PER_LAYER[f"layers.{_layer}.alloc_mb"] = ("MB", "lower")
for _n in (1, 2, 3):
    PER_LAYER[f"training.step_ms.stage{_n}"] = ("ms", "lower")
    PER_LAYER[f"tensor.backward_ms.stage{_n}"] = ("ms", "lower")
    PER_LAYER[f"optim.adam_ms.stage{_n}"] = ("ms", "lower")
    PER_LAYER[f"training.step_alloc_mb.stage{_n}"] = ("MB", "lower")
PER_LAYER.update({
    "training.predict_ms_per_1k": ("ms", "lower"),
    "metrics.report_ms": ("ms", "lower"),
    "ablation.cell_s.trainable": ("s", "lower"),
    "ablation.cell_s.gpool": ("s", "lower"),
    "ablation.cell_s.fixed": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
})

WORKLOADS = ("train-cascade", "eval-cascade", "ablate-pooling")
