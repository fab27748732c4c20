"""Thousand Island Scanner (Video) — distributed video processing.

Mirrors the paper's Video benchmark [60]: chunks of a video are encoded and
classified by a DNN (MXNET in the paper). The local kernel is a miniature
but real pipeline: per-frame 2-D convolution (the DNN-ish stage), block
quantization (the encode stage), and a classification reduction.

Spec calibration: 256 MB per function → the paper's maximum packing degree
of 40 on a 10 GB instance; mid-range interference (the DNN stage is
compute-heavy, the I/O stage overlaps well); large shareable I/O fraction
because co-located functions reuse the same model weights and source video
segments.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.workloads.base import AppSpec, ExecutableApp, Task

VIDEO = AppSpec(
    name="video",
    base_seconds=95.0,
    mem_mb=256,
    io_mb=150.0,
    io_shared_fraction=0.96,
    pressure_per_gb=0.20,
    description="Thousand Island Scanner: parallel video encode + DNN classify",
)

_KERNEL = np.array(
    [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]], dtype=np.float32
) / 16.0


class TinyMLP:
    """A small fixed-weight MLP classifier head (the MXNET-DNN stand-in).

    Weights are drawn once from a seeded generator, so the classifier is a
    real deterministic network: dense → ReLU → dense → softmax.
    """

    def __init__(
        self, in_features: int, hidden: int = 32, classes: int = 8, seed: int = 2023
    ) -> None:
        rng = np.random.default_rng(seed)
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / in_features), (in_features, hidden)).astype(np.float32)
        self.b1 = np.zeros(hidden, dtype=np.float32)
        self.w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, classes)).astype(np.float32)
        self.b2 = np.zeros(classes, dtype=np.float32)

    def forward(self, features: np.ndarray) -> np.ndarray:
        hidden = np.maximum(0.0, features @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        shifted = logits - logits.max()
        exp = np.exp(shifted)
        return exp / exp.sum()


class ThousandIslandScanner(ExecutableApp):
    """Executable miniature of the Video workload."""

    spec = VIDEO

    def __init__(self, frames_per_chunk: int = 4, frame_size: int = 48) -> None:
        if frame_size % 4 != 0:
            raise ValueError("frame_size must be a multiple of 4 (4x4 pooling)")
        self.frames_per_chunk = frames_per_chunk
        self.frame_size = frame_size
        self.classifier = TinyMLP(in_features=(frame_size // 4) ** 2)

    def make_tasks(self, n: int, seed: int = 0) -> Sequence[Task]:
        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n):
            chunk = rng.random(
                (self.frames_per_chunk, self.frame_size, self.frame_size),
                dtype=np.float32,
            )
            tasks.append(Task(self.spec.name, i, chunk))
        return tasks

    def run_task(self, task: Task) -> dict[str, Any]:
        from scipy import signal  # a large import that only this kernel needs

        chunk = task.payload
        # "DNN" stage: smoothing convolution per frame + feature pooling.
        features = []
        for frame in chunk:
            conv = signal.convolve2d(frame, _KERNEL, mode="same", boundary="symm")
            pooled = conv.reshape(
                conv.shape[0] // 4, 4, conv.shape[1] // 4, 4
            ).mean(axis=(1, 3))
            features.append(pooled)
        stacked = np.stack(features)
        # "Encode" stage: block quantization + inter-frame differencing.
        quantized = np.round(stacked * 32.0) / 32.0
        residuals = np.diff(quantized, axis=0)
        # "Classify" stage: MLP over the time-pooled feature map.
        flat = quantized.mean(axis=0).ravel().astype(np.float32)
        probabilities = self.classifier.forward(flat)
        label = int(np.argmax(probabilities))
        return {
            "label": label,
            "confidence": float(probabilities[label]),
            "bitrate_proxy": float(np.abs(residuals).mean()),
            "frames": int(chunk.shape[0]),
        }

    def validate_result(self, task: Task, value: Any) -> bool:
        return (
            isinstance(value, dict)
            and 0 <= value["label"] < 8
            and 0.0 < value["confidence"] <= 1.0
            and value["frames"] == task.payload.shape[0]
        )
