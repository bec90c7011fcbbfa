"""Deterministic planners and simulators: fill-drain pipeline schedules,
optimizer-state sharding, optimizer offload peaks, and federated low-rank
training (both the communication arithmetic and an executable round)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import GRAD_BYTES, OPTIMIZER_BYTES, GB
from .trainer import AdamWState, TrainConfig, adamw_step
from .transformer import (
    DecoderModel,
    ModelError,
    cross_entropy_grad,
    cross_entropy_loss,
    model_backward,
    model_forward,
)

__all__ = [
    "PipelineEvent",
    "PipelinePlan",
    "pipeline_schedule",
    "ShardPlan",
    "shard_plan",
    "offload_peak",
    "FederatedConfig",
    "FederatedReport",
    "federated_comm_report",
    "federated_round",
]


# ---------------------------------------------------------------------------
# Pipeline model-parallel schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineEvent:
    stage: int
    micro_batch: int
    phase: str  # "fwd" | "bwd"
    start: float
    end: float


@dataclass
class PipelinePlan:
    stages: int
    micro_batches: int
    fwd_cost: float
    bwd_cost: float
    events: list
    makespan: float
    utilization: float

    def gantt(self) -> str:
        """One text row per stage; F/B blocks are proportional to cost."""
        unit = min(self.fwd_cost, self.bwd_cost)
        width = max(1, round(self.makespan / unit))
        rows = []
        for s in range(self.stages):
            row = ["."] * width
            for e in self.events:
                if e.stage != s:
                    continue
                a = round(e.start / unit)
                b = max(a + 1, round(e.end / unit))
                ch = "F" if e.phase == "fwd" else "B"
                for i in range(a, min(b, width)):
                    row[i] = ch
            rows.append(f"stage {s}: " + "".join(row))
        return "\n".join(rows)

    def to_dict(self) -> dict:
        return {
            "stages": self.stages,
            "micro_batches": self.micro_batches,
            "fwd_cost": self.fwd_cost,
            "bwd_cost": self.bwd_cost,
            "makespan": self.makespan,
            "utilization": self.utilization,
            "events": [
                {"stage": e.stage, "micro_batch": e.micro_batch, "phase": e.phase,
                 "start": e.start, "end": e.end}
                for e in self.events
            ],
        }


def pipeline_schedule(stages: int, micro_batches: int, fwd_cost: float = 1.0,
                      bwd_cost: float | None = None) -> PipelinePlan:
    """Fill-drain schedule: all forwards stream through the stages, then all
    backwards drain in reverse. With uniform costs the utilization is exactly
    M / (N + M - 1)."""
    if stages < 1 or micro_batches < 1:
        raise ValueError("stages and micro_batches must be >= 1")
    if bwd_cost is None:
        bwd_cost = 2.0 * fwd_cost
    if fwd_cost <= 0 or bwd_cost <= 0:
        raise ValueError("costs must be > 0")
    N, M = stages, micro_batches
    events: list[PipelineEvent] = []
    stage_free = [0.0] * N
    fwd_end = {}
    for j in range(M):
        for i in range(N):
            ready = fwd_end[(i - 1, j)] if i > 0 else 0.0
            start = max(ready, stage_free[i])
            end = start + fwd_cost
            events.append(PipelineEvent(i, j, "fwd", start, end))
            stage_free[i] = end
            fwd_end[(i, j)] = end
    bwd_end = {}
    for j in reversed(range(M)):  # drain in reverse micro-batch order
        for i in reversed(range(N)):
            ready = bwd_end[(i + 1, j)] if i < N - 1 else fwd_end[(N - 1, j)]
            start = max(ready, stage_free[i])
            end = start + bwd_cost
            events.append(PipelineEvent(i, j, "bwd", start, end))
            stage_free[i] = end
            bwd_end[(i, j)] = end
    makespan = max(e.end for e in events)
    busy = sum(e.end - e.start for e in events)
    utilization = busy / (N * makespan)
    return PipelinePlan(N, M, fwd_cost, bwd_cost, events, makespan, utilization)


# ---------------------------------------------------------------------------
# Optimizer-state sharding
# ---------------------------------------------------------------------------


@dataclass
class ShardPlan:
    gpus: int
    params_bytes_per_gpu: float
    grads_bytes_per_gpu: float
    optimizer_bytes_per_gpu: float
    total_bytes_per_gpu: float
    unsharded_bytes: float
    grad_scatter_bytes_per_gpu: float
    param_gather_bytes_per_gpu: float

    def to_dict(self) -> dict:
        return {
            "gpus": self.gpus,
            "params_gb_per_gpu": self.params_bytes_per_gpu / GB,
            "grads_gb_per_gpu": self.grads_bytes_per_gpu / GB,
            "optimizer_gb_per_gpu": self.optimizer_bytes_per_gpu / GB,
            "total_gb_per_gpu": self.total_bytes_per_gpu / GB,
            "unsharded_gb": self.unsharded_bytes / GB,
            "grad_scatter_gb_per_gpu": self.grad_scatter_bytes_per_gpu / GB,
            "param_gather_gb_per_gpu": self.param_gather_bytes_per_gpu / GB,
        }


def shard_plan(param_count: int, trainable_count: int, gpus: int,
               param_bytes: float = 2.0) -> ShardPlan:
    """Parameters replicate on every GPU; gradients and optimizer states split
    into `gpus` equal shards. Also reports the per-iteration collective
    volumes of the shard protocol (gradient scatter + parameter all-gather)."""
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    params = param_count * param_bytes
    grads = trainable_count * GRAD_BYTES
    opt = trainable_count * OPTIMIZER_BYTES
    per_gpu = params + (grads + opt) / gpus
    scatter = grads * (gpus - 1) / gpus
    gather = params * (gpus - 1) / gpus
    return ShardPlan(
        gpus=gpus,
        params_bytes_per_gpu=params,
        grads_bytes_per_gpu=grads / gpus,
        optimizer_bytes_per_gpu=opt / gpus,
        total_bytes_per_gpu=per_gpu,
        unsharded_bytes=params + grads + opt,
        grad_scatter_bytes_per_gpu=scatter,
        param_gather_bytes_per_gpu=gather,
    )


def offload_peak(params_bytes: float, grads_bytes: float, optimizer_bytes: float,
                 intermediates_bytes: float) -> dict:
    """Peak device bytes when optimizer states live off-device except at the
    update phase (where intermediates are already freed)."""
    phases = {
        "forward": params_bytes + grads_bytes + intermediates_bytes,
        "backward": params_bytes + grads_bytes + intermediates_bytes,
        "update": params_bytes + grads_bytes + optimizer_bytes,
    }
    peak = max(phases.values())
    return {
        "phases": phases,
        "peak_bytes": peak,
        "naive_bytes": params_bytes + grads_bytes + optimizer_bytes + intermediates_bytes,
        "savings_bytes": min(optimizer_bytes, intermediates_bytes),
    }


# ---------------------------------------------------------------------------
# Federated training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederatedConfig:
    nodes: int               # including the center
    payload_bytes: float     # full model or adapter set, per transfer
    iterations: int = 1
    net_mbps: float = 50.0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("federated training needs at least 2 nodes")


@dataclass
class FederatedReport:
    nodes: int
    payload_bytes: float
    center_bytes_per_iter: float
    worker_bytes_per_iter: float
    iterations: int
    center_total_bytes: float
    worker_total_bytes: float
    center_seconds_per_iter: float

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "payload_bytes": self.payload_bytes,
            "center_bytes_per_iter": self.center_bytes_per_iter,
            "worker_bytes_per_iter": self.worker_bytes_per_iter,
            "iterations": self.iterations,
            "center_total_bytes": self.center_total_bytes,
            "worker_total_bytes": self.worker_total_bytes,
            "center_seconds_per_iter": self.center_seconds_per_iter,
        }


def federated_comm_report(cfg: FederatedConfig) -> FederatedReport:
    """Per-iteration and total transfer volumes: the center talks to every
    worker twice per iteration (broadcast out, gradients back)."""
    workers = cfg.nodes - 1
    center = 2.0 * workers * cfg.payload_bytes
    worker = 2.0 * cfg.payload_bytes
    rate = cfg.net_mbps * 1e6
    return FederatedReport(
        nodes=cfg.nodes,
        payload_bytes=cfg.payload_bytes,
        center_bytes_per_iter=center,
        worker_bytes_per_iter=worker,
        iterations=cfg.iterations,
        center_total_bytes=center * cfg.iterations,
        worker_total_bytes=worker * cfg.iterations,
        center_seconds_per_iter=center / rate,
    )


def _trainable_names(model: DecoderModel, mode: str) -> list:
    if mode == "lora":
        names = [p.name for _, m in model.named_matrices() if m.paired for p in (m.down, m.up)]
        if not names:
            raise ModelError("lora federation requires adapters on the replicas")
        return sorted(names)
    return sorted(model.trainable_parameters())


def federated_round(nodes, mode: str, state: AdamWState, config: TrainConfig) -> dict:
    """One synchronous round over `nodes` = [(model, (inputs, targets)), ...].

    Node 0 is the center. Every replica must enter the round with identical
    state; gradients are computed locally, averaged in fixed node order, and a
    single optimizer step updates the center, which then broadcasts. Returns
    payload accounting that matches federated_comm_report exactly.
    """
    if mode not in ("full", "lora"):
        raise ModelError(f"unknown federated mode {mode!r}")
    if len(nodes) < 1:
        raise ModelError("need at least one node")
    models = [n[0] for n in nodes]
    center = models[0]
    signature = center.state_signature()
    for i, m in enumerate(models[1:], start=1):
        if m.state_signature() != signature:
            raise ModelError(f"replica divergence detected at round start (node {i})")

    center_params = center.named_parameters()
    shared = _trainable_names(center, mode)
    payload_bytes = sum(center_params[n].data.nbytes for n in shared)

    grads_per_node = []
    losses = []
    for model, (inputs, targets) in nodes:
        logits, tape = model_forward(model, inputs, config.recompute, step=state.step)
        losses.append(cross_entropy_loss(logits, targets))
        grads = model_backward(model, tape, cross_entropy_grad(logits, targets), step=state.step)
        grads_per_node.append(grads)

    averaged = {}
    for name in shared:
        acc = np.zeros_like(grads_per_node[0][name], dtype=np.float64)
        for g in grads_per_node:  # fixed node order: schedule-independent
            acc += g[name]
        averaged[name] = (acc / len(nodes)).astype(grads_per_node[0][name].dtype)

    trainable = {n: center_params[n] for n in shared}
    adamw_step(state, trainable, averaged, config)

    for model in models[1:]:
        params = model.named_parameters()
        for name in shared:
            params[name].data[...] = trainable[name].data

    workers = len(nodes) - 1
    return {
        "loss_mean": float(np.mean(losses)),
        "transmitted_tensors": shared,
        "payload_bytes": payload_bytes,
        "center_bytes": 2.0 * workers * payload_bytes,
        "worker_bytes": 2.0 * payload_bytes,
    }
