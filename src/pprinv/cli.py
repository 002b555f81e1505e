"""Command-line front end: embed, invert, evaluate, sweep.

All commands are deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import embedding as emb
from . import graph as gr
from . import linalg
from . import metrics as met
from . import proximity as prox
from .analytical import AnalyticalInputs, invert_analytical
from .optimize import OptConfig, invert_optimize

log = logging.getLogger("pprinv")


def _load_graph(path: str) -> gr.Graph:
    return gr.parse_edge_list(Path(path).read_bytes())


def _load_labels(path: str | None, g: gr.Graph):
    if not path:
        return None
    return gr.parse_labels(Path(path).read_bytes(), g)


def _build_configs(presets: list[str], args, g: gr.Graph):
    """(name, config) for each named preset. Only lemane reads
    --alpha-schedule, so the flag without a lemane preset is an error."""
    lemane = prox.Preset.LEMANE.value
    schedule = None
    if args.alpha_schedule:
        if lemane not in presets:
            raise ValueError("--alpha-schedule is used only by the lemane preset")
        text = Path(args.alpha_schedule).read_bytes()
        schedule = prox.parse_alpha_schedule(text, args.k_horizon)
    return [
        (name, prox.preset_config(
            name, alpha=args.alpha, epsilon=args.epsilon, k_horizon=args.k_horizon,
            volume=g.volume, alpha_schedule=schedule if name == lemane else None,
        ))
        for name in presets
    ]


def _check_dim(dim: int, n: float = np.inf) -> None:
    """A rank d with 1 <= d <= n. sweep passes no n: a d above a small
    graph's node count fails only its own cell."""
    if dim < 1:
        raise ValueError(f"dimension {dim} out of range")
    if dim > n:
        raise ValueError("dimension exceeds node count")


def cmd_embed(args) -> int:
    g = _load_graph(args.graph)
    _check_dim(args.dim, g.n)
    [(_, cfg)] = _build_configs([args.preset], args, g)
    # sweep takes --alpha with lemane to invert it; embed would only record it.
    if args.preset == "lemane" and args.alpha is not None:
        raise ValueError("--alpha is not used by the lemane preset: it reads --alpha-schedule")
    t0 = time.perf_counter()
    m = prox.build_proximity(g, cfg)
    t_build = time.perf_counter() - t0
    # meta.json: the build flags as given, then what they resolved to.
    flags = ("preset", "dim", "seed", "alpha", "k_horizon")
    meta = {key: getattr(args, key) for key in flags}
    meta.update(epsilon=cfg.epsilon, graph_n=g.n, graph_volume=g.volume)
    if args.preset == "lemane":
        meta["alpha_schedule"] = list(cfg.alphas)
    t0 = time.perf_counter()
    pair = emb.factorize(m, args.dim, args.seed)
    t_svd = time.perf_counter() - t0
    emb.save_embedding(args.out, emb.EmbeddingPair(pair.x, pair.y, meta))
    log.info("proximity build %.3fs, svd %.3fs", t_build, t_svd)
    print(f"wrote embedding (n={g.n}, d={args.dim}) to {args.out}")
    return 0


def _config_from_meta(meta: dict) -> prox.ProximityConfig | None:
    """The config cmd_embed built, rebuilt from the meta.json it wrote; None
    for a target without a preset (a --proximity matrix). Each build key must
    hold the JSON type cmd_embed writes there (true and false are no
    numbers), and a preset needs its k_horizon, else an error naming the key."""
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    valid = {"preset": lambda v: isinstance(v, str), "epsilon": number,
             "alpha": lambda v: v is None or number(v), "graph_volume": number,
             "k_horizon": lambda v: number(v) and isinstance(v, int),
             "alpha_schedule": lambda v: isinstance(v, list) and all(map(number, v))}
    for key, ok in valid.items():
        if key in meta and not ok(meta[key]):
            raise ValueError(f"meta.json {key} has the wrong type: {json.dumps(meta[key])}")
    if "preset" not in meta:
        return None
    if "k_horizon" not in meta:
        raise ValueError("meta.json has no k_horizon")
    return prox.preset_config(
        meta["preset"], alpha=meta.get("alpha"), epsilon=meta.get("epsilon"),
        k_horizon=meta["k_horizon"], volume=meta.get("graph_volume"),
        alpha_schedule=meta.get("alpha_schedule"),  # preset_config makes it a tuple
    )


def _inversion(args, cfg: prox.ProximityConfig | None, volume: float):
    """What args.method runs, resolved and checked before any work: for
    optimize the OptConfig (target_volume the graph's volume), for analytical
    (alpha, K). Each flag comes first: alpha else the target config's
    constant stopping probability; K else the config's, else OptConfig's.
    The optimizer's epsilon is --opt-epsilon; --epsilon is the embedding's."""
    alpha = args.alpha
    if alpha is None:
        if cfg is None or len(set(cfg.alphas)) != 1:
            raise ValueError("--alpha required (not in metadata)" if cfg is None else
                             "--alpha required: the stopping probability varies by hop")
        alpha = cfg.alphas[0]
    k_horizon = args.k_horizon
    if k_horizon is None:
        k_horizon = OptConfig.k_horizon if cfg is None else cfg.k_horizon
    if args.method == "analytical":
        prox._check_alpha(alpha)  # AnalyticalInputs' check, before any work
        return alpha, k_horizon
    return OptConfig(target_volume=volume, alpha=alpha, epochs=args.epochs,
                     epsilon=args.opt_epsilon, k_horizon=k_horizon,
                     step_size=args.step_size)


def _invert(target, degrees, inversion):
    """Run _inversion's result on target, an n x n proximity or an
    EmbeddingPair: invert_optimize with its OptConfig, on a pair's product,
    else the closed form with its (alpha, K), which reads a pair's factors.
    Returns the recovered graph and the per-epoch losses (empty for the
    closed form)."""
    degrees = np.asarray(degrees, dtype=np.float64)
    volume = float(degrees.sum())
    m_edges = int(volume) // 2
    if isinstance(inversion, OptConfig):
        if isinstance(target, emb.EmbeddingPair):
            target = emb.reconstruct_proximity(target)
        result = invert_optimize(target, inversion, m_edges)
        return result.graph, result.losses
    alpha, k_horizon = inversion
    inputs = AnalyticalInputs(m_k=target, degrees=degrees, volume=volume, alpha=alpha,
                              k_horizon=k_horizon, m_edges=m_edges)
    return invert_analytical(inputs), ()


def cmd_invert(args) -> int:
    # A rejected run writes neither out-file: both are checked before any work.
    for path in (args.out, args.loss_trace):
        if path and (Path(path).is_dir() or not os.access(Path(path).parent, os.W_OK)):
            raise ValueError(f"cannot write {path}: not a file in a writable directory")
    if args.embedding:
        target = emb.load_embedding(args.embedding)
        meta, cfg = target.meta, _config_from_meta(target.meta)
        n = len(target.x)
    else:
        target, meta, cfg = linalg.load_matrix(args.proximity), {}, None
        n = len(target)
    names = None
    if args.graph:
        g = _load_graph(args.graph)
        degrees, names = g.degrees, g.node_names
    else:
        degrees = np.array(gr._numbers(Path(args.degrees).read_bytes(), "one degree"))
        whole = np.isfinite(degrees) & (degrees >= 0) & (degrees == np.floor(degrees))
        if not whole.all() or degrees.sum() % 2:
            raise ValueError("degrees must be non-negative integers with an even sum")
    if degrees.shape != (n,):
        raise ValueError(f"{degrees.size} degrees for a {n}-node target proximity")
    volume = meta.get("graph_volume")
    if volume is not None and degrees.sum() != volume:
        raise ValueError(
            f"degree sum {int(degrees.sum())} differs from the embedding's "
            f"graph_volume {volume}: not the graph it was built from"
        )
    inversion = _inversion(args, cfg, float(degrees.sum()))
    recovered, losses = _invert(target, degrees, inversion)
    # Target rows and --graph degrees both follow the sorted-name order of
    # parse_edge_list, whatever each file's line order, so names line up.
    recovered = dataclasses.replace(recovered, node_names=names)
    Path(args.out).write_text(gr.serialize_edge_list(recovered), encoding="utf-8")
    if args.loss_trace:
        with open(args.loss_trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, value in enumerate(losses, start=1):
                writer.writerow([epoch, f"{value:.12g}"])
    if args.method == "optimize":
        # A budget of every pair runs no epoch: the graph is forced.
        trail = f", loss {losses[0]:.6g} -> {losses[-1]:.6g}" if losses else ""
        log.info("optimize inversion: %d epochs%s", len(losses), trail)
    print(f"wrote recovered edge list ({recovered.num_edges} edges) to {args.out}")
    return 0


# Sweep CSV columns; the errors (evaluate prints them) are to_dict() keys.
_SWEEP_COLUMNS = (
    "preset", "method", "dim", "err_A", "err_l", "err_phi_avg", "final_loss",
    "status",
)


def cmd_evaluate(args) -> int:
    g = _load_graph(args.graph)
    g_hat = gr.parse_recovered(Path(args.recovered).read_bytes(), g)
    labels = _load_labels(args.labels, g)
    meta = {"graph": args.graph}
    if labels is None:
        meta["labels_missing"] = True
    values = met.recovery_report(g, g_hat, labels).to_dict()
    payload = json.dumps({**values, "meta": meta}, sort_keys=True, indent=2)
    Path(args.out).write_text(payload + "\n")
    print(" ".join(f"{key}={'n/a' if v is None else f'{v:.6f}'}"
                   for key, v in values.items() if key in _SWEEP_COLUMNS))
    return 0


def _sweep_cell(g, labels, m, args, dim, inversion) -> dict[str, str]:
    """A cell's report columns in _SWEEP_COLUMNS and final_loss, if defined."""
    pair = emb.factorize(m, dim, args.seed)
    recovered, losses = _invert(pair, g.degrees, inversion)
    values = met.recovery_report(g, recovered, labels).to_dict()
    values["final_loss"] = losses[-1] if losses else None
    return {key: f"{v:.9g}" for key, v in values.items()
            if key in _SWEEP_COLUMNS and v is not None}


def _comma_list(text: str, flag: str) -> list[str]:
    """A comma-separated flag's items, each stripped, empty ones dropped;
    an empty list is an error naming the flag."""
    items = [item for item in (part.strip() for part in text.split(",")) if item]
    if not items:
        raise ValueError(f"{flag} list must be nonempty")
    return items


def cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    labels = _load_labels(args.labels, g)
    dims = _comma_list(args.dims, "--dims")
    try:
        dims = [int(d) for d in dims]
    except ValueError:
        raise ValueError(f"--dims takes comma-separated integers, got {args.dims!r}") from None
    for dim in dims:
        _check_dim(dim)
    # Every preset's config and inversion is built before the first cell;
    # a preset's cells share its inversion.
    names = _comma_list(args.presets, "--presets")
    configs = [(preset, cfg, _inversion(args, cfg, float(g.volume)))
               for preset, cfg in _build_configs(names, args, g)]
    rows = []  # in the order the cells run: --presets, then --dims, as given
    for preset, cfg, inversion in configs:
        # Proximity is dimension-independent: build once per preset.
        m = prox.build_proximity(g, cfg)
        for dim in dims:
            try:
                row, status = _sweep_cell(g, labels, m, args, dim, inversion), "ok"
            except Exception as exc:  # cell failures must not kill the sweep
                row, status = {}, f"error: {exc}"
            rows.append({
                "preset": preset, "method": args.method, "dim": dim, **row,
                "status": status,
            })
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, _SWEEP_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


# Every flag of every subcommand, declared once: option -> add_argument
# keywords. A subcommand takes flags by name and may override a keyword.
_FLAGS = {
    "--graph": dict(required=True),
    "--preset": dict(required=True, choices=[x.value for x in prox.Preset]),
    "--presets": dict(required=True, help="comma-separated preset names"),
    "--labels": dict(),
    "--recovered": dict(required=True),
    "--embedding": dict(),
    "--proximity": dict(help="PPREIM1 matrix file"),
    "--degrees": dict(help="one degree per line: non-negative integers, even sum"),
    "--method": dict(choices=["optimize", "analytical"], default="optimize"),
    "--alpha": dict(type=float, help="stopping probability (0.7 for the flight "
                                     "graphs, 0.1 for the large social graphs)"),
    "--alpha-schedule": dict(help="file with one stopping probability per line "
                                  "(lemane)"),
    "--epsilon": dict(type=float, default=1e-7, help="the embedding's threshold"),
    "--opt-epsilon": dict(type=float, default=OptConfig.epsilon, help="optimizer threshold: "
                          "half a STRAP embedding's --epsilon (%(default)g fits its default)"),
    "--k-horizon": dict(type=int, default=OptConfig.k_horizon),
    "--dim": dict(type=int, required=True),
    "--dims": dict(required=True, help="comma-separated dimensions"),
    "--epochs": dict(type=int, default=OptConfig.epochs),
    "--step-size": dict(type=float, default=OptConfig.step_size),
    "--loss-trace": dict(help="CSV out-file with epoch,loss rows"),
    "--seed": dict(type=int, default=0),
    "--out": dict(required=True),
}


def _add_flags(container, *options: str, **overrides) -> None:
    """Add the named _FLAGS to a parser or group, each with overrides."""
    for option in options:
        container.add_argument(option, **{**_FLAGS[option], **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pprinv",
        description="PPR-based embeddings, inversion, and recovery metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="build a proximity matrix and factorize it")
    _add_flags(p, "--graph", "--preset", "--alpha", "--epsilon", "--k-horizon",
               "--alpha-schedule", "--dim", "--seed", "--out")
    p.set_defaults(func=cmd_embed)

    inv = sub.add_parser("invert", help="recover a graph from embeddings")
    inv_sub = inv.add_subparsers(dest="method", required=True)
    for method, summary in (("analytical", "closed-form recovery"),
                            ("optimize", "gradient-descent recovery")):
        p = inv_sub.add_parser(method, help=summary)
        _add_flags(p.add_mutually_exclusive_group(required=True),
                   "--embedding", "--proximity")
        degrees = p.add_mutually_exclusive_group(required=True)
        _add_flags(degrees, "--graph", required=False,
                   help="original graph (degrees and node names)")
        _add_flags(degrees, "--degrees")
        # A missing --k-horizon falls back to meta.json, then OptConfig's.
        _add_flags(p, "--k-horizon", default=None)
        _add_flags(p, "--alpha", "--out")
        p.set_defaults(func=cmd_invert, loss_trace=None)
    # p is now the optimize parser; the flags below are its own.
    _add_flags(p, "--opt-epsilon", "--epochs", "--step-size", "--loss-trace")

    p = sub.add_parser("evaluate", help="compare recovered vs original graph")
    _add_flags(p, "--graph", "--recovered", "--labels", "--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="embed/invert/evaluate over dimensions")
    _add_flags(p, "--graph", "--labels", "--presets", "--dims", "--method",
               "--alpha", "--epsilon", "--k-horizon", "--opt-epsilon",
               "--alpha-schedule", "--epochs", "--step-size", "--seed", "--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"pprinv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
