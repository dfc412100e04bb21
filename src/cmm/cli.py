"""Command-line front end: JSON-configured, reproducible experiment runs.

Flags only select the subcommand, config path, and output directory; every
knob lives in the config file so runs are diffable and rerunnable. Each run
writes the fully resolved effective config first and echoes its input config
verbatim, as ``config.json``, last; a config error writes nothing there. An
output directory holds a complete run if and only if it holds
``config.json``: a run removes the one a previous run left just before its
own first write, so an interrupted rerun never looks complete; ``train``
removes the previous run's arm checkpoints and traces with it. A field
that a command does not know is a config error. Exit codes: 0 success,
1 config error, 2 runtime/numeric error.

Set CMM_OUTPUT_ROOT to resolve relative output directories under a common
root. Relative paths inside config files resolve against the config file's
directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import encoder, evaluation, gradcheck, synthdata
from .errors import CmmError, ConfigError, GenerationError, SchemaError
from .loss import GAMMA_GRID, M_GRID, LossConfig, get_loss, loss_grid
from .schema import load_dataset_jsonl, open_atomic, save_dataset_jsonl, write_csv, write_json

OUTPUT_ROOT_ENV = "CMM_OUTPUT_ROOT"
DEFAULT_COMPARE_KINDS = ("cmm", "plain_margin", "atl_reference")


def _load_config(path: Path) -> tuple[dict[str, Any], bytes]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except ValueError as exc:    # JSONDecodeError, or UnicodeDecodeError on bytes
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return obj, raw


def _resolve_path(value: Any, config_dir: Path, field: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config field {field!r} must be a non-empty path string")
    p = Path(value)
    return p if p.is_absolute() else config_dir / p


def _require(config: dict[str, Any], field: str) -> Any:
    if field not in config:
        raise ConfigError(f"missing required config field {field!r}")
    return config[field]


def _reject_unknown(config: dict[str, Any], allowed: Sequence[str], what: str) -> None:
    unknown = set(config) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} config fields: {sorted(unknown)}")


def _build_gen_config(obj: dict[str, Any]) -> synthdata.GenConfig:
    obj = dict(obj)
    preset = obj.pop("preset", None)
    try:
        if preset is not None:
            return synthdata.preset_config(preset, **obj)
        return synthdata.GenConfig(**obj)
    except (TypeError, GenerationError) as exc:
        raise ConfigError(f"bad generator config: {exc}") from exc


def _build_loss_config(obj: Any) -> LossConfig:
    if not isinstance(obj, dict):
        raise ConfigError("'loss' must be a JSON object")
    try:
        cfg = LossConfig(**obj)
        get_loss(cfg)   # a plugin name must be registered before training starts
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad loss config: {exc}") from exc
    return cfg


def _build_train_config(obj: Any) -> encoder.TrainConfig:
    if not isinstance(obj, dict):
        raise ConfigError("'train' must be a JSON object")
    obj = dict(obj)
    loss_cfg = _build_loss_config(obj.pop("loss", {}))
    try:
        return encoder.TrainConfig(loss=loss_cfg, **obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def _load_dataset(config: dict[str, Any], config_dir: Path, field: str):
    """The dataset that the path in config field ``field`` names."""
    path = _resolve_path(_require(config, field), config_dir, field)
    if not path.is_file():
        raise ConfigError(f"config field {field!r}: no such file {path}")
    return load_dataset_jsonl(str(path))


def _write_effective(outdir: Path, effective: dict[str, Any], stale: Sequence[str] = ()
                     ) -> None:
    """The first write of every run: remove the completion marker and the files
    matching the ``stale`` patterns that a previous run left, then write the
    effective config."""
    (outdir / "config.json").unlink(missing_ok=True)
    for pattern in stale:
        for path in outdir.glob(pattern):
            path.unlink()
    write_json(outdir / "effective_config.json", {"format": "cmm-config/1", **effective})


def _cfg_as_dict(train_cfg: encoder.TrainConfig) -> dict[str, Any]:
    """The config's fields in declared order, with ``loss`` moved last."""
    d = asdict(train_cfg)
    d["loss"] = d.pop("loss")
    return d


# --- subcommand handlers ---------------------------------------------------

def cmd_generate(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    gen_cfg = _build_gen_config(config)
    dataset = synthdata.generate(gen_cfg)
    if gen_cfg.false_negative_rate > 0.0:
        dataset = synthdata.inject_false_negatives(dataset, gen_cfg.false_negative_rate,
                                                   seed=gen_cfg.seed)
    _write_effective(outdir, {"generate": gen_cfg.to_dict()})
    save_dataset_jsonl(dataset, str(outdir / "dataset.jsonl"))
    report = synthdata.distribution_report(dataset)
    write_json(outdir / "distribution_report.json",
               {"format": "cmm-distribution/1", **report.to_dict()})
    return 0


def cmd_train(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    _reject_unknown(config, ("dataset", "dev", "train", "arms"), "train")
    train_ds = _load_dataset(config, config_dir, "dataset")
    dev_ds = _load_dataset(config, config_dir, "dev")
    base = _build_train_config(_require(config, "train"))
    arms = config.get("arms")
    if arms is None:
        arms = [{"name": base.loss.kind, "loss": None}]
    if not isinstance(arms, list) or not arms:
        raise ConfigError("'arms' must be a non-empty list")
    names: list[str] = []
    cfgs: list[encoder.TrainConfig] = []
    for arm in arms:
        if not isinstance(arm, dict):
            raise ConfigError("each arm must be a JSON object")
        _reject_unknown(arm, ("name", "loss"), "arm")
        loss_cfg = base.loss if arm.get("loss") is None else _build_loss_config(arm["loss"])
        name = arm.get("name", loss_cfg.kind)
        if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
                or os.path.basename(name) != name):
            raise ConfigError(f"arm name must be a non-empty plain file name, got {name!r}")
        if name in names:
            raise ConfigError(f"arm name {name!r} is used twice")
        names.append(name)
        cfgs.append(replace(base, loss=loss_cfg))
    results = encoder.train(train_ds, dev_ds, cfgs)
    # a previous run's arm files go with its marker, even those of arms not trained again
    _write_effective(outdir, {"train": {"arms": [
        {"name": name, "train": _cfg_as_dict(cfg)} for name, cfg in zip(names, cfgs)]}},
        stale=("*.checkpoint.json", "*.trace.csv"))
    for name, cfg, (params, trace) in zip(names, cfgs, results):
        encoder.save_checkpoint(str(outdir / f"{name}.checkpoint.json"), params,
                                config=_cfg_as_dict(cfg))
        write_csv(outdir / f"{name}.trace.csv", [f.name for f in fields(encoder.TraceRecord)],
                  map(astuple, trace))
    traces = {name: trace for name, (_, trace) in zip(names, results)}
    write_csv(outdir / "positives.csv", evaluation.POSITIVES_HEADER,
              evaluation.positive_count_trace(traces))
    return 0


@dataclass(frozen=True)
class GridRow:
    kind: str
    gamma: float | None
    m: float | None
    seed: int
    dev_f1: float
    dev_ign_f1: float
    dev_positives: int


def _grid_arms(base: encoder.TrainConfig, kinds: Sequence[str], gammas: Sequence[float],
               ms: Sequence[float], seeds: Sequence[int]) -> list[tuple]:
    """(kind, gamma, m, seed, train config) per grid tuple, gamma and m as floats;
    cmm sweeps the grid, other kinds run once per seed. ValueError/TypeError on a
    bad kind, value or plugin name, a tuple listed twice, or a grid with no arm."""
    arms: dict[tuple, encoder.TrainConfig] = {}
    for kind in kinds:
        tuples = ([(float(g), float(m)) for g in gammas for m in ms] if kind == "cmm"
                  else [(None, None)])
        for gamma, m in tuples:
            for seed in seeds:
                if gamma is None:
                    loss_cfg = replace(base.loss, kind=kind)
                else:
                    loss_cfg = replace(base.loss, kind=kind, gamma=gamma, m=m)
                get_loss(loss_cfg)
                cfg = replace(base, loss=loss_cfg, seed=seed)
                key = (kind, gamma, m, seed)
                if key in arms:
                    raise ValueError(f"the grid lists (kind, gamma, m, seed) = {key!r} twice")
                arms[key] = cfg
    if not arms:
        raise ValueError("kinds, gammas, ms and seeds leave the grid with no arm")
    return [(*key, cfg) for key, cfg in arms.items()]


def run_compare_grid(train_ds, dev_ds, base: encoder.TrainConfig,
                     kinds: Sequence[str] = DEFAULT_COMPARE_KINDS,
                     gammas: Sequence[float] = GAMMA_GRID,
                     ms: Sequence[float] = M_GRID,
                     seeds: Sequence[int] = (0,)) -> list[GridRow]:
    """Train one arm per (kind, gamma, m, seed) tuple; cmm sweeps the grid,
    other kinds run once per seed. The arms of one seed train in lockstep;
    rows come back in tuple order."""
    arms = _grid_arms(base, kinds, gammas, ms, seeds)
    rows: list[GridRow | None] = [None] * len(arms)
    for seed in dict.fromkeys(arm[3] for arm in arms):
        group = [i for i, arm in enumerate(arms) if arm[3] == seed]
        results = encoder.train(train_ds, dev_ds, [arms[i][4] for i in group])
        for i, (_, trace) in zip(group, results):
            kind, gamma, m, _, _ = arms[i]
            final = trace[-1]
            rows[i] = GridRow(kind=kind, gamma=gamma, m=m, seed=seed, dev_f1=final.dev_f1,
                              dev_ign_f1=final.dev_ign_f1, dev_positives=final.dev_positives)
    return rows


def cmd_compare(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    _reject_unknown(config, ("dataset", "dev", "train", "kinds", "gammas", "ms", "seeds"),
                    "compare")
    train_ds = _load_dataset(config, config_dir, "dataset")
    dev_ds = _load_dataset(config, config_dir, "dev")
    base = _build_train_config(_require(config, "train"))
    try:
        kinds = config.get("kinds", list(DEFAULT_COMPARE_KINDS))
        seeds = config.get("seeds", [base.seed])
        for name, value, entries in (("kinds", kinds, "loss kinds"), ("seeds", seeds, "integers")):
            if not isinstance(value, list):
                raise TypeError(f"{name} must be a list of {entries}, got {value!r}")
        kinds, seeds = tuple(kinds), tuple(seeds)
        gammas, ms = loss_grid(config.get("gammas", GAMMA_GRID), config.get("ms", M_GRID))
        _grid_arms(base, kinds, gammas, ms, seeds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad compare config: {exc}") from exc
    rows = run_compare_grid(train_ds, dev_ds, base, kinds, gammas, ms, seeds)
    _write_effective(outdir, {"compare": {"train": _cfg_as_dict(base), "kinds": list(kinds),
                                          "gammas": list(gammas), "ms": list(ms),
                                          "seeds": list(seeds)}})
    best_idx = max(range(len(rows)), key=lambda i: rows[i].dev_f1)
    write_csv(outdir / "grid.csv", [f.name for f in fields(GridRow)] + ["best"],
              ([*astuple(row), int(i == best_idx)] for i, row in enumerate(rows)))
    return 0


def cmd_gradcheck(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    _reject_unknown(config, ("trials", "tolerance", "seed", "gammas", "ms", "logit_range",
                             "relation_counts", "step"), "gradcheck")
    try:
        report = gradcheck.check_gradients(**config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gradcheck config: {exc}") from exc
    _write_effective(outdir, {"gradcheck": {"trials": report.trials,
                                            "tolerance": report.tolerance,
                                            "seed": report.seed, "step": report.step}})
    write_json(outdir / "gradcheck.json", {"format": "cmm-gradcheck/1", **report.to_dict()})
    if not report.ok:
        print(f"error: {len(report.failures)} of {report.trials} gradient trials exceed "
              f"tolerance {report.tolerance}", file=sys.stderr)
    return 0 if report.ok else 2


def cmd_curves(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    _reject_unknown(config, ("gammas", "d_min", "d_max", "d_step"), "curves")
    try:
        gammas, _ = loss_grid(config.get("gammas", GAMMA_GRID), ())
        if not gammas:
            raise ValueError("gammas must not be empty")
        grid = evaluation.default_d_grid(config.get("d_min", -5.0), config.get("d_max", 5.0),
                                         config.get("d_step", 0.05))
        rows = evaluation.curve_export(gammas, grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad curves config: {exc}") from exc
    _write_effective(outdir, {"curves": {"gammas": [float(g) for g in gammas],
                                         "d_points": len(grid)}})
    write_csv(outdir / "curves.csv", evaluation.CURVE_HEADER, rows)
    return 0


def cmd_eval(config: dict[str, Any], config_dir: Path, outdir: Path) -> int:
    _reject_unknown(config, ("dataset", "checkpoint", "gold"), "eval")
    dataset = _load_dataset(config, config_dir, "dataset")
    ckpt_path = _resolve_path(_require(config, "checkpoint"), config_dir, "checkpoint")
    if not ckpt_path.is_file():
        raise ConfigError(f"config field 'checkpoint': no such file {ckpt_path}")
    gold_source = config.get("gold", "labels")
    if gold_source not in ("labels", "true_labels"):
        raise ConfigError(f"'gold' must be 'labels' or 'true_labels', got {gold_source!r}")
    params, _, _ = encoder.load_checkpoint(str(ckpt_path))
    if not len(dataset):
        raise SchemaError(f"{_resolve_path(config['dataset'], config_dir, 'dataset')}:1: "
                          f"dataset has no pair records to evaluate")
    logits = encoder.encode_batch(params, dataset.features)
    _write_effective(outdir, {"eval": {"gold": gold_source}})
    record = evaluation.mask_metrics(logits, getattr(dataset, gold_source),
                                     dataset.seen).to_dict()
    write_json(outdir / "metrics.json",
               {"format": "cmm-metrics/1", "gold": gold_source, "metrics": record})
    return 0


HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "curves": cmd_curves,
    "eval": cmd_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmm",
        description="Concentrated margin maximization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} step from a JSON config")
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument("-o", "--out", required=True,
                       help=f"output directory (relative paths resolve under "
                            f"${OUTPUT_ROOT_ENV} when set)")
    return parser


# built once per process, for in-process callers of main: building it takes
# over ten times as long as a parse
PARSER = _build_parser()

# Commands that build or read a dataset, tens of MiB of short-lived arrays and
# text. glibc's malloc keeps freed heap pages resident while a live allocation
# sits above them, and whether one does changes from run to run, so a
# command's peak would depend on where its caller's freed memory landed.
# Before one of these commands, main returns every free heap page
# (malloc_trim). The others skip the call: it would cost a small command more
# in page faults than it returns.
DATASET_COMMANDS = ("generate", "train", "compare", "eval")
try:
    MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
except (OSError, TypeError):    # no C library to open by name, as on Windows
    MALLOC_TRIM = None


def main(argv: Sequence[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    if MALLOC_TRIM is not None and args.command in DATASET_COMMANDS:
        MALLOC_TRIM(0)
    outdir = Path(args.out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not outdir.is_absolute():
        outdir = Path(root) / outdir
    config_path = Path(args.config)
    try:
        config, raw = _load_config(config_path)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {outdir} as the output directory "
                              f"({type(exc).__name__}: {exc.strerror})") from None
        # the explicit finiteness checks report non-finite values, in one line
        with np.errstate(all="ignore"):
            code = HANDLERS[args.command](config, config_path.resolve().parent, outdir)
        # the completion marker, written last: a rejected config leaves no copy
        with open_atomic(outdir / "config.json", "wb") as fh:
            fh.write(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
