"""Output checks of one repetition: each returns (quality, problems); no problems is a pass.

The checks read the JSONL files and CSVs with their own parser and recount
from raw data, so they stay independent of the code paths they check.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
from pathlib import Path

import numpy as np

from cmm.encoder import load_checkpoint
from cmm.schema import load_dataset_jsonl, save_dataset_jsonl

from common import EPOCHS, GRADCHECK_TRIALS, GRID_ARMS, TRACE_ARMS

FLOAT_TOL = 1e-12


def digest(outdir: Path) -> dict[str, str]:
    """SHA-256 of every file under outdir; reruns must reproduce it exactly."""
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh if line.strip()]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * p * r / (p + r) if p + r else 0.0


def recount(rows: list[dict], checkpoint: Path) -> dict[str, int]:
    """Brute-force tp/fp/fn (plain and Ign) of a linear checkpoint against `positives`."""
    params, _, _ = load_checkpoint(str(checkpoint))
    if params.architecture != "linear":
        raise ValueError(f"recount supports linear checkpoints, got {params.architecture!r}")
    x = np.array([r["features"] for r in rows], dtype=np.float64)
    logits = x @ params.tensors["W"].T + params.tensors["b"]
    predicted = logits[:, 1:] > logits[:, :1]
    c = dict.fromkeys(("tp", "fp", "fn", "ign_tp", "ign_fp", "ign_fn"), 0)
    for row, pred_mask in zip(rows, predicted):
        pred = {int(j) + 1 for j in np.nonzero(pred_mask)[0]}
        gold = set(row["positives"])
        seen = set(row["seen_in_train"])
        c["tp"] += len(pred & gold)
        c["fp"] += len(pred - gold)
        c["fn"] += len(gold - pred)
        c["ign_tp"] += len((pred - seen) & (gold - seen))
        c["ign_fp"] += len((pred - seen) - (gold - seen))
        c["ign_fn"] += len((gold - seen) - (pred - seen))
    return c


def _close(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= FLOAT_TOL


def check_grid(paths: dict[str, Path]) -> tuple[float, list[str]]:
    rows = read_csv(paths["dir"] / "compare" / "grid.csv")
    problems = []
    got = sorted((r["kind"], r["gamma"], r["m"]) for r in rows)
    want = sorted((k, "" if g is None else str(float(g)), "" if m is None else str(float(m)))
                  for k, g, m in GRID_ARMS)
    if got != want:
        return 0.0, [f"grid.csv arms {got} != {want}"]
    f1 = [float(r["dev_f1"]) for r in rows]
    best = [int(r["best"]) for r in rows]
    if best != [int(i == f1.index(max(f1))) for i in range(len(rows))]:
        problems.append(f"grid.csv best flags {best} do not mark the first max dev_f1")
    by_kind = {}
    for r, v in zip(rows, f1):
        by_kind[r["kind"]] = max(by_kind.get(r["kind"], 0.0), v)
    if not by_kind["cmm"] > by_kind["atl_reference"] > by_kind["plain_margin"]:
        problems.append(f"expected cmm > atl_reference > plain_margin, got {by_kind}")
    return by_kind["cmm"], problems


def check_trace(paths: dict[str, Path]) -> tuple[float, list[str]]:
    out = paths["dir"] / "train"
    problems = []
    _, dev_rows = read_jsonl(paths["dev_data"])
    final = {}
    for name, _, _ in TRACE_ARMS:
        trace = read_csv(out / f"{name}.trace.csv")
        if [int(r["epoch"]) for r in trace] != list(range(1, EPOCHS + 1)):
            problems.append(f"{name}.trace.csv does not hold epochs 1..{EPOCHS}")
            continue
        last = trace[-1]
        final[name] = float(last["dev_f1"])
        c = recount(dev_rows, out / f"{name}.checkpoint.json")
        if c["tp"] + c["fp"] != int(last["dev_positives"]):
            problems.append(f"{name}: dev_positives {last['dev_positives']} != recount "
                            f"{c['tp'] + c['fp']}")
        if not _close(f1_from_counts(c["tp"], c["fp"], c["fn"]), last["dev_f1"]):
            problems.append(f"{name}: dev_f1 {last['dev_f1']} disagrees with the recount")
        if not _close(f1_from_counts(c["ign_tp"], c["ign_fp"], c["ign_fn"]),
                      last["dev_ign_f1"]):
            problems.append(f"{name}: dev_ign_f1 {last['dev_ign_f1']} disagrees with the recount")
    if len(read_csv(out / "positives.csv")) != EPOCHS * len(TRACE_ARMS):
        problems.append("positives.csv row count")
    return final.get("cmm", 0.0), problems


def _distribution_problems(header: dict, rows: list[dict], report: dict) -> list[str]:
    counts = dict.fromkeys(range(1, header["schema"]["relation_count"] + 1), 0)
    for row in rows:
        for r in row["positives"]:
            counts[r] += 1
    n_facts = sum(counts.values())
    shares = sorted(((r, c, c / n_facts) for r, c in counts.items()), key=lambda t: (-t[1], t[0]))
    want = {
        "n_pairs": len(rows),
        "n_positive_pairs": sum(1 for row in rows if row["positives"]),
        "n_facts": n_facts,
        "n_hard": sum(1 for row in rows if row["difficulty"] == "hard"),
        "n_corrupted": sum(1 for row in rows if row["corrupted"]),
    }
    problems = [f"distribution_report {k}={report[k]} != recount {v}"
                for k, v in want.items() if report[k] != v]
    got = [(s["relation"], s["count"]) for s in report["shares"]]
    if got != [(r, c) for r, c, _ in shares]:
        problems.append("distribution_report shares disagree with the recount")
    elif not all(_close(s["share"], share) for s, (_, _, share) in zip(report["shares"], shares)):
        problems.append("distribution_report share values disagree with the recount")
    if not (_close(report["head_share"], shares[0][2])
            and _close(report["tail_share"], shares[-1][2])):
        problems.append("distribution_report head/tail shares disagree with the recount")
    return problems


def check_data(paths: dict[str, Path]) -> tuple[float, list[str]]:
    gen_out, eval_out = paths["dir"] / "generate", paths["dir"] / "eval"
    dataset = gen_out / "dataset.jsonl"
    problems = []
    resaved = paths["dir"] / "resaved.jsonl"
    save_dataset_jsonl(load_dataset_jsonl(str(dataset)), str(resaved))
    if not filecmp.cmp(dataset, resaved, shallow=False):
        problems.append("generated JSONL does not re-save byte-identical")
    resaved.unlink()
    header, rows = read_jsonl(dataset)
    report = json.loads((gen_out / "distribution_report.json").read_text(encoding="utf-8"))
    problems += _distribution_problems(header, rows, report)
    metrics = json.loads((eval_out / "metrics.json").read_text(encoding="utf-8"))["metrics"]
    c = recount(rows, paths["checkpoint"])
    for key in ("tp", "fp", "fn"):
        if metrics[key] != c[key]:
            problems.append(f"metrics.json {key}={metrics[key]} != recount {c[key]}")
    if not _close(metrics["ign_f1"], f1_from_counts(c["ign_tp"], c["ign_fp"], c["ign_fn"])):
        problems.append("metrics.json ign_f1 disagrees with the recount")
    return float(metrics["f1"]), problems


def check_gradcheck(paths: dict[str, Path]) -> tuple[float, list[str]]:
    report = json.loads((paths["dir"] / "gradcheck" / "gradcheck.json").read_text(encoding="utf-8"))
    problems = []
    if report["trials"] != GRADCHECK_TRIALS:
        problems.append(f"gradcheck ran {report['trials']} trials, not {GRADCHECK_TRIALS}")
    if report["n_failures"] or report["failures"]:
        problems.append(f"gradcheck reports {report['n_failures']} failures")
    return 1.0 - report["n_failures"] / max(report["trials"], 1), problems


CHECKS = {"grid": check_grid, "trace": check_trace, "data": check_data,
          "gradcheck": check_gradcheck}
