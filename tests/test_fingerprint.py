"""Smoke test of ``scripts/fingerprint.py``, the bit-identity check of a grid's solves."""

import importlib.util
import json
import re
import sys
from pathlib import Path

from scare_radi.bench import ExperimentConfig, grid_cells

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"


def _fingerprint_main():
    spec = importlib.util.spec_from_file_location("fingerprint_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_grid_fingerprint_prints_cells_variants_and_total(tmp_path, monkeypatch, capsys):
    # main() puts src/ and perfbench/ on sys.path; a copy keeps that edit
    # out of later tests.
    monkeypatch.setattr(sys, "path", list(sys.path))
    config = {
        "generate": {"kind": "heat", "n": 20, "m": 2, "l": 2},
        "r_cases": [1, 2],
        "noise_scales": [1e-3],
        "variants": [["hamiltonian", 1, "cached"], ["projection", 1, "per_iteration"]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    main = _fingerprint_main()
    outputs = []
    for _ in range(2):
        assert main(["--grid", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    labels = [label for label, _, _ in grid_cells(ExperimentConfig.from_json(path))]
    lines = outputs[0].splitlines()
    assert len(lines) == len(labels) + 2 + 1
    per_variant = {}
    for label, line in zip(labels, lines):
        match = re.fullmatch(
            re.escape(label) + r" iterations=(\d+) xi_width=(\d+) gamma=[0-9a-f]{64}", line
        )
        assert match, line
        variant = label.split("__", 1)[1]
        per_variant[variant] = per_variant.get(variant, 0) + int(match[1])
    assert lines[len(labels):-1] == [
        f"variant {variant} iterations={iterations}" for variant, iterations in per_variant.items()
    ]
    assert lines[-1] == f"total cells={len(labels)} iterations={sum(per_variant.values())}"
