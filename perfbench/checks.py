"""Output-correctness checks, one per workload.

Each checker returns a list of problems; an empty list means the output is
correct.  The checkers only parse and compare, so the self-tests can feed
them corrupted outputs without running the program.
"""

from __future__ import annotations

import json

import numpy as np

DUAL_PATH_TOL = 1e-9
MARGIN_RTOL = 1e-9
GATHER_RTOL = 1e-12
EIGEN_TOL = 1e-9


def check_fuzz(record: dict, expected_tensors: int, reference: str | None) -> list[str]:
    """One fuzz campaign: summary ok, exact tensor count, dual paths, byte-identical report.

    ``record`` holds ``text``, the campaign's ``to_json`` serialized with
    sorted keys; ``reference`` is the same campaign's text from an earlier
    run, or None for the first run.
    """
    try:
        summary = json.loads(record["text"])
    except (KeyError, TypeError, json.JSONDecodeError) as bad:
        return [f"fuzz report is not JSON: {bad}"]
    problems = []
    if summary.get("ok") is not True:
        problems.append(f"fuzz summary not ok: {len(summary.get('violations', []))} violations")
    if summary.get("tensors") != expected_tensors:
        problems.append(f"fuzz tensor count {summary.get('tensors')} != {expected_tensors}")
    for key in ("max_quad_dual_rel", "max_eig_dual_rel"):
        value = summary.get(key)
        if not isinstance(value, float) or not value <= DUAL_PATH_TOL:
            problems.append(f"fuzz {key} = {value!r} exceeds {DUAL_PATH_TOL}")
    if reference is not None and record["text"] != reference:
        problems.append("fuzz report differs from an earlier run of the same campaign")
    return problems


def check_bounds(code: int, stdout: bytes, reference: list[dict], earlier: bytes | None) -> list[str]:
    """``curvop bounds --format json``: exit 0, all_ok, margins equal the reference.

    ``reference`` lists ``{"name", "margin", "lhs", "rhs"}`` from an
    in-process ``all_checks`` on the same tensor; ``earlier`` is the
    output of an earlier call on the same file, or None.
    """
    if code != 0:
        return [f"bounds exited {code}, expected 0"]
    try:
        doc = json.loads(stdout)
        checks = doc["checks"]
    except (KeyError, TypeError, json.JSONDecodeError) as bad:
        return [f"bounds output is not the JSON report: {bad}"]
    problems = []
    if doc.get("all_ok") is not True:
        problems.append("bounds all_ok is not true")
    if [c.get("name") for c in checks] != [r["name"] for r in reference]:
        problems.append("bounds check names differ from the reference")
    else:
        for got, want in zip(checks, reference):
            scale = max(1.0, abs(want["lhs"]), abs(want["rhs"]))
            margin = got.get("margin")
            if not isinstance(margin, float) or not abs(margin - want["margin"]) <= MARGIN_RTOL * scale:
                problems.append(
                    f"bounds margin {want['name']} = {margin!r}, reference {want['margin']!r}"
                )
    if earlier is not None and stdout != earlier:
        problems.append("bounds output differs from an earlier call on the same file")
    return problems


def first_kind_gather(R: np.ndarray) -> np.ndarray:
    """First-kind matrix by gather: entry ((i,j),(k,l)) = R[i,j,k,l] over i<j, k<l."""
    i, j = np.triu_indices(R.shape[0], 1)
    return R[i[:, None], j[:, None], i[None, :], j[None, :]]


def check_spectrum(code: int, stdout: bytes, expected_first: np.ndarray, second_dim: int) -> list[str]:
    """``curvop spectrum --matrices --format json``: the emitted matrices and eigenvalues.

    The first-kind matrix must equal ``expected_first`` (the gather of the
    tensor built at set-up) and each eigenvalue list must match
    ``eigvalsh`` of the emitted matrix.
    """
    if code != 0:
        return [f"spectrum exited {code}, expected 0"]
    try:
        doc = json.loads(stdout)
        parts = {
            kind: (
                np.array(doc["matrices"][kind]["entries"], dtype=float),
                np.array(doc[kind]["eigenvalues"], dtype=float),
            )
            for kind in ("first_kind", "second_kind")
        }
    except (KeyError, TypeError, ValueError) as bad:
        return [f"spectrum output is not the JSON report with matrices: {bad}"]
    problems = []
    first, _ = parts["first_kind"]
    scale = max(1.0, float(np.max(np.abs(expected_first))))
    if first.shape != expected_first.shape:
        problems.append(f"first-kind matrix shape {first.shape} != {expected_first.shape}")
    elif not np.max(np.abs(first - expected_first)) <= GATHER_RTOL * scale:
        problems.append("first-kind matrix differs from the gather R[i,j,k,l]")
    if parts["second_kind"][0].shape != (second_dim, second_dim):
        problems.append(f"second-kind matrix shape {parts['second_kind'][0].shape}")
    for kind, (matrix, values) in parts.items():
        if matrix.ndim != 2 or values.shape != matrix.shape[:1]:
            problems.append(f"{kind}: {values.size} eigenvalues for matrix {matrix.shape}")
            continue
        want = np.linalg.eigvalsh(matrix)
        tol = EIGEN_TOL * max(1.0, float(np.max(np.abs(want))))
        if not np.max(np.abs(values - want)) <= tol:
            problems.append(f"{kind} eigenvalues differ from eigvalsh of the emitted matrix")
    return problems


def check_cli(code: int, stdout: bytes, expected_code: int, reference: bytes) -> list[str]:
    """Small CLI call: exit code per the 0/1/2 contract and byte-identical stdout."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if stdout != reference:
        problems.append("stdout differs from the reference run")
    return problems
