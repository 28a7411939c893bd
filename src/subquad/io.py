"""Structured-text (JSON) files for sample sets, models, frames and reports.

Reals are written with 17 significant digits, which pins down an IEEE
double uniquely: reading a file back reproduces the in-memory coefficients
bit for bit. Matrices are nested row-major lists. A float array is rendered
in one formatting call per 2-D block (a vector is the one-row case), and so
is a non-empty list or tuple of floats, from a format string built with one
vectorized test of which entries are integral; the bytes match
``format_real`` applied element by element.

Every loader reads its file through :func:`read_document`, which decodes
the bytes with ``orjson``: the same float64 bits as the ``json`` module,
for these 17 digits and for ``repr`` text alike, at a fraction of the
cost. Text that is not strict JSON (invalid UTF-8, ``NaN``, a number
beyond the double range) or that nests deeper than ``MAX_NESTING`` raises
:class:`FileFormatError`. The writer is unchanged but for strings that
hold a lone surrogate, whose escape ``orjson`` refuses (see
:func:`_quote`).

A model's gradient ambiguity is written in the form its
:class:`~subquad.models.GradientFamily` holds: an explicit basis as an
array, an implicit one as ``{"lifted": E, "complement_of": K}`` (about half
the floats of ``[E, orthonormal_complement(K)]``). The loader reads both; a
reader of the array form alone rejects the object as not numeric.

A subspace lift (``bridge.lift_mn``, ``lift_mfn``, ``lift_lfu``) holds its
Hessian as a :class:`~subquad.models.FactoredHessian` and writes it as the
factors, ``{"lifted": Hhat, "basis": Q}`` with ``Q`` of ``d`` columns, in
place of the ``n x n`` matrix. The loader keeps it factored, with the
file's ``href`` as the reference of least-change models, and never builds
the array: ``model.H`` materializes ``sym(Q M Q^T) + Href`` on first read.
``Q`` must have orthonormal columns to ``ORTHONORMALITY_TOL``, as the
implicit ambiguity's ``complement_of`` must. Fits, restrictions and
``d``-dimensional models write ``H`` as an array, and a reader of that form
alone rejects the object form as not numeric. A lift's gradient ambiguity
is the complement of that same ``Q``, so it is written ``"complement_of":
"basis"``, a reference to ``H.basis``, and ``Q`` is written once.

A model's ``href`` is written in its :func:`~subquad.models.held_reference`
form, ``{"diagonal": v}`` for the vector of its diagonal (``--href 0`` and
``I<n>``) and an array otherwise, and the loaded ``ModelResult`` holds it
again, so in the form it was written; an asymmetric one raises.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import orjson

from .errors import FileFormatError
from .geometry import SampleSet, SubspaceFrame
from .models import (
    FactoredHessian,
    GradientFamily,
    ModelResult,
    QuadraticModel,
)
from .simplex import DirectionBundle

MODEL_KINDS = ("dqi", "mn", "mfn", "lfu", "qgsd")


def format_real(value) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    value = float(value)
    if not np.isfinite(value):
        raise FileFormatError(f"cannot serialize non-finite real {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _layout(rendered: list, indent: int) -> str:
    """Bracket rendered items: inline when every item is short and one
    line, else one item per line."""
    if not rendered:
        return "[]"
    if all(len(r) < 26 and "\n" not in r for r in rendered):
        return "[" + ", ".join(rendered) + "]"
    pad = "  " * indent
    inner = "  " * (indent + 1)
    return "[\n" + ",\n".join(inner + r for r in rendered) + f"\n{pad}]"


#: A float entry's format and the text after it, indexed by
#: ``integral + 2 * last_in_row``. Integral entries below ``1e17`` are the
#: ones ``.17g`` prints without a point; ``.1f`` prints the same digits
#: plus ``.0``. The ``"\n"`` between rows is where the text is split.
_ENTRY_FORMATS = ("%.17g, ", "%.1f, ", "%.17g]\n[", "%.1f]\n[")


def _float_rows(block: np.ndarray) -> list:
    """The rows of a 2-D float64 array as ``format_real`` renders them
    element by element, in one ``%`` call. No entry exceeds 24
    characters, so each row is inline."""
    rows, cols = block.shape
    if rows == 0 or cols == 0:
        return ["[]"] * rows
    values = block.ravel().tolist()
    if not np.isfinite(block).all():
        for value in values:
            format_real(value)  # raises on the first non-finite entry
    index = ((block == np.trunc(block)) & (np.abs(block) < 1e17)).astype(
        np.intp
    )
    index[:, -1] += 2
    fmt = "[" + "".join([_ENTRY_FORMATS[i] for i in index.ravel().tolist()])
    return (fmt[:-2] % tuple(values)).split("\n")


#: Scalar types a list renders as one float row (``bool`` is not one).
_FLOATS = (float, np.floating)


def _quote(text: str) -> str:
    """A JSON string literal of ``text`` that ``read_document`` reads back.
    A lone surrogate has no UTF-8 form and ``orjson`` refuses its
    ``\\uXXXX`` escape. Python holds a byte of a path that is not UTF-8 as
    one, and that byte is written as the text ``\\xNN``; in a string with
    any other lone surrogate, each one is written as the text
    ``\\uXXXX``. Every other string keeps its bytes."""
    try:
        raw = text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        raw = text.encode("utf-8", "backslashreplace")
    return json.dumps(raw.decode("utf-8", "backslashreplace"))


def dumps(obj, indent: int = 0) -> str:
    """JSON text with 17-significant-digit reals."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{_quote(str(key))}: {dumps(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 or not np.issubdtype(obj.dtype, np.floating):
            return dumps(obj.tolist(), indent)
        if obj.ndim > 2:
            return _layout([dumps(sub, indent + 1) for sub in obj], indent)
        rows = _float_rows(np.atleast_2d(obj.astype(np.float64, copy=False)))
        return rows[0] if obj.ndim == 1 else _layout(rows, indent)
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(val, _FLOATS) for val in obj):
            return _float_rows(np.array([obj], dtype=np.float64))[0]
        return _layout([dumps(val, indent + 1) for val in obj], indent)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_real(obj)
    if isinstance(obj, str):
        return _quote(obj)
    raise FileFormatError(f"cannot serialize object of type {type(obj)!r}")


def write_document(path, obj) -> None:
    """Write ``obj`` as JSON text. The text is rendered before the file is
    opened, so a value :func:`dumps` refuses leaves the file untouched."""
    text = dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


#: The deepest nesting of arrays and objects :func:`read_document` decodes.
#: ``orjson`` recurses on the C stack without a limit and kills the process
#: from about 50,000 nested objects; the files this module writes nest at
#: most four deep.
MAX_NESTING = 1000


def _nests_too_deep(data: bytes) -> bool:
    """Whether the brackets of JSON text ``data`` nest deeper than
    ``MAX_NESTING``. Brackets inside strings count too, so the test errs
    toward refusing; a text with at most ``MAX_NESTING`` opening brackets
    is passed after one vectorized count."""
    codes = np.frombuffer(data, np.uint8) | 32  # "[" -> "{", "]" -> "}"
    opens = codes == ord("{")
    if np.count_nonzero(opens) <= MAX_NESTING:
        return False
    brackets = opens | (codes == ord("}"))
    depth = np.cumsum(np.where(opens[brackets], 1, -1))
    return int(depth.max()) > MAX_NESTING


def read_document(path) -> dict:
    """The top-level object of a JSON file, decoded by ``orjson``."""
    with open(path, "rb") as handle:
        data = handle.read()
    if _nests_too_deep(data):
        raise FileFormatError(
            f"{path}: nested deeper than {MAX_NESTING} levels"
        )
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a top-level object")
    return doc


def _need(doc: dict, key: str, path="document"):
    if key not in doc:
        raise FileFormatError(f"{path}: missing required field {key!r}")
    return doc[key]


def _need_int(doc: dict, key: str, path="document") -> int:
    value = _need(doc, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{path}: field {key!r} must be an integer")
    return value


def _as_array(value, name, path="document") -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: field {name!r} is not numeric"
        ) from exc
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path}: field {name!r} has non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# sample sets


def sampleset_to_dict(sample_set: SampleSet, config: dict | None = None):
    doc = {
        "n": sample_set.n,
        "x0": sample_set.x0,
        "displacements": sample_set.displacements,
        "values": sample_set.values,
    }
    if config:
        doc["config"] = config
    return doc


def load_sampleset(path) -> SampleSet:
    doc = read_document(path)
    n = _need_int(doc, "n", path)
    x0 = _as_array(_need(doc, "x0", path), "x0", path)
    disp = _as_array(
        _need(doc, "displacements", path), "displacements", path
    )
    values = _as_array(_need(doc, "values", path), "values", path)
    if disp.ndim == 1:
        disp = disp.reshape(-1, n) if n == 1 else disp.reshape(1, -1)
    if x0.shape != (n,) or disp.ndim != 2 or disp.shape[1] != n:
        raise FileFormatError(
            f"{path}: inconsistent dimensions (n={n}, x0 {x0.shape}, "
            f"displacements {disp.shape})"
        )
    return SampleSet(x0, disp, values)


def save_sampleset(path, sample_set: SampleSet,
                   config: dict | None = None) -> None:
    write_document(path, sampleset_to_dict(sample_set, config))


# ---------------------------------------------------------------------------
# models


def _basis_rows(value, name, n, path) -> np.ndarray:
    basis = _as_array(value, name, path)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise FileFormatError(f"{path}: {name} must have {n} rows")
    return basis


def _factored_hessian(value: dict, kind: str, href, n: int, path):
    """The :class:`FactoredHessian` of a factored ``"H"``: ``Q`` with ``n``
    rows, a square ``Hhat`` of its column count, and the file's ``href``
    for least-change models."""
    unknown = sorted(set(value) - {"lifted", "basis"})
    if unknown:
        raise FileFormatError(f"{path}: unknown H fields {unknown}")
    basis = _basis_rows(_need(value, "basis", path), "H.basis", n, path)
    core = _as_array(_need(value, "lifted", path), "H.lifted", path)
    k = basis.shape[1]
    if core.shape != (k, k):
        raise FileFormatError(f"{path}: H.lifted must be {k} x {k}")
    if kind == "lfu" and href is None:
        raise FileFormatError(
            f"{path}: a least-change model with a factored 'H' needs 'href'"
        )
    return FactoredHessian(basis, core, href if kind == "lfu" else None)


def _reference_hessian(value, n: int, path) -> np.ndarray:
    """``href`` from its array form, or its ``{"diagonal": v}`` form as
    ``v``."""
    if not isinstance(value, dict):
        href = _as_array(value, "href", path)
        if href.shape != (n, n):
            raise FileFormatError(f"{path}: href must be {n} x {n}")
        return href
    unknown = sorted(set(value) - {"diagonal"})
    if unknown:
        raise FileFormatError(f"{path}: unknown href fields {unknown}")
    diagonal = _as_array(_need(value, "diagonal", path), "href.diagonal", path)
    if diagonal.shape != (n,):
        raise FileFormatError(f"{path}: href.diagonal must have length {n}")
    return diagonal


def model_to_dict(result: ModelResult, config: dict | None = None):
    model = result.model
    doc = {
        "kind": result.kind,
        "n": model.n,
        "x0": model.x0,
        "c": model.c,
        "g": model.g,
        "H": model.hessian,
    }
    factored, basis = model.factored, None
    if factored is not None:
        basis = factored.basis
        doc["H"] = {"lifted": factored.core, "basis": basis}
    family = result.gradients
    kernel = family.complement_of
    if family.dim and kernel is None:
        doc["ambiguity_basis"] = family.explicit
    elif family.dim:
        if kernel is basis:
            kernel = "basis"
        doc["ambiguity_basis"] = {
            "lifted": family.explicit, "complement_of": kernel,
        }
    href = result.reference_hessian
    if href is not None:
        doc["href"] = {"diagonal": href} if href.ndim == 1 else href
    if result.correction_applied is not None:
        doc["correction_applied"] = bool(result.correction_applied)
    if config:
        doc["config"] = config
    return doc


def save_model(path, result: ModelResult,
               config: dict | None = None) -> None:
    write_document(path, model_to_dict(result, config))


def load_model(path) -> ModelResult:
    doc = read_document(path)
    kind = str(_need(doc, "kind", path)).lower()
    if kind not in MODEL_KINDS:
        raise FileFormatError(
            f"{path}: unknown model kind {kind!r}; expected one of "
            f"{MODEL_KINDS}"
        )
    n = _need_int(doc, "n", path)
    x0 = _as_array(_need(doc, "x0", path), "x0", path)
    grad = _as_array(_need(doc, "g", path), "g", path)
    hess = _need(doc, "H", path)
    href = None
    if "href" in doc:
        href = _reference_hessian(doc["href"], n, path)
    if isinstance(hess, dict):
        hess = _factored_hessian(hess, kind, href, n, path)
        shape = (n, n)
    else:
        hess = _as_array(hess, "H", path)
        shape = hess.shape
    if getattr(hess, "href", None) is not None:
        href = hess.href  # held by the factored Hessian already
    if x0.shape != (n,) or grad.shape != (n,) or shape != (n, n):
        raise FileFormatError(
            f"{path}: inconsistent model dimensions for n={n}"
        )
    constant = _need(doc, "c", path)
    if isinstance(constant, bool) or not isinstance(constant, (int, float)):
        raise FileFormatError(f"{path}: field 'c' must be a real number")
    model = QuadraticModel(x0, float(constant), grad, hess)
    ambiguity = doc.get("ambiguity_basis", np.zeros((n, 0)))
    kernel = None
    if isinstance(ambiguity, dict):
        unknown = sorted(set(ambiguity) - {"lifted", "complement_of"})
        if unknown:
            raise FileFormatError(
                f"{path}: unknown ambiguity_basis fields {unknown}"
            )
        explicit = _basis_rows(_need(ambiguity, "lifted", path),
                               "ambiguity_basis.lifted", n, path)
        kernel = _need(ambiguity, "complement_of", path)
        if kernel != "basis":
            kernel = _basis_rows(kernel, "ambiguity_basis.complement_of",
                                 n, path)
        elif model.factored is None:
            raise FileFormatError(
                f"{path}: ambiguity_basis.complement_of 'basis' needs a "
                "factored 'H'"
            )
        else:
            kernel = model.factored.basis
    else:
        explicit = _basis_rows(ambiguity, "ambiguity_basis", n, path)
    correction = doc.get("correction_applied")
    if "correction_applied" in doc and not isinstance(correction, bool):
        raise FileFormatError(
            f"{path}: field 'correction_applied' must be true or false"
        )
    return ModelResult(
        model, GradientFamily(grad, explicit, kernel), kind,
        reference_hessian=href, correction_applied=correction,
    )


# ---------------------------------------------------------------------------
# frames


def frame_to_dict(frame: SubspaceFrame, config: dict | None = None):
    doc = {
        "n": frame.n,
        "d": frame.d,
        "x0": frame.x0,
        "Q": frame.Q,
    }
    if frame.dhat is not None:
        doc["dhat"] = frame.dhat
    if config:
        doc["config"] = config
    return doc


def save_frame(path, frame: SubspaceFrame,
               config: dict | None = None) -> None:
    write_document(path, frame_to_dict(frame, config))


def load_frame(path) -> SubspaceFrame:
    doc = read_document(path)
    n = _need_int(doc, "n", path)
    d = _need_int(doc, "d", path)
    x0 = _as_array(_need(doc, "x0", path), "x0", path)
    basis = _as_array(_need(doc, "Q", path), "Q", path)
    if x0.shape != (n,) or basis.shape != (n, d):
        raise FileFormatError(
            f"{path}: inconsistent frame dimensions (n={n}, d={d})"
        )
    dhat = None
    if "dhat" in doc:
        dhat = _as_array(doc["dhat"], "dhat", path)
        if dhat.ndim != 2 or dhat.shape[1] != d:
            raise FileFormatError(f"{path}: dhat must have {d} columns")
    return SubspaceFrame(x0, basis, dhat)


# ---------------------------------------------------------------------------
# direction bundles


def load_bundle(path) -> tuple[DirectionBundle, np.ndarray]:
    """Read a direction bundle; returns ``(bundle, x0)``.

    The file holds ``n``, outer directions ``S`` (n rows, one column per
    direction), and either a shared inner block ``T`` or a per-direction
    ``T_list``. An optional ``x0`` defaults to the origin.
    """
    doc = read_document(path)
    n = _need_int(doc, "n", path)
    outer = _as_array(_need(doc, "S", path), "S", path)
    if outer.ndim != 2 or outer.shape[0] != n:
        raise FileFormatError(f"{path}: S must have {n} rows")
    if "T" in doc and "T_list" in doc:
        raise FileFormatError(f"{path}: give either T or T_list, not both")

    def inner(value, name):
        block = _as_array(value, name, path)
        if block.ndim != 2 or block.shape[0] != n:
            raise FileFormatError(f"{path}: {name} must be 2-D with {n} rows")
        return block

    if "T" in doc:
        bundle = DirectionBundle(outer, inner(doc["T"], "T"))
    elif "T_list" in doc:
        blocks = doc["T_list"]
        if not isinstance(blocks, list) or len(blocks) != outer.shape[1]:
            raise FileFormatError(
                f"{path}: T_list must be a list of {outer.shape[1]} blocks, "
                "one per column of S"
            )
        bundle = DirectionBundle(outer, [
            inner(block, f"T_list[{i}]") for i, block in enumerate(blocks)
        ])
    else:
        raise FileFormatError(f"{path}: missing inner directions (T/T_list)")
    x0 = np.zeros(n)
    if "x0" in doc:
        x0 = _as_array(doc["x0"], "x0", path)
        if x0.shape != (n,):
            raise FileFormatError(f"{path}: x0 must have length {n}")
    return bundle, x0


def save_bundle(path, bundle: DirectionBundle, x0=None,
                config: dict | None = None) -> None:
    doc: dict = {"n": bundle.n, "S": bundle.S}
    if bundle.shared:
        doc["T"] = bundle.T
    else:
        doc["T_list"] = [np.asarray(b) for b in bundle.blocks]
    if x0 is not None:
        doc["x0"] = np.asarray(x0, dtype=float)
    if config:
        doc["config"] = config
    write_document(path, doc)


# ---------------------------------------------------------------------------
# reference Hessians


def load_reference(spec: str, n: int) -> np.ndarray:
    """Resolve an ``--href`` argument: ``0`` and ``I<n>`` as the vector of
    their diagonal, or a file of ``n`` and a symmetric matrix ``H`` as read
    (the fit or lift checks it with ``held_reference``)."""
    text = str(spec).strip()
    if text == "0":
        return np.zeros(n)
    if text.upper().startswith("I") and text[1:].isdigit():
        k = int(text[1:])
        if k != n:
            raise FileFormatError(
                f"reference identity order {k} does not match dimension {n}"
            )
        return np.ones(n)
    doc = read_document(text)
    k = _need_int(doc, "n", text)
    hess = _as_array(_need(doc, "H", text), "H", text)
    if hess.shape != (k, k) or k != n:
        raise FileFormatError(
            f"{text}: reference Hessian must be {n} x {n}"
        )
    return hess


# ---------------------------------------------------------------------------
# reports and suite results


def save_report(path, report, config: dict | None = None) -> None:
    doc = report.to_dict()
    if config:
        doc["config"] = config
    write_document(path, doc)


def _nonfinite_gap(gap: float) -> str:
    """How a gap that is not finite is written: ``"nan"`` or ``"inf"``."""
    return "nan" if np.isnan(gap) else "inf"


def suite_rows(result) -> list[dict]:
    return [
        {
            "theorem": rec.suite,
            "trial": rec.trial,
            "n": rec.n,
            "d": rec.d,
            "m": rec.m,
            "function_class": rec.function_class,
            "gap": format_real(rec.gap) if np.isfinite(rec.gap)
            else _nonfinite_gap(rec.gap),
            "passed": rec.passed,
            "detail": rec.detail,
        }
        for rec in result.records
    ]


def save_suite_csv(path, result) -> None:
    """Per-trial table for one suite (comma-delimited text)."""
    fields = [
        "theorem", "trial", "n", "d", "m", "function_class",
        "gap", "passed", "detail",
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in suite_rows(result):
            writer.writerow(row)


def suite_summary(result) -> dict:
    return {
        "theorem": result.theorem,
        "trials": result.trials,
        "failures": result.failures,
        "max_gap": result.max_gap if np.isfinite(result.max_gap)
        else _nonfinite_gap(result.max_gap),
        "tol": result.tol,
        "seed": result.seed,
        "passed": result.passed,
        "gap_histogram": result.gap_histogram(),
    }


def save_suite_summary(path, results, config: dict | None = None) -> None:
    doc = {"suites": [suite_summary(r) for r in results]}
    doc["all_passed"] = all(r.passed for r in results)
    if config:
        doc["config"] = config
    write_document(path, doc)
