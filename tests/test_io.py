"""The JSON writer and the typed loader errors.

``io.dumps`` renders each 2-D block of a float array in one formatting
call; the golden tests pin it byte for byte to the recursive per-element
writer kept in ``reference_writer.py``, and the round-trip properties pin
the promise that a save/load round trip is bit-exact.
"""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import axis_frame, unit_square_set
from reference_writer import reference_dumps, reference_read_array
from subquad import io, linalg, models
from subquad.bridge import lift_lfu, lift_mfn, lift_mn, restrict
from subquad.cli import main
from subquad.errors import (
    DimensionMismatchError,
    FileFormatError,
    NotSquareError,
    SubquadError,
)
from subquad.geometry import SampleSet, detect_subspace, hat_sampleset
from subquad.models import (
    FactoredHessian,
    GradientFamily,
    ModelResult,
    QuadraticModel,
    _reference_fit,
    dense_reference,
    fit_lfu,
    fit_mfn,
    fit_mn,
    restricted_reference,
)
from subquad.simplex import DirectionBundle

#: Reals at the edges of the writer's rules: signed zeros, integral floats
#: on both sides of ``1e17`` (where ``.17g`` starts to use an exponent),
#: the smallest subnormal and the extremes of the exponent range.
EDGE_REALS = [
    -0.0, 0.0, 1.0, -3.0, 12345.0, 2.0**53, 1e16, -1e16,
    99999999999999984.0, 1e17, -1e17, 1.0000000000000002e17, 1e22,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
    1.7976931348623157e308, 0.5, -0.25, 0.1, 2.0 / 3.0, 4503599627370495.5,
]


def _real(rng):
    pick = rng.integers(4)
    if pick == 0:
        return float(rng.choice(EDGE_REALS))
    if pick == 1:
        return float(rng.integers(-10**6, 10**6))
    if pick == 2:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 300))
    return float(rng.standard_normal())


def _array(rng):
    ndim = int(rng.integers(0, 4))
    shape = tuple(int(s) for s in rng.integers(0, 5, size=ndim))
    if ndim and rng.random() < 0.3:
        shape = shape[:-1] + (int(rng.integers(5, 40)),)
    size = int(np.prod(shape))
    kind = rng.integers(5)
    if kind == 0:
        return rng.integers(-1000, 1000, size=shape)
    values = np.array([_real(rng) for _ in range(size)]).reshape(shape)
    if kind == 1:
        return np.clip(values, -3e38, 3e38).astype(np.float32)
    if kind == 2:
        return np.asfortranarray(values)
    return values


def _document(rng, depth=0):
    pick = rng.integers(10) if depth < 3 else rng.integers(5, 10)
    if pick < 2:
        return {f"k{i}": _document(rng, depth + 1)
                for i in range(int(rng.integers(0, 4)))}
    if pick < 4:
        items = [_document(rng, depth + 1)
                 for _ in range(int(rng.integers(0, 5)))]
        return items if pick == 2 else tuple(items)
    if pick < 7:
        return _array(rng)
    leaves = [_real(rng), np.float32(_real(rng) % 3e38),
              int(rng.integers(-9, 9)), bool(rng.integers(2)), None,
              "a \"str\"\n"]
    return leaves[int(rng.integers(len(leaves)))]


#: Floats the writer must render as ``format_real`` does: any finite
#: double, the edge reals, integral values around ``1e16`` and ``1e17``
#: (on both sides of the ``.1f`` rule) and subnormals.
WRITER_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_REALS),
    st.integers(-3 * 10**17, 3 * 10**17).map(float),
    st.floats(min_value=-2.2250738585072014e-308,
              max_value=2.2250738585072014e-308),
)


class TestGoldenBytes:
    def test_random_documents(self):
        rng = np.random.default_rng(20261018)
        for _ in range(1500):
            doc = {"n": 3, "body": _document(rng)}
            assert io.dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("shape", [
        (0,), (0, 4), (4, 0), (1, 1), (6, 1), (2, 2), (3, 30), (2, 3, 4),
        (2, 0, 3), (1, 1, 1),
    ])
    def test_shapes(self, shape):
        rng = np.random.default_rng(7)
        values = rng.choice(EDGE_REALS, size=shape)
        single = np.clip(values, -3e38, 3e38).astype(np.float32)
        for arr in (values, single, np.rint(values[..., ::-1] % 7)):
            doc = {"a": arr, "nested": [arr, {"b": arr}]}
            assert io.dumps(doc) == reference_dumps(doc)

    def test_edge_reals_in_one_row(self):
        row = np.array(EDGE_REALS)
        assert io.dumps(row) == reference_dumps(row)
        assert io.dumps(-row) == reference_dumps(-row)
        toward = np.array([0.0, 1e17, 1e18], dtype=np.float32)
        near = np.nextafter(np.float32(1e17), toward)
        assert io.dumps(near) == reference_dumps(near)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_same_error(self, bad):
        for arr in (np.array([1.0, bad, np.nan]),
                    np.array([[0.5, 2.0], [np.inf, bad]])[::-1],
                    np.array([bad], dtype=np.float32),
                    np.array([[[0.5]], [[-0.0]], [[bad]]])):
            doc = {"ok": [1.0], "a": arr}
            with pytest.raises(FileFormatError) as expected:
                reference_dumps(doc)
            with pytest.raises(FileFormatError) as actual:
                io.dumps(doc)
            assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("items", [
        [0.5], EDGE_REALS, tuple(EDGE_REALS[::-1]),
        [np.float32(0.1), np.float64(1e300), 3.0, np.float16(-2.5)],
        [1.0, 2, 0.5], [True, 1.5, False], [True, False], [3, -4],
        [1.0, None], [], (), [[0.5, 1.0], [], [2.0]],
    ])
    def test_lists(self, items):
        """Lists and tuples of floats take the one-call row; mixed, empty
        and nested ones keep the per-element path."""
        doc = {"a": items, "nested": [items, {"b": items}]}
        assert io.dumps(items) == reference_dumps(items)
        assert io.dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_list_entry_same_error(self, bad):
        for items in ([1.0, bad, np.nan], (bad,), [np.float32(bad), 0.5]):
            with pytest.raises(FileFormatError) as expected:
                reference_dumps({"a": items})
            with pytest.raises(FileFormatError) as actual:
                io.dumps({"a": items})
            assert str(actual.value) == str(expected.value)

    @given(st.lists(WRITER_FLOATS, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_float_lists_property(self, items):
        assert io.dumps(items) == reference_dumps(items)
        assert io.dumps(tuple(items)) == reference_dumps(tuple(items))

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
        elements=WRITER_FLOATS,
    ))
    @settings(max_examples=300, deadline=None)
    def test_float_arrays_property(self, arr):
        assert io.dumps(arr) == reference_dumps(arr)
        doc = {"a": arr, "nested": [arr[..., :1], {"b": arr}]}
        assert io.dumps(doc) == reference_dumps(doc)


def test_failed_write_keeps_the_file(tmp_path):
    """The text is rendered before the file is opened: a value ``dumps``
    refuses leaves the file it would replace byte for byte."""
    path = tmp_path / "doc.json"
    io.write_document(str(path), {"gap": 1.5, "rows": np.eye(2)})
    before = path.read_bytes()
    with pytest.raises(FileFormatError, match="non-finite"):
        io.write_document(str(path), {"gap": float("nan")})
    assert path.read_bytes() == before


class TestStrings:
    """Keys and strings with a lone surrogate are written so that the
    reader takes them back; every other string keeps its text."""

    @pytest.mark.parametrize("text, read", [
        ("plain", "plain"),
        ("\u00e9\U0001f600\t\"", "\u00e9\U0001f600\t\""),
        ("full\udcff.json", "full\\xff.json"),
        ("a\ud800\udcff", "a\\ud800\\udcff"),
    ])
    def test_written_strings_read_back(self, tmp_path, text, read):
        path = str(tmp_path / "doc.json")
        io.write_document(path, {text: [text]})
        assert io.read_document(path) == {read: [read]}


class TestNesting:
    """``read_document`` decodes text nested ``MAX_NESTING`` deep and
    refuses deeper text before decoding it; many shallow brackets pass."""

    @pytest.mark.parametrize("depth", [io.MAX_NESTING, io.MAX_NESTING + 1])
    def test_limit(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        inner = depth - 1  # arrays inside the top-level object
        shallow = "[], " * io.MAX_NESTING  # past the one-count pass
        path.write_text(
            '{"a": ' + "[" * inner + "]" * inner + f', "b": [{shallow}[]]}}'
        )
        if depth <= io.MAX_NESTING:
            assert "a" in io.read_document(str(path))
        else:
            with pytest.raises(FileFormatError, match="nested deeper"):
                io.read_document(str(path))

    def test_many_shallow_brackets(self, tmp_path):
        path = tmp_path / "rows.json"
        io.write_document(str(path), {"rows": np.ones((5000, 2))})
        assert len(io.read_document(str(path))["rows"]) == 5000


def _lifted_mfn(n=300, d=4, m=10, seed=5):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    dhat = rng.standard_normal((m, d))
    x0 = rng.standard_normal(n)
    hess = rng.standard_normal((n, n))
    grad = rng.standard_normal(n)
    disp = dhat @ q.T
    values = np.concatenate([[0.0], disp @ grad + 0.5 * np.einsum(
        "ij,jk,ik->i", disp, hess, disp)])
    full = SampleSet(x0, disp, values)
    frame = detect_subspace(full)
    return lift_mfn(fit_mfn(hat_sampleset(full, frame)), frame)


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.int64)


class TestRoundTrip:
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    @settings(max_examples=200, deadline=None)
    def test_float_arrays_bit_exact(self, arr):
        back = np.array(json.loads(io.dumps(arr)))
        assert back.dtype == np.float64 and back.shape == arr.shape
        np.testing.assert_array_equal(_bits(back), _bits(arr))

    @given(st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))
    ).filter(np.isfinite))
    @example(-0.0)
    @example(5e-324)
    @example(-1.2345678901234e-310)
    @example(-2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    @example(99999999999999984.0)
    @example(1e17)
    @settings(max_examples=300, deadline=None)
    def test_any_double_reads_back_bit_exactly(self, tmp_path_factory,
                                               value):
        """``read_document`` returns the bits of every finite double, as
        ``dumps`` writes it and as its ``repr`` (what other tools write)."""
        path = tmp_path_factory.mktemp("real") / "real.json"
        text = io.dumps({"scalar": value, "row": np.array([value, value])})
        path.write_text(f'{text[:-1]}, "repr": {value!r}}}', encoding="utf-8")
        doc = io.read_document(str(path))
        want = _bits(value)
        for got in (doc["scalar"], *doc["row"], doc["repr"]):
            assert type(got) is float and _bits(got) == want

    def test_lifted_mfn_n300(self, tmp_path):
        result = _lifted_mfn()
        assert result.gradients.ambiguity_basis.shape == (300, 296)
        path = tmp_path / "lifted.json"
        io.save_model(str(path), result)
        assert path.read_text(encoding="utf-8") == (
            reference_dumps(io.model_to_dict(result)) + "\n"
        )
        loaded = io.load_model(str(path))
        for got, want in (
            (loaded.model.x0, result.model.x0),
            (loaded.model.g, result.model.g),
            (loaded.model.H, result.model.H),
            (loaded.gradients.ambiguity_basis,
             result.gradients.ambiguity_basis),
        ):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        assert _bits(loaded.model.c) == _bits(result.model.c)


def _valid_documents(tmp_path):
    """One valid file per loader, as ``{name: (path, loader)}``."""
    files = {}
    path = tmp_path / "samples.json"
    io.save_sampleset(str(path), unit_square_set())
    files["sampleset"] = (path, io.load_sampleset)
    path = tmp_path / "model.json"
    io.save_model(str(path), fit_mfn(unit_square_set()))
    files["model"] = (path, io.load_model)
    path = tmp_path / "frame.json"
    io.save_frame(str(path), axis_frame())
    files["frame"] = (path, io.load_frame)
    path = tmp_path / "bundle.json"
    io.save_bundle(str(path), DirectionBundle(np.eye(3), np.eye(3)))
    files["bundle"] = (path, io.load_bundle)
    path = tmp_path / "href.json"
    path.write_text(json.dumps({"n": 3, "H": np.eye(3).tolist()}))
    files["href"] = (path, lambda p: io.load_reference(p, 3))
    return files


#: The value that stands for a key taken out of a document.
_DROP = object()


def _rewrite(path, key, value):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestTypedLoaderErrors:
    @pytest.mark.parametrize("name,key", [
        ("sampleset", "n"), ("model", "n"), ("frame", "n"), ("frame", "d"),
        ("bundle", "n"), ("href", "n"),
    ])
    @pytest.mark.parametrize("value", ["abc", 2.5, 3.0, True, None, [3]])
    def test_dimension_must_be_an_integer(self, tmp_path, name, key, value):
        path, loader = _valid_documents(tmp_path)[name]
        loader(str(path))
        _rewrite(path, key, value)
        with pytest.raises(FileFormatError, match="must be an integer"):
            loader(str(path))

    @pytest.mark.parametrize("value", [True, False, "1.0", None])
    def test_model_constant_must_be_a_real(self, tmp_path, value):
        path, loader = _valid_documents(tmp_path)["model"]
        _rewrite(path, "c", value)
        with pytest.raises(FileFormatError, match="'c' must be a real"):
            loader(str(path))

    @pytest.mark.parametrize("value", ["abc", 2.5])
    def test_cli_reports_bad_dimension(self, tmp_path, capsys, value):
        path, _ = _valid_documents(tmp_path)["sampleset"]
        _rewrite(path, "n", value)
        code = main(["fit", "--kind", "mn", "--in", str(path),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_correction_flag_accepts_json_bools(self, tmp_path, value):
        path, loader = _valid_documents(tmp_path)["model"]
        assert loader(str(path)).correction_applied is None
        _rewrite(path, "correction_applied", value)
        assert loader(str(path)).correction_applied is value

    @pytest.mark.parametrize(
        "value", ["false", "true", 0, 1, 0.0, [], {}, None]
    )
    def test_correction_flag_must_be_a_bool(self, tmp_path, value):
        path, loader = _valid_documents(tmp_path)["model"]
        _rewrite(path, "correction_applied", value)
        with pytest.raises(FileFormatError, match="true or false"):
            loader(str(path))

    def test_cli_reports_bad_correction_flag(self, tmp_path, capsys):
        files = _valid_documents(tmp_path)
        path = files["model"][0]
        _rewrite(path, "correction_applied", "false")
        code = main(["subspace", "restrict", "--model", str(path),
                     "--frame", str(files["frame"][0]),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "correction_applied" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("T_list", 5), ("T_list", None), ("T_list", "abc"), ("T_list", {}),
        ("T_list", [[1.0, 0.0], [0.0, 1.0]]),
        ("T_list", [[[1.0], [0.0]]]),
        ("T_list", [[[1.0], [0.0]]] * 3),
        ("T_list", [[[1.0], [0.0], [0.0]], [[1.0], [0.0]]]),
        ("T", [1.0, 0.0]), ("T", [[1.0, 0.0, 0.0]]),
    ], ids=["int", "null", "string", "object", "1-D blocks", "too few",
            "too many", "block rows", "1-D T", "T rows"])
    def test_inner_directions_must_fit_the_outer(self, tmp_path, key,
                                                 value):
        """One 2-D, n-row block per column of S, or one shared block."""
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(
            {"n": 2, "S": [[1.0, 0.0], [0.0, 1.0]], key: value}
        ))
        with pytest.raises(FileFormatError, match=key):
            io.load_bundle(str(path))

    def test_per_direction_blocks_load(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"n": 2, "S": [[1.0, 0.0], [0.0, 1.0]],
                                    "T_list": [[[1.0], [0.0]]] * 2}))
        bundle, _ = io.load_bundle(str(path))
        assert not bundle.shared and len(bundle.blocks) == 2

    @pytest.mark.parametrize("value", [5, None, [[1.0, 0.0], [0.0, 1.0]]])
    def test_cli_reports_bad_inner_blocks(self, tmp_path, capsys, value):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(
            {"n": 2, "S": [[1.0, 0.0], [0.0, 1.0]], "T_list": value}
        ))
        code = main(["fit", "--kind", "qgsd", "--function", "sphere",
                     "--in", str(path), "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("sampleset", None, [1.0, 2.0]),
        ("sampleset", "x0", [0.0, 0.0]),
        ("model", "kind", "zzz"),
        ("model", "g", [0.0, 0.0]),
        ("model", "href", [[1.0, 0.0], [0.0, 1.0]]),
        ("frame", "Q", [[1.0], [0.0], [0.0]]),
        ("frame", "dhat", [[1.0], [0.0], [1.0]]),
        ("bundle", "S", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        ("bundle", "T_list", [[[1.0], [0.0], [0.0]]] * 3),
        ("bundle", "T", _DROP),
        ("bundle", "x0", [0.0, 0.0]),
        ("href", None, {"n": 2, "H": [[1.0, 0.0], [0.0, 1.0]]}),
    ], ids=["top-level array", "sample-set x0", "model kind", "model g",
            "href shape", "frame Q", "dhat columns", "bundle S rows",
            "bundle T and T_list", "bundle neither", "bundle x0",
            "href file order"])
    def test_cli_reports_bad_shapes(self, tmp_path, capsys, name, key,
                                    value):
        """Each loader's shape checks end in exit 1 with one ``error:``
        line through the command that reads that file."""
        documents = _valid_documents(tmp_path)
        files = {kind: str(path) for kind, (path, _) in documents.items()}
        path = documents[name][0]
        if key is None:
            path.write_text(json.dumps(value), encoding="utf-8")
        elif value is _DROP:
            doc = json.loads(path.read_text(encoding="utf-8"))
            del doc[key]
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            _rewrite(path, key, value)
        out = str(tmp_path / "out.json")
        argv = {
            "sampleset": ["subspace", "detect", "--in", files["sampleset"]],
            "model": ["subspace", "restrict", "--model", files["model"],
                      "--frame", files["frame"]],
            "frame": ["subspace", "restrict", "--model", files["model"],
                      "--frame", files["frame"]],
            "bundle": ["fit", "--kind", "qgsd", "--function", "sphere",
                       "--in", files["bundle"]],
            "href": ["fit", "--kind", "lfu", "--href", files["href"],
                     "--in", files["sampleset"]],
        }[name]
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not os.path.exists(out)

    def test_cli_reports_bool_constant(self, tmp_path, capsys):
        files = _valid_documents(tmp_path)
        path = files["model"][0]
        _rewrite(path, "c", True)
        code = main(["subspace", "restrict", "--model", str(path),
                     "--frame", str(files["frame"][0]),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _explicit(result):
    """``result`` with its ambiguity held as one explicit basis, the form
    every model file took before the implicit one."""
    family = result.gradients
    return dataclasses.replace(result, gradients=GradientFamily(
        family.canonical, family.ambiguity_basis
    ))


def _malformed(name, explicit, kernel):
    """``(array-form value, object-form value)`` of ``ambiguity_basis``, both
    broken the same way."""
    n = kernel.shape[0]
    complement = linalg.orthonormal_complement(kernel)
    basis = np.hstack([explicit, complement])
    wide = np.hstack([np.eye(n), np.eye(n)[:, :1]])
    new = {"lifted": explicit, "complement_of": kernel}
    if name == "non-numeric":
        return "abc", {**new, "complement_of": "abc"}
    if name == "rows":
        return basis[:-1], {**new, "complement_of": kernel[:-1]}
    if name == "k > n":
        return wide, {**new, "complement_of": wide}
    if name == "not orthonormal":
        return 2.0 * basis, {**new, "complement_of": 2.0 * kernel}
    if name == "outside span":
        return (np.hstack([complement[:, :1], complement]),
                {**new, "lifted": complement[:, :1]})
    if name == "unknown key":
        return "abc", {**new, "extra": [1.0]}
    assert name == "missing key"
    return "abc", {"complement_of": kernel}


class TestImplicitAmbiguity:
    """Lifted and least-change models write ``{"lifted": E,
    "complement_of": K}`` for the ambiguity ``col(E) + col(K)^perp``."""

    def test_lifted_model_writes_the_implicit_form(self):
        result = _lifted_mfn()
        doc = io.model_to_dict(result)
        ambiguity = doc["ambiguity_basis"]
        assert set(ambiguity) == {"lifted", "complement_of"}
        assert ambiguity["lifted"].shape == (300, 0)
        assert ambiguity["complement_of"] == "basis"
        assert doc["H"]["basis"].shape == (300, 4)

    def test_round_trip_keeps_the_form_bit_exactly(self, tmp_path):
        result = _lifted_mfn()
        path = tmp_path / "lifted.json"
        io.save_model(str(path), result)
        family = io.load_model(str(path)).gradients
        assert family.dim == result.gradients.dim
        np.testing.assert_array_equal(
            _bits(family.complement_of), _bits(result.gradients.complement_of)
        )
        assert family.explicit.shape == (300, 0)

    def test_array_form_loads_bit_exactly(self, tmp_path):
        result = _lifted_mfn()
        path = tmp_path / "old.json"
        path.write_text(
            reference_dumps(io.model_to_dict(_explicit(result))) + "\n",
            encoding="utf-8",
        )
        family = io.load_model(str(path)).gradients
        assert family.complement_of is None
        np.testing.assert_array_equal(
            _bits(family.ambiguity_basis),
            _bits(result.gradients.ambiguity_basis),
        )

    def test_file_is_at_most_055_of_the_array_form(self):
        result = _lifted_mfn()
        implicit = len(io.dumps(io.model_to_dict(result)))
        explicit = len(io.dumps(io.model_to_dict(_explicit(result))))
        assert implicit <= 0.55 * explicit

    def test_fit_lift_save_load_builds_no_complement(self, tmp_path,
                                                     monkeypatch):
        calls = []
        complement = linalg.orthonormal_complement
        monkeypatch.setattr(linalg, "orthonormal_complement",
                            lambda q: calls.append(q.shape) or complement(q))
        result = _lifted_mfn()
        path = tmp_path / "lifted.json"
        io.save_model(str(path), result)
        assert io.load_model(str(path)).gradients.dim == 296
        assert calls == []
        assert result.gradients.ambiguity_basis.shape == (300, 296)
        assert calls == [(300, 4)]

    @pytest.mark.parametrize("name,error", [
        ("non-numeric", FileFormatError),
        ("rows", FileFormatError),
        ("k > n", DimensionMismatchError),
        ("not orthonormal", DimensionMismatchError),
        ("outside span", DimensionMismatchError),
        ("unknown key", FileFormatError),
        ("missing key", FileFormatError),
    ])
    def test_malformed_field_fails_as_the_array_form_does(
            self, tmp_path, capsys, name, error):
        result = _lifted_mfn(n=6, d=2, m=3)
        frame_path = tmp_path / "frame.json"
        io.save_frame(str(frame_path), axis_frame())
        family = result.gradients
        codes = []
        for value in _malformed(name, family.explicit, family.complement_of):
            path = tmp_path / "model.json"
            doc = io.model_to_dict(result)
            doc["ambiguity_basis"] = value
            io.write_document(str(path), doc)
            with pytest.raises(SubquadError) as caught:
                io.load_model(str(path))
            assert type(caught.value) is error
            codes.append(main([
                "subspace", "restrict", "--model", str(path),
                "--frame", str(frame_path), "--out", str(tmp_path / "o.json"),
            ]))
            assert "error:" in capsys.readouterr().err
        assert codes[0] == codes[1] == (1 if error is FileFormatError else 2)
        assert not (tmp_path / "o.json").exists()


def _subspace_instance(n, d):
    """A quadratic's values on ``2 d + 2`` steps in a random ``d``-dim
    subspace of R^n, with a random full-space reference Hessian."""
    rng = np.random.default_rng(1000 * n + d)
    basis, _ = np.linalg.qr(rng.standard_normal((n, d)))
    disp = rng.standard_normal((2 * d + 2, d)) @ basis.T
    grad = rng.standard_normal(n)
    hess = linalg.sym_part(rng.standard_normal((n, n)))
    curvature = np.einsum("ij,jk,ik->i", disp, hess, disp)
    values = 0.5 + np.concatenate([[0.0], disp @ grad + 0.5 * curvature])
    full = SampleSet(rng.standard_normal(n), disp, values)
    return full, linalg.sym_part(rng.standard_normal((n, n)))


def _factored_lift(kind, n, d, tmp_path=None):
    """``(lift, frame)`` of a subspace fit. With ``tmp_path`` the frame and
    the subspace fit go through files first, as in ``subquad subspace
    lift``; without it they come straight from ``detect_subspace``."""
    full, href = _subspace_instance(n, d)
    frame = detect_subspace(full)
    hatted = hat_sampleset(full, frame)
    if kind == "lfu":
        sub = fit_lfu(hatted, linalg.sym_part(frame.Q.T @ href @ frame.Q))
    else:
        sub = (fit_mn if kind == "mn" else fit_mfn)(hatted)
    if tmp_path is not None:
        io.save_frame(str(tmp_path / "frame.json"), frame)
        frame = io.load_frame(str(tmp_path / "frame.json"))
        io.save_model(str(tmp_path / "sub.json"), sub)
        sub = io.load_model(str(tmp_path / "sub.json"))
    if kind == "lfu":
        return lift_lfu(sub, frame, href), frame
    return (lift_mn if kind == "mn" else lift_mfn)(sub, frame), frame


def _family_arrays(family):
    kernel = family.complement_of
    return (family.canonical, family.explicit,
            np.zeros((0, 0)) if kernel is None else kernel)


def _array_form(result):
    """``result`` as a model file written before lifts kept factors."""
    model = result.model
    return dataclasses.replace(
        result, model=QuadraticModel(model.x0, model.c, model.g, model.H)
    )


class TestFactoredHessian:
    """Lifts write ``"H"`` as ``{"lifted": Hhat, "basis": Q}`` and the
    loader rebuilds the lift's own bits."""

    @pytest.mark.parametrize("source", ["detect", "file"])
    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("n", [100, 300])
    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_lift_save_load_is_bit_exact(self, tmp_path, kind, n, d, source):
        result, frame = _factored_lift(
            kind, n, d, tmp_path if source == "file" else None
        )
        assert result.model.factored.basis is frame.Q
        path = tmp_path / "lift.json"
        io.save_model(str(path), result)
        written = path.read_text(encoding="utf-8")
        assert set(json.loads(written)["H"]) == {"lifted", "basis"}
        loaded = io.load_model(str(path))
        pairs = [(loaded.model.H, result.model.H),
                 (loaded.model.g, result.model.g),
                 (loaded.model.x0, result.model.x0)]
        pairs += zip(_family_arrays(loaded.gradients),
                     _family_arrays(result.gradients))
        for got, want in pairs:
            assert got.shape == want.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
        assert loaded.gradients.dim == result.gradients.dim
        assert loaded.correction_applied == result.correction_applied
        basis, core = loaded.model.factored.basis, loaded.model.factored.core
        np.testing.assert_array_equal(_bits(basis), _bits(frame.Q))
        assert core.shape == (d, d)
        if kind != "mn":  # one copy of Q serves "H" and the ambiguity
            ambiguity = json.loads(written)["ambiguity_basis"]
            assert ambiguity["complement_of"] == "basis"
            assert loaded.gradients.complement_of is basis
        assert io.dumps(io.model_to_dict(loaded)) + "\n" == written

    @pytest.mark.parametrize("kind", ["mn", "mfn"])
    def test_n300_file_is_at_most_01_of_the_array_form(self, kind):
        result, _ = _factored_lift(kind, 300, 6)
        factored = len(io.dumps(io.model_to_dict(result)))
        dense = len(io.dumps(io.model_to_dict(_array_form(result))))
        assert factored <= 0.1 * dense

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_array_form_loads_unchanged(self, tmp_path, kind):
        result, _ = _factored_lift(kind, 100, 2)
        path = tmp_path / "old.json"
        path.write_text(
            reference_dumps(io.model_to_dict(_array_form(result))) + "\n",
            encoding="utf-8",
        )
        loaded = io.load_model(str(path))
        assert loaded.model.factored is None
        np.testing.assert_array_equal(
            _bits(loaded.model.H), _bits(result.model.H)
        )
        assert isinstance(io.model_to_dict(loaded)["H"], np.ndarray)

    def test_fits_and_restrictions_write_arrays(self):
        full, href = _subspace_instance(40, 3)
        frame = detect_subspace(full)
        hatted = hat_sampleset(full, frame)
        results = [fit(s) for fit in (fit_mn, fit_mfn) for s in (full, hatted)]
        results += [fit_lfu(full, href),
                    fit_lfu(hatted, np.eye(3))]
        results += [restrict(_factored_lift(kind, 40, 3)[0], frame)
                    for kind in ("mn", "mfn")]
        for result in results:
            assert result.model.factored is None
            assert isinstance(io.model_to_dict(result)["H"], np.ndarray)

    def test_reader_of_the_array_form_rejects_it(self):
        result, _ = _factored_lift("mfn", 100, 2)
        doc = json.loads(io.dumps(io.model_to_dict(result)))
        with pytest.raises(FileFormatError,
                           match="field 'H' is not numeric"):
            reference_read_array(doc["H"], "H")

    @pytest.mark.parametrize("name", [
        "missing lifted", "missing basis", "unknown key", "basis rows",
        "basis 1-D", "lifted shape", "lifted 1-D", "non-numeric", "ragged",
        "non-finite", "lfu without href",
    ])
    def test_malformed_factors_are_bad_input(self, tmp_path, capsys, name):
        result, frame = _factored_lift("lfu", 6, 2)
        path = tmp_path / "model.json"
        io.save_model(str(path), result)
        frame_path = tmp_path / "frame.json"
        io.save_frame(str(frame_path), frame)
        doc = json.loads(path.read_text(encoding="utf-8"))
        core, basis = doc["H"]["lifted"], doc["H"]["basis"]
        hess = {
            "missing lifted": {"basis": basis},
            "missing basis": {"lifted": core},
            "unknown key": {**doc["H"], "scale": 1.0},
            "basis rows": {"lifted": core, "basis": basis[:-1]},
            "basis 1-D": {"lifted": core, "basis": basis[0]},
            "lifted shape": {"lifted": [row + [0.0] for row in core],
                             "basis": basis},
            "lifted 1-D": {"lifted": core[0], "basis": basis},
            "non-numeric": {"lifted": "abc", "basis": basis},
            "ragged": {"lifted": [core[0], core[1][:1]], "basis": basis},
            "non-finite": {"lifted": [[float("nan"), 0.0], core[1]],
                           "basis": basis},
        }.get(name, doc["H"])
        _rewrite(path, "H", hess)
        if name == "lfu without href":
            doc = json.loads(path.read_text(encoding="utf-8"))
            del doc["href"]
            path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FileFormatError):
            io.load_model(str(path))
        out = tmp_path / "out.json"
        code = main(["subspace", "restrict", "--model", str(path),
                     "--frame", str(frame_path), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestFactoredBasis:
    """The factored formulas assume ``Q^T Q = I``: a factored ``"H"``
    whose basis is not orthonormal is rejected as the implicit ambiguity's
    ``complement_of`` is, with ``DimensionMismatchError`` (exit code 2)."""

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_scaled_basis_is_rejected(self, tmp_path, capsys, kind):
        result, frame = _factored_lift(kind, 6, 2)
        path = tmp_path / "model.json"
        io.save_model(str(path), result)
        frame_path = tmp_path / "frame.json"
        io.save_frame(str(frame_path), frame)
        doc = json.loads(path.read_text(encoding="utf-8"))
        scaled = 2.0 * np.asarray(doc["H"]["basis"])
        _rewrite(path, "H", {**doc["H"], "basis": scaled.tolist()})
        with pytest.raises(DimensionMismatchError,
                           match="Hessian basis columns are not orthonormal"):
            io.load_model(str(path))
        out = tmp_path / "out.json"
        assert main(["subspace", "restrict", "--model", str(path),
                     "--frame", str(frame_path), "--out", str(out)]) == 2
        assert "not orthonormal" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_is_the_ambiguity_forms(self, tmp_path):
        """A defect inside ``ORTHONORMALITY_TOL`` loads; one outside it
        raises."""
        result, _ = _factored_lift("mn", 6, 2)
        path = tmp_path / "model.json"
        io.save_model(str(path), result)
        doc = json.loads(path.read_text(encoding="utf-8"))
        basis = np.asarray(doc["H"]["basis"])
        for factor, loads in ((1 + 0.2 * linalg.ORTHONORMALITY_TOL, True),
                              (1 + 2.0 * linalg.ORTHONORMALITY_TOL, False)):
            _rewrite(path, "H", {**doc["H"],
                                 "basis": (factor * basis).tolist()})
            if loads:
                io.load_model(str(path))
            else:
                with pytest.raises(DimensionMismatchError):
                    io.load_model(str(path))


def _lfu_pair(n, d, href_full, href_sub=None):
    """``(sub, lift, frame)`` of a least-change fit in the span of a
    subspace instance, fitted with ``href_sub`` (default ``Q^T Href Q``)
    and lifted with ``href_full``, as ``subquad fit`` and ``subquad
    subspace lift``."""
    full, _ = _subspace_instance(n, d)
    frame = detect_subspace(full)
    if href_sub is None:
        href_sub = linalg.sym_part(frame.Q.T @ href_full @ frame.Q)
    sub = fit_lfu(hat_sampleset(full, frame), href_sub)
    return sub, lift_lfu(sub, frame, href_full), frame


def _round_trip(tmp_path, result, name="model.json"):
    """``(written document, loaded result)`` of a save/load."""
    path = tmp_path / name
    io.save_model(str(path), result)
    loaded = io.load_model(str(path))
    text = path.read_text(encoding="utf-8")
    assert io.dumps(io.model_to_dict(loaded)) + "\n" == text
    return json.loads(text), loaded


def _assert_same_model(loaded, result):
    pairs = [(loaded.model.H, result.model.H),
             (loaded.model.g, result.model.g)]
    if result.reference_hessian is not None:
        pairs.append((loaded.reference_hessian, result.reference_hessian))
    pairs += [(loaded.gradients.canonical, result.gradients.canonical),
              (loaded.gradients.ambiguity_basis,
               result.gradients.ambiguity_basis)]
    for got, want in pairs:
        assert got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))


class TestDiagonalReference:
    """A reference Hessian with ``+0.0`` off the diagonal is held as the
    vector ``v`` of its diagonal, written ``{"diagonal": v}`` and loaded
    as ``v``, bit for bit."""

    @pytest.mark.parametrize("n,d", [(100, 2), (300, 6)])
    @pytest.mark.parametrize("spec", ["I", "0", "random"])
    def test_sub_and_lift_files_round_trip(self, tmp_path, spec, n, d):
        rng = np.random.default_rng(n + d)
        sub, lift, _ = {
            "I": lambda: _lfu_pair(n, d, np.eye(n), np.eye(d)),
            "0": lambda: _lfu_pair(n, d, np.zeros((n, n)), np.zeros((d, d))),
            "random": lambda: _lfu_pair(
                n, d, np.diag(rng.standard_normal(n))
            ),
        }[spec]()
        for result, name in ((sub, "sub.json"), (lift, "lift.json")):
            doc, loaded = _round_trip(tmp_path, result, name)
            href = result.reference_hessian
            diagonal = np.array_equal(href, np.diag(np.diag(href)))
            assert isinstance(doc["href"], dict) == diagonal
            _assert_same_model(loaded, result)
        assert set(doc["href"]) == {"diagonal"}

    @pytest.mark.parametrize("spec", ["0", "I"])
    def test_cli_builtin_specs_write_the_diagonal(self, tmp_path, spec):
        full, _ = _subspace_instance(40, 3)
        frame = detect_subspace(full)
        paths = {key: str(tmp_path / f"{key}.json")
                 for key in ("hat", "frame", "sub", "lift")}
        io.save_sampleset(paths["hat"], hat_sampleset(full, frame))
        io.save_frame(paths["frame"], frame)
        sub_spec, lift_spec = (spec, spec) if spec == "0" else (
            f"I{frame.d}", "I40"
        )
        assert main(["fit", "--kind", "lfu", "--in", paths["hat"],
                     "--out", paths["sub"], "--href", sub_spec]) == 0
        assert main(["subspace", "lift", "--model", paths["sub"],
                     "--frame", paths["frame"], "--out", paths["lift"],
                     "--href", lift_spec]) == 0
        for key, size in (("sub", frame.d), ("lift", 40)):
            doc = io.read_document(paths[key])
            assert len(doc["href"]["diagonal"]) == size
            want = io.load_reference(
                sub_spec if key == "sub" else lift_spec, size
            )
            # a fit and a lift both load the reference as its diagonal
            got = io.load_model(paths[key]).reference_hessian
            assert got.ndim == 1
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("entry", [-0.0, 1e-300, 2.5])
    def test_any_other_off_diagonal_keeps_the_array_form(self, tmp_path,
                                                        entry):
        href = np.eye(4)
        href[1, 3] = href[3, 1] = entry
        full, _ = _subspace_instance(4, 4)
        result = fit_lfu(full, href)
        doc, loaded = _round_trip(tmp_path, result)
        assert isinstance(doc["href"], list)
        _assert_same_model(loaded, result)

    def test_file_reference_and_restriction_keep_the_array_form(
            self, tmp_path):
        path = tmp_path / "href.json"
        dense = linalg.sym_part(np.random.default_rng(3).standard_normal(
            (6, 6)))
        path.write_text(json.dumps({"n": 6, "H": dense.tolist()}))
        full, _ = _subspace_instance(6, 6)
        fitted = fit_lfu(full, io.load_reference(str(path), 6))
        assert isinstance(io.model_to_dict(fitted)["href"], np.ndarray)
        _, lift, frame = _lfu_pair(40, 3, np.eye(40), np.eye(3))
        restricted = restrict(lift, frame)
        assert isinstance(io.model_to_dict(restricted)["href"], np.ndarray)

    def test_n300_lift_file_is_at_most_015_of_the_parent_form(self):
        _, lift, _ = _lfu_pair(300, 6, np.eye(300), np.eye(6))
        doc = io.model_to_dict(lift)
        assert isinstance(doc["href"], dict)
        assert doc["ambiguity_basis"]["complement_of"] == "basis"
        parent = {
            **doc, "href": dense_reference(lift.reference_hessian),
            "ambiguity_basis": {
                "lifted": lift.gradients.explicit,
                "complement_of": lift.gradients.complement_of,
            },
        }
        assert len(io.dumps(doc)) <= 0.15 * len(reference_dumps(parent))


def _asymmetric_identity(n):
    """An asymmetric reference: the identity with one extra off-diagonal
    entry of 0.5."""
    href = np.eye(n)
    href[0, 1] = 0.5
    return href


def _dumped(result):
    return io.dumps(io.model_to_dict(result))


class TestOneReferenceForm:
    """Every reference Hessian enters through ``held_reference``, once on
    each path: an asymmetric one raises ``NotSquareError`` wherever it
    enters, a hand-built ``ModelResult`` included, and a diagonal given as
    ``v`` or as ``np.diag(v)`` gives the same bytes on every path."""

    def test_hand_built_result_holds_its_reference(self, tmp_path):
        """An asymmetric reference stops at ``ModelResult``, before
        ``restrict`` or ``save_model`` could take it, and ``np.eye(n)`` is
        held, and written, as the vector of its diagonal."""
        n = 6
        fitted = fit_lfu(_subspace_instance(n, 2)[0], np.eye(n))
        parts = (fitted.model, fitted.gradients, "lfu")
        with pytest.raises(NotSquareError):
            ModelResult(*parts, reference_hessian=_asymmetric_identity(n))
        result = ModelResult(*parts, reference_hessian=np.eye(n))
        np.testing.assert_array_equal(result.reference_hessian, np.ones(n))
        assert _dumped(result) == _dumped(fitted)
        path = tmp_path / "model.json"
        io.save_model(str(path), result)
        assert json.loads(path.read_text())["href"] == {"diagonal": [1] * n}
        _assert_same_model(io.load_model(str(path)), result)

    def test_each_path_checks_a_reference_once(self, monkeypatch, tmp_path):
        n, d = 6, 2
        full, href = _subspace_instance(n, d)
        frame = detect_subspace(full)
        hatted = hat_sampleset(full, frame)
        calls = []
        held_reference = models.held_reference
        monkeypatch.setattr(models, "held_reference", lambda *args: (
            calls.append(args) or held_reference(*args)
        ))

        def once(run):
            calls.clear()
            result = run()
            assert len(calls) == 1
            return result

        fitted = once(lambda: fit_lfu(full, href))
        once(lambda: _reference_fit("lfu", full, href))
        sub = once(lambda: fit_lfu(hatted, restricted_reference(href,
                                                                frame.Q)))
        lift = once(lambda: lift_lfu(sub, frame, href))
        assert lift.reference_hessian is lift.model.factored.href
        path = tmp_path / "model.json"
        for result in (fitted, sub, lift):
            if result is not sub:
                once(lambda: restrict(result, frame))
            io.save_model(str(path), result)
            once(lambda: io.load_model(str(path)))

    def test_asymmetric_reference_raises_everywhere(self, tmp_path):
        """The subspace fit uses ``Q^T sym(Href) Q``, so only the
        asymmetry can stop the lift."""
        n, d = 6, 2
        asym = _asymmetric_identity(n)
        sub, lift, frame = _lfu_pair(n, d, linalg.sym_part(asym))
        with pytest.raises(NotSquareError):
            fit_lfu(_subspace_instance(n, d)[0], asym)
        with pytest.raises(NotSquareError):
            lift_lfu(sub, frame, asym)
        with pytest.raises(NotSquareError):
            FactoredHessian(frame.Q, sub.model.H, asym)
        path = tmp_path / "lift.json"
        io.save_model(str(path), lift)
        _rewrite(path, "href", asym.tolist())
        with pytest.raises(NotSquareError):
            io.load_model(str(path))

    def test_cli_fit_and_lift_exit_2(self, tmp_path, capsys):
        n, d = 6, 2
        asym = _asymmetric_identity(n)
        sub, _, frame = _lfu_pair(n, d, linalg.sym_part(asym))
        paths = {key: str(tmp_path / f"{key}.json")
                 for key in ("full", "frame", "sub", "href", "out")}
        io.save_sampleset(paths["full"], _subspace_instance(n, d)[0])
        io.save_frame(paths["frame"], frame)
        io.save_model(paths["sub"], sub)
        io.write_document(paths["href"], {"n": n, "H": asym})
        for argv in (
            ["fit", "--kind", "lfu", "--in", paths["full"]],
            ["subspace", "lift", "--model", paths["sub"],
             "--frame", paths["frame"]],
        ):
            capsys.readouterr()
            assert main(argv + ["--out", paths["out"],
                                "--href", paths["href"]]) == 2
            assert "NotSquareError" in capsys.readouterr().err
            assert not os.path.exists(paths["out"])

    def test_vector_and_array_give_the_same_files(self, tmp_path):
        n, d = 30, 3
        full, _ = _subspace_instance(n, d)
        frame = detect_subspace(full)
        v = np.random.default_rng(7).standard_normal(n)
        sub = fit_lfu(hat_sampleset(full, frame),
                      restricted_reference(v, frame.Q))
        results = {}
        for form, href in (("vector", v), ("array", np.diag(v))):
            fitted = fit_lfu(full, href)
            lift = lift_lfu(sub, frame, href)
            results[form] = {
                "fit": fitted,
                "reference fit": _reference_fit("lfu", full, href),
                "lift": lift,
                "restricted fit": restrict(fitted, frame),
                "restricted lift": restrict(lift, frame),
            }
        for key, result in results["vector"].items():
            text = _dumped(result)
            assert text == _dumped(results["array"][key]), key
            # full-space models hold the diagonal, restrictions Q^T Href Q
            assert ('"diagonal"' in text) == ("restricted" not in key)
            path = tmp_path / "model.json"
            io.save_model(str(path), result)
            loaded = io.load_model(str(path))
            assert _dumped(loaded) == text, key
            _assert_same_model(loaded, result)


class TestSharedBasis:
    """A lift's ambiguity is ``col(Q)^perp`` for the ``Q`` of its factored
    ``"H"``, so it is written as ``"complement_of": "basis"``."""

    def test_other_kernels_are_written_as_arrays(self):
        full, href = _subspace_instance(40, 3)
        for result in (fit_mfn(full), fit_lfu(full, href)):
            kernel = io.model_to_dict(result)["ambiguity_basis"]
            assert isinstance(kernel["complement_of"], np.ndarray)

    def test_reader_of_the_array_form_rejects_both_new_forms(self):
        _, lift, _ = _lfu_pair(40, 3, np.eye(40), np.eye(3))
        doc = json.loads(io.dumps(io.model_to_dict(lift)))
        with pytest.raises(FileFormatError,
                           match="field 'href' is not numeric"):
            reference_read_array(doc["href"], "href")
        with pytest.raises(FileFormatError, match="is not numeric"):
            reference_read_array(
                doc["ambiguity_basis"]["complement_of"], "complement_of"
            )


class TestMalformedCompactForms:
    @pytest.mark.parametrize("name", [
        "href missing key", "href unknown key", "href short", "href long",
        "href 2-D", "href non-numeric", "href non-finite",
        "basis reference without factored H",
    ])
    def test_bad_input_exits_1(self, tmp_path, capsys, name):
        _, lift, frame = _lfu_pair(6, 2, np.eye(6), np.eye(2))
        path = tmp_path / "model.json"
        io.save_model(str(path), lift)
        frame_path = tmp_path / "frame.json"
        io.save_frame(str(frame_path), frame)
        doc = json.loads(path.read_text(encoding="utf-8"))
        diagonal = doc["href"]["diagonal"]
        assert len(diagonal) == 6
        if name == "basis reference without factored H":
            _rewrite(path, "H", lift.model.H.tolist())
        else:
            _rewrite(path, "href", {
                "href missing key": {},
                "href unknown key": {"diagonal": diagonal, "scale": 1.0},
                "href short": {"diagonal": diagonal[:-1]},
                "href long": {"diagonal": diagonal + [1.0]},
                "href 2-D": {"diagonal": [diagonal]},
                "href non-numeric": {"diagonal": "abc"},
                "href non-finite": {"diagonal": [float("inf")] + diagonal[1:]},
            }[name])
        with pytest.raises(FileFormatError):
            io.load_model(str(path))
        out = tmp_path / "out.json"
        code = main(["subspace", "restrict", "--model", str(path),
                     "--frame", str(frame_path), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("doc, want", [
    ({"n": 1, "x0": [0.0], "displacements": [1.0, 2.0],
      "values": [0.0, 1.0, 4.0]}, [[1.0], [2.0]]),
    ({"n": 2, "x0": [0.0, 0.0], "displacements": [1.0, 2.0],
      "values": [0.0, 5.0]}, [[1.0, 2.0]]),
    (object(), "cannot serialize object of type"),
], ids=["n-1-column", "one-step-row", "dumps-unsupported"])
def test_flat_displacements_and_unsupported_types(tmp_path, doc, want):
    """A flat ``displacements`` list is the column of an ``n = 1`` set or
    else one step; ``dumps`` refuses a type it has no form for."""
    if isinstance(want, str):
        with pytest.raises(FileFormatError, match=want):
            io.dumps(doc)
        return
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert np.array_equal(io.load_sampleset(str(path)).displacements, want)


def test_config_is_the_last_field(tmp_path):
    """``write_document`` appends a non-empty ``config`` after the data
    fields and leaves the caller's document as it was; an empty or
    missing one writes the data alone."""
    doc = io.frame_to_dict(axis_frame())
    path = tmp_path / "frame.json"
    io.write_document(str(path), doc, {"command": "x"})
    written = json.loads(path.read_text(encoding="utf-8"))
    assert list(written) == [*doc, "config"]
    assert written["config"] == {"command": "x"} and "config" not in doc
    for config in (None, {}):
        io.save_frame(str(path), axis_frame(), config)
        assert path.read_text(encoding="utf-8") == io.dumps(doc) + "\n"
