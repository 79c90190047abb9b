"""File formats: versioned JSON documents and binary PGM images.

Every JSON file carries ``format_version`` and a ``kind`` discriminator.
Every kind is at version 1 except ``glyph_index``, which is at version 3:
a nonempty list of glyphs, each a string ``label``, a ``source`` holding
the integer ``resolution`` its image was lifted at (the same on every
glyph) and its ``beta`` (see ``glyphs.lift_beta``), which loading stacks
into ``GlyphIndex.beta``.  A ``det_f1`` on a glyph or a ``pixels`` in its
source, left by earlier writers, is ignored.  Glyph indexes at versions 1
(dense descriptors) and 2 (lift rows) raise a VersionError that says to
rebuild them from their images with ``bispect index``.

A descriptor file holds the paper's dense A(p, q) for every pair; loading
stores B(p, q) = A(p, q) C_pq on the in-band columns for p <= q
(``bispectrum``).  An entry with weight above the bandlimit, or an A(q, p)
other than the swap of A(p, q), beyond 1e-10 of the entry's norm, is a
FormatError naming the pair.
Complex matrices are row-major nested lists with innermost ``[re, im]``
pairs; numbers are written as shortest-round-trip decimal
text, so files are platform independent and load back bit-identically.
Files are written as compact one-line JSON.  Whitespace is not part of the
format: indented files written by earlier versions load unchanged.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from .errors import FormatError, VersionError
from .groups import SO3, SU2, haar_quadrature, haar_rule_size
from .harmonic import CoefficientSet, SampledFunction
from .bispectrum import BispectrumDescriptor
from .clebsch import clebsch_gordan, in_band, kron_swap
from .glyphs import GlyphIndex, beta_count
from .sphere import SphereFunction, sphere_grid
from .wigner import dim

FORMAT_VERSION = 1
GLYPH_INDEX_VERSION = 3  # versions 1 (dense descriptors) and 2 (lift rows) no longer load
_STORED_FORM_TOL = 1e-10  # relative to an entry's norm, as reconstruction's Hermiticity check


def _complex_matrix(m: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(m, dtype=complex))


def _json_default(obj: Any) -> list:
    """``json.dumps`` hook: a complex array becomes nested ``[re, im]`` pairs.

    ``tolist`` yields Python floats, which the encoder writes with
    ``float.__repr__`` (shortest round-trip text).
    """
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        return np.stack([obj.real, obj.imag], -1).tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def _decode_complex(data: Any, where: str, rank: int) -> np.ndarray:
    """A vector (rank 1) or matrix (rank 2) of [re, im] pairs as a complex array."""
    noun = ("vector", "matrix")[rank - 1]
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{noun} is not numeric: {exc}", where) from None
    if arr.ndim != rank + 1 or arr.shape[-1] != 2:
        raise FormatError(f"{noun} entries must be [re, im] pairs", where)
    # Reinterpret the pairs in place; re + 1j * im would turn a -0.0 into
    # 0.0 and an infinite imaginary part into a NaN real part.
    return np.ascontiguousarray(arr).view(complex)[..., 0]


# JSON types a field may be required to have, by name
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _require(doc: dict, key: str, where: str, kind: type | None = None) -> Any:
    """doc[key]; with ``kind``, it must be of exactly that JSON type."""
    if key not in doc:
        raise FormatError(f"missing field {key!r}", where)
    value = doc[key]
    if kind is not None and type(value) is not kind:  # exact: bool is an int subclass, floats would truncate
        raise FormatError(f"field {key!r} must be {_TYPE_NAMES[kind]}, found {value!r}", where)
    return value


def _require_bandlimit(doc: dict, where: str, key: str = "bandlimit") -> int:
    bandlimit = _require(doc, key, where, int)
    if bandlimit < 0:
        raise FormatError(f"{key} must be nonnegative, found {bandlimit}", where)
    return bandlimit


def _optional_number(doc: dict, key: str, where: str) -> float | None:
    value = doc.get(key)
    if value is None:
        return None
    if type(value) not in (int, float):  # float() would take "1.5" and true
        raise FormatError(f"field {key!r} must be a number, found {value!r}", where)
    return float(value)


def _check_header(doc: Any, kind: str, where: str, version: int = FORMAT_VERSION, recovery: str = "") -> None:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object", where)
    found = _require(doc, "format_version", where)
    if type(found) is not int or found != version:  # true and 1.0 compare equal to 1
        raise VersionError(f"unsupported format_version {found!r}" + (f"; {recovery}" if recovery else ""), where)
    got = _require(doc, "kind", where)
    if got != kind:
        raise FormatError(f"expected kind {kind!r}, found {got!r}", where)


def _check_group(tag: Any, where: str) -> str:
    if tag not in (SU2, SO3):
        raise FormatError(f"group must be 'SU2' or 'SO3', found {tag!r}", where)
    return tag


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector: documents are acyclic trees of lists and
    floats, and collections triggered by their millions of allocations find
    nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh, _gc_paused():
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from None


def _dump_json(doc: dict, path: str) -> None:
    # No indent, so json.dumps runs the C encoder.
    with _gc_paused():
        text = json.dumps(doc, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def peek_kind(path: str) -> str:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("document carries no 'kind' field", path)
    return doc["kind"]


# -- coefficient sets --------------------------------------------------------


def save_coefficients(coeffs: CoefficientSet, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "coefficients",
        "group": coeffs.tag,
        "bandlimit": coeffs.bandlimit,
        "matrices": [_complex_matrix(coeffs[ell]) for ell in range(coeffs.bandlimit + 1)],
    }
    _dump_json(doc, path)


def load_coefficients(path: str) -> CoefficientSet:
    doc = _load_json(path)
    _check_header(doc, "coefficients", path)
    tag = _check_group(_require(doc, "group", path), path)
    bandlimit = _require_bandlimit(doc, path)
    raw = _require(doc, "matrices", path, list)
    if len(raw) != bandlimit + 1:
        raise FormatError(f"expected {bandlimit + 1} matrices, found {len(raw)}", path)
    mats = tuple(_decode_complex(m, f"{path}:matrices[{i}]", 2) for i, m in enumerate(raw))
    return CoefficientSet(tag, bandlimit, mats)


# -- descriptors -------------------------------------------------------------


def save_descriptor(desc: BispectrumDescriptor, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "bispectrum_descriptor",
        "group": desc.tag,
        "bandlimit": desc.bandlimit,
        "entries": [{"p": p, "q": q, "matrix": _complex_matrix(desc[(p, q)])} for p, q in desc.pairs()],
    }
    if desc.det_f1 is not None:
        doc["det_f1"] = float(desc.det_f1)
    _dump_json(doc, path)


def load_descriptor(path: str) -> BispectrumDescriptor:
    doc = _load_json(path)
    _check_header(doc, "bispectrum_descriptor", path)
    tag = _check_group(_require(doc, "group", path), path)
    bandlimit = _require_bandlimit(doc, path)
    entries = {}
    for i, item in enumerate(_require(doc, "entries", path, list)):
        loc = f"{path}:entries[{i}]"
        if not isinstance(item, dict):
            raise FormatError("entry must be an object", loc)
        p, q = _require(item, "p", loc, int), _require(item, "q", loc, int)
        if not (0 <= p <= bandlimit and 0 <= q <= bandlimit):
            raise FormatError(f"pair ({p}, {q}) lies outside 0..{bandlimit}", loc)
        if (p, q) in entries:
            raise FormatError(f"pair ({p}, {q}) appears twice", loc)
        matrix = _decode_complex(_require(item, "matrix", loc), f"{loc}.matrix", 2)
        side = dim(p, tag) * dim(q, tag)
        if matrix.shape != (side, side):
            raise FormatError(
                f"pair ({p}, {q}) needs a {side}x{side} matrix, found {matrix.shape}", f"{loc}.matrix"
            )
        entries[(p, q)] = matrix
    # entries are distinct in-range pairs: the first missing one is among the first len(entries) + 1
    missing = (bandlimit + 1) ** 2 - len(entries)
    if missing:
        first = next((p, q) for p in range(bandlimit + 1) for q in range(bandlimit + 1) if (p, q) not in entries)
        raise FormatError(f"missing entry for pair {first} ({missing} missing)", path)
    coupled = {}  # B(p, q) = A(p, q) C_pq on the in-band columns, p <= q, which must hold all the file does
    for p, q in ((p, q) for p in range(bandlimit + 1) for q in range(p, bandlimit + 1)):
        a, scale = entries[(p, q)], _STORED_FORM_TOL * np.linalg.norm(entries[(p, q)])
        b, band = a @ clebsch_gordan(tag, p, q).C, in_band(tag, p, q, bandlimit)
        if np.linalg.norm(b[:, : band.start]) > scale:
            raise FormatError(f"A{(p, q)} has weight on degrees above the bandlimit {bandlimit}", path)
        if np.linalg.norm(entries[(q, p)] - kron_swap(a, dim(p, tag), dim(q, tag))) > scale:
            raise FormatError(f"A{(q, p)} is not the swap of A{(p, q)}", path)
        coupled[(p, q)] = b[:, band]
    return BispectrumDescriptor(tag, bandlimit, coupled, _optional_number(doc, "det_f1", path))


# -- sphere samples ----------------------------------------------------------


def save_sphere(s: SphereFunction, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "sphere_samples",
        "resolution": s.resolution,
        "values": _complex_matrix(s.values),
    }
    _dump_json(doc, path)


def load_sphere(path: str) -> SphereFunction:
    doc = _load_json(path)
    _check_header(doc, "sphere_samples", path)
    resolution = _require(doc, "resolution", path, int)
    values = _decode_complex(_require(doc, "values", path), f"{path}:values", 2)
    n = 2 * resolution
    if values.shape != (n, n):
        raise FormatError(f"resolution {resolution} needs {n}x{n} values, found shape {values.shape}", f"{path}:values")
    return SphereFunction(sphere_grid(resolution), values)


# -- group samples -----------------------------------------------------------


def save_samples(f: SampledFunction, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "group_samples",
        "group": f.tag,
        "rule_bandlimit": f.rule.bandlimit,
        "values": np.asarray(f.values, dtype=complex),
    }
    _dump_json(doc, path)


def load_samples(path: str) -> SampledFunction:
    doc = _load_json(path)
    _check_header(doc, "group_samples", path)
    tag = _check_group(_require(doc, "group", path), path)
    rule_bandlimit = _require_bandlimit(doc, path, "rule_bandlimit")
    values = _decode_complex(_require(doc, "values", path), f"{path}:values", 1)
    size = haar_rule_size(rule_bandlimit)
    if values.size != size:
        raise FormatError(f"rule bandlimit {rule_bandlimit} needs {size} values, found {values.size}", f"{path}:values")
    return SampledFunction(tag, haar_quadrature(rule_bandlimit, tag), values)


# -- glyph index -------------------------------------------------------------


def save_glyph_index(index: GlyphIndex, path: str) -> None:
    source = {"resolution": index.resolution}
    glyphs = [{"label": label, "source": source, "beta": beta} for label, beta in zip(index.labels, index.beta)]
    doc = {"format_version": GLYPH_INDEX_VERSION, "kind": "glyph_index", "bandlimit": index.bandlimit, "glyphs": glyphs}
    _dump_json(doc, path)


def load_glyph_index(path: str) -> GlyphIndex:
    doc = _load_json(path)
    _check_header(doc, "glyph_index", path, GLYPH_INDEX_VERSION,
                  "rebuild the index from its images with 'bispect index'")
    bandlimit = _require_bandlimit(doc, path)
    glyphs = _require(doc, "glyphs", path, list)
    if not glyphs:
        raise FormatError("field 'glyphs' must hold at least one glyph", path)
    size = beta_count(bandlimit)
    labels, beta, resolution = [], [], None
    for i, item in enumerate(glyphs):
        loc = f"{path}:glyphs[{i}]"
        if not isinstance(item, dict):
            raise FormatError("glyph must be an object", loc)
        labels.append(_require(item, "label", loc, str))
        found = _require(_require(item, "source", loc, dict), "resolution", f"{loc}.source", int)
        if resolution is not None and found != resolution:
            raise FormatError(f"resolution {found} differs from glyphs[0]'s {resolution}", f"{loc}.source")
        resolution = found
        values = _decode_complex(_require(item, "beta", loc), f"{loc}.beta", 1)
        if values.shape != (size,):
            raise FormatError(f"bandlimit {bandlimit} needs {size} beta values, found shape {values.shape}", f"{loc}.beta")
        beta.append(values)
    return GlyphIndex(bandlimit, resolution, tuple(labels), np.stack(beta))


# -- PGM (binary P5) ---------------------------------------------------------


def read_pgm(path: str) -> np.ndarray:
    """Binary PGM (P5, maxval <= 255) as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file", path)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError("malformed PGM header", path) from None
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"unsupported PGM maxval {maxval} (need <= 255)", path)
    pos += 1  # single whitespace after maxval
    raw = data[pos : pos + width * height]
    if len(raw) != width * height:
        raise FormatError("PGM pixel data truncated", path)
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return img.astype(float) / maxval


def write_pgm(image: np.ndarray, path: str) -> None:
    """Write floats in [0, 1] as a binary PGM (P5, maxval 255)."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise FormatError("PGM images must be 2-d", path)
    quantized = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(quantized.tobytes())
