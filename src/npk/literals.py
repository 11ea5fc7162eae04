"""Textual literals for A-valued functions, vector fields, and forms.

Grammar sketch (whitespace loose, expressions use the x1..xn DSL):

    fn literal      [c0,c1,..] * gen(alpha, "expr") * gen(..) + ...
                    a bracketed A-coefficient list, optionally followed by
                    scalar-generator factors; terms joined by '+'
    field literal   component fn literals separated by ';'
                    or prolong("expr; expr; ..")  or  dstar(k)
    form literal    coeff dx(i)^dx(j).. + ...  with coeff either an
                    expression (prolonged) or a bracketed fn literal;
                    a bare coeff with no dx() is a degree-0 form
"""

from __future__ import annotations

import re

from .expr import _sort_indices, parse
from .fields import AVectorField, from_derivation, prolong
from .forms import AForm
from .functions import AFunction, ScalarGenerator, lifted_function
from .points import Chart
from .weil import WeilAlgebra, derivation_basis

__all__ = ["parse_field", "parse_fn", "parse_form"]


class LiteralError(ValueError):
    """Malformed function, field, or form literal."""


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside quotes, brackets, and parentheses."""
    parts = []
    depth = 0
    quoted = False
    start = 0
    for i, ch in enumerate(text):
        if quoted:
            if ch == '"':
                quoted = False
        elif ch == '"':
            quoted = True
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if quoted or depth != 0:
        raise LiteralError(f"unbalanced quotes or brackets in {text!r}")
    parts.append(text[start:])
    return parts


_GEN_RE = re.compile(r'^gen\(\s*(\d+)\s*,\s*"([^"]*)"\s*\)$')
_COEFF_RE = re.compile(r"^\[([^\]]*)\]$")


def parse_fn(text: str, algebra: WeilAlgebra, chart: Chart) -> AFunction:
    """Parse an A-valued-function literal."""
    terms = []
    for raw in _split_top(text, "+"):
        factors = [f.strip() for f in _split_top(raw, "*")]
        if not factors or not factors[0]:
            raise LiteralError(f"empty term in {text!r}")
        m = _COEFF_RE.match(factors[0])
        if m is None:
            raise LiteralError(f"term must start with a bracketed coefficient list: {raw.strip()!r}")
        coeffs = [float(c) for c in m.group(1).split(",")] if m.group(1).strip() else []
        if len(coeffs) != algebra.dim:
            raise LiteralError(f"coefficient list needs {algebra.dim} entries, got {len(coeffs)}")
        mono = []
        for factor in factors[1:]:
            gm = _GEN_RE.match(factor)
            if gm is None:
                raise LiteralError(f"bad generator factor {factor!r}")
            alpha = int(gm.group(1))
            if alpha >= algebra.dim:
                raise LiteralError(f"generator slot {alpha} out of range for dim {algebra.dim}")
            mono.append(ScalarGenerator(alpha, parse(gm.group(2), chart.n)))
        terms.append((algebra.element(coeffs), tuple(mono)))
    return AFunction(algebra, chart, terms)


_PROLONG_RE = re.compile(r'^prolong\(\s*"([^"]*)"\s*\)$')
_DSTAR_RE = re.compile(r"^dstar\(\s*(\d+)\s*\)$")


def parse_field(text: str, algebra: WeilAlgebra, chart: Chart) -> AVectorField:
    """Parse a vector-field literal, including the prolong/dstar shortcuts."""
    compact = text.strip()
    m = _PROLONG_RE.match(compact)
    if m is not None:
        components = [parse(c, chart.n) for c in m.group(1).split(";")]
        if len(components) != chart.n:
            raise LiteralError(f"prolong needs {chart.n} components, got {len(components)}")
        from .expr import VectorField

        return prolong(VectorField(tuple(components)), algebra, chart)
    m = _DSTAR_RE.match(compact)
    if m is not None:
        basis = derivation_basis(algebra)
        k = int(m.group(1))
        if k >= len(basis):
            raise LiteralError(f"dstar({k}) out of range: Der(A) has dimension {len(basis)}")
        return from_derivation(basis[k], chart)
    components = _split_top(compact, ";")
    if len(components) != chart.n:
        raise LiteralError(f"field needs {chart.n} components, got {len(components)}")
    return AVectorField(
        algebra, chart, tuple(parse_fn(c, algebra, chart) for c in components)
    )


_DX_CHAIN_RE = re.compile(r"dx\(\s*(\d+)\s*\)(\s*\^\s*dx\(\s*(?:\d+)\s*\))*")


def parse_form(text: str, algebra: WeilAlgebra, chart: Chart) -> AForm:
    """Parse a form literal; expression coefficients are prolonged."""
    compact = text.strip()
    chains = list(_DX_CHAIN_RE.finditer(compact))
    if not chains:
        return AForm(algebra, chart, 0, ((_parse_coeff(compact, algebra, chart), ()),))
    terms = []
    degree = None
    cursor = 0
    for m in chains:
        coeff_text = compact[cursor:m.start()].strip()
        if coeff_text.startswith("+"):
            coeff_text = coeff_text[1:].strip()
        cursor = m.end()
        indices = tuple(int(i) - 1 for i in re.findall(r"dx\(\s*(\d+)\s*\)", m.group(0)))
        if any(not 0 <= i < chart.n for i in indices):
            raise LiteralError(f"coordinate index out of range in {m.group(0)!r}")
        if degree is None:
            degree = len(indices)
        elif degree != len(indices):
            raise LiteralError("mixed degrees in form literal")
        phi = _parse_coeff(coeff_text or "1", algebra, chart)  # checked even where the term vanishes
        slot = _sort_indices(indices)
        if slot is None:  # a repeated dx(i) makes the term vanish, but it keeps its degree
            continue
        sign, sorted_idx = slot
        terms.append((phi.scale(float(sign)), sorted_idx))
    tail = compact[cursor:].strip()
    if tail:
        raise LiteralError(f"trailing input {tail!r} in form literal")
    return AForm(algebra, chart, degree if degree is not None else 0, tuple(terms))


def _parse_coeff(text: str, algebra: WeilAlgebra, chart: Chart) -> AFunction:
    if text.lstrip().startswith("["):
        return parse_fn(text, algebra, chart)
    return lifted_function(parse(text, chart.n), algebra, chart)
