"""Walk specification files and named measure families.

A walk spec is JSON-compatible: a list of factors (each ``{"cyclic": k}``
or ``{"table": [[...]]}``), a measure (explicit letter map or a named
family with parameters), an optional generating set (``"natural"``,
``"minimal"``, or a list of letters), and solver options.  Letters are
written ``"factor:elem"``.  Unknown keys are rejected.

The family builders on cyclic factors build their walks through
``cyclic_walk`` from a table of letter masses.  The builders with real
parameters write their masses with integer constants, so they accept
exact rationals: ``z2z3_walk(Fraction(1, 4), Fraction(1, 2))`` stores
each mass as the correctly rounded float of its exact value, and float
parameters give the same bits as float constants.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .groups import (
    FiniteGroup,
    FreeProduct,
    Letter,
    factor_distances,
    free_product_of_cyclics,
    make_cyclic,
    make_finite_group,
)
from .metrics import extremal_measure
from .traffic import DEFAULT_MAX_ITER, DEFAULT_TOL, StepDistribution


def integer(value: Any, name: str) -> int:
    """``value`` as an int; a bool, a string or a fractional or non-finite number is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(value: Any, name: str) -> float:
    """``value`` as a float; a bool, a string, null or an int beyond float range is an error."""
    if isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _items(value: Any, name: str, item: Callable[[Any], Any]) -> list:
    """``item`` of each entry of the list ``value``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return [item(x) for x in value]


@dataclass(frozen=True)
class WalkSpec:
    """A parsed walk: product, step law, generating set, solver options."""

    product: FreeProduct
    mu: StepDistribution
    generators: tuple[Letter, ...]
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    seed: int = 20240809

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def cyclic_walk(
    orders: Sequence[int], table: Mapping[Letter, float]
) -> tuple[FreeProduct, StepDistribution]:
    """The free product of the given cyclics and the step law with the masses of ``table``."""
    product = free_product_of_cyclics(*orders)
    return product, StepDistribution.from_dict(product, table)


def zkzk_simple(k: int) -> tuple[FreeProduct, StepDistribution]:
    """Simple walk on Z/k * Z/k over minimal generators: 1/4 on a, a^-1, b, b^-1."""
    if k < 3:
        raise ValueError("k must be >= 3 (k = 2 gives the recurrent Z/2 * Z/2)")
    return cyclic_walk((k, k), {Letter(0, 1): 0.25, Letter(0, k - 1): 0.25,
                                Letter(1, 1): 0.25, Letter(1, k - 1): 0.25})


def hecke_simple(k: int) -> tuple[FreeProduct, StepDistribution]:
    """Simple walk on Z/2 * Z/k: 1/3 on a, b, b^-1."""
    if k < 3:
        raise ValueError("k must be >= 3")
    third = 1.0 / 3.0
    return cyclic_walk((2, k), {Letter(0, 1): third, Letter(1, 1): third, Letter(1, k - 1): third})


def z2z3_walk(p: float, q: float) -> tuple[FreeProduct, StepDistribution]:
    """General walk on Z/2 * Z/3: mu(a) = 1-p-q, mu(b) = p, mu(b^2) = q."""
    return cyclic_walk((2, 3), {Letter(0, 1): 1 - p - q, Letter(1, 1): p, Letter(1, 2): q})


def z3z3_sym(p: float) -> tuple[FreeProduct, StepDistribution]:
    """Z/3 * Z/3 with mu(a) = mu(b) = p and mu(a^2) = mu(b^2) = 1/2 - p."""
    q = (1 - 2 * p) / 2
    return cyclic_walk((3, 3), {Letter(0, 1): p, Letter(0, 2): q, Letter(1, 1): p, Letter(1, 2): q})


def z3z3_asym(p: float, q: float) -> tuple[FreeProduct, StepDistribution]:
    """Z/3 * Z/3 with mu(a) = p, mu(a^2) = q, mu(b) = mu(b^2) = (1-p-q)/2."""
    s = (1 - p - q) / 2
    return cyclic_walk((3, 3), {Letter(0, 1): p, Letter(0, 2): q, Letter(1, 1): s, Letter(1, 2): s})


def uniform_per_factor(
    orders: Sequence[int], weights: Sequence[float] | None = None
) -> tuple[FreeProduct, StepDistribution]:
    """Walk spreading weight w_i uniformly over the letters of factor i."""
    product = free_product_of_cyclics(*orders)
    if weights is None:
        weights = [1.0 / len(orders)] * len(orders)
    if len(weights) != len(orders):
        raise ValueError("one weight per factor required")
    probs = np.zeros(product.nletters)
    for i, w in enumerate(weights):
        size = product.sigma_size(i)
        probs[product.factor_slice(i)] = w / size
    return product, StepDistribution(product, probs)


def extremal_walk(orders: Sequence[int]) -> tuple[FreeProduct, StepDistribution]:
    """The quality-1 step law on the natural generators of the given cyclics."""
    product = free_product_of_cyclics(*orders)
    return product, extremal_measure(product)


def z2z2z2(p: float) -> tuple[FreeProduct, StepDistribution]:
    """Z/2 * Z/2 * Z/2 with mu(a) = mu(b) = p and mu(c) = 1 - 2p."""
    return cyclic_walk((2, 2, 2), {Letter(0, 1): p, Letter(1, 1): p, Letter(2, 1): 1 - 2 * p})


# Family parameters have one meaning in every family that takes them.
_PARAMETERS = {
    "k": integer,
    "p": real,
    "q": real,
    "orders": lambda value, name: _items(value, name, lambda x: integer(x, name)),
    # null selects uniform_per_factor's equal weights
    "weights": lambda value, name: (
        None if value is None else _items(value, name, lambda x: real(x, name))),
}

FAMILIES = {
    "zkzk-simple": zkzk_simple,
    "hecke-simple": hecke_simple,
    "z2z3": z2z3_walk,
    "z3z3-sym": z3z3_sym,
    "z3z3-asym": z3z3_asym,
    "uniform-per-factor": uniform_per_factor,
    "extremal": extremal_walk,
    "z2z2z2": z2z2z2,
}


def build_family(name: str, **params: Any) -> tuple[FreeProduct, StepDistribution]:
    """Instantiate a named measure family; its builder's signature names the parameters."""
    try:
        fn = FAMILIES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}") from None
    signature = inspect.signature(fn).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ValueError(f"family {name!r} does not take {sorted(unknown)}")
    missing = [a for a, p in signature.items() if p.default is p.empty and a not in params]
    if missing:
        raise ValueError(f"family {name!r} needs {', '.join(missing)}")
    return fn(**{a: _PARAMETERS[a](value, a) for a, value in params.items()})


def minimal_generators(product: FreeProduct) -> tuple[Letter, ...]:
    """For cyclic factors, {g, g^-1} per factor (one letter when order 2)."""
    gens: list[Letter] = []
    for i, group in enumerate(product.factors):
        single = Letter(i, 1)
        if len(factor_distances(group, [1])) != group.order:
            raise ValueError(f"element 1 does not generate factor {i}; give generators explicitly")
        gens.append(single)
        inverse = Letter(i, group.inv[1])
        if inverse != single:
            gens.append(inverse)
    return tuple(gens)


def resolve_generators(product: FreeProduct, spec: Any) -> tuple[Letter, ...]:
    """Interpret a generating-set spec: natural, minimal, or letter list."""
    if spec is None or spec == "natural":
        return product.alphabet
    if spec == "minimal":
        return minimal_generators(product)
    if isinstance(spec, (list, tuple)):
        letters = tuple(
            u if isinstance(u, Letter) else Letter.parse(str(u)) for u in spec
        )
        for u in letters:
            product.letter_index(u)
        return letters
    raise ValueError(f"cannot interpret generator spec {spec!r}")


def _build_factor(entry: Any) -> FiniteGroup:
    if not isinstance(entry, Mapping):
        raise ValueError(f"factor spec must be an object, got {entry!r}")
    keys = set(entry)
    if keys == {"cyclic"}:
        return make_cyclic(integer(entry["cyclic"], "cyclic"))
    if keys == {"table"}:
        table = entry["table"]
        if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
            raise ValueError(f"table must be a list of rows, got {table!r}")
        return make_finite_group(table)
    raise ValueError(f"factor spec must be {{'cyclic': k}} or {{'table': [[...]]}}, got {sorted(keys)}")


# Solver options a spec may set; WalkSpec's field defaults fill the rest.
_OPTIONS = {"tol": real, "max_iter": integer, "seed": integer}
_TOP_KEYS = {"factors", "measure", "generators", *_OPTIONS}


def parse_spec(data: Mapping[str, Any]) -> WalkSpec:
    """Parse a walk-spec mapping; unknown keys and mistyped values are an error."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a walk spec must be a JSON object, got {data!r}")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    measure = data.get("measure")
    if not isinstance(measure, Mapping):
        raise ValueError(f"spec needs a 'measure' object, got {measure!r}")
    factors = data.get("factors")
    declared = None if factors is None else FreeProduct(_items(factors, "factors", _build_factor))
    if "family" in measure:
        extra = {k: v for k, v in measure.items() if k != "family"}
        product, mu = build_family(measure["family"], **extra)
        orders = [g.order for g in product.factors]
        if declared is not None and [g.order for g in declared.factors] != orders:
            raise ValueError("declared factors disagree with the measure family")
    elif declared is None:
        raise ValueError("an explicit measure needs 'factors'")
    elif set(measure) != {"letters"} or not isinstance(measure["letters"], Mapping):
        raise ValueError("explicit measure must be {'letters': {...}}")
    else:
        product = declared
        table = {Letter.parse(k): real(v, f"mass of {k}") for k, v in measure["letters"].items()}
        mu = StepDistribution.from_dict(product, table)
    generators = resolve_generators(product, data.get("generators"))
    options = {name: parse(data[name], name) for name, parse in _OPTIONS.items() if name in data}
    return WalkSpec(product, mu, generators, **options)


def load_spec(path: str) -> WalkSpec:
    """Read and parse a JSON walk-spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(json.load(handle))
