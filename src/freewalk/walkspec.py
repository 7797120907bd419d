"""Walk specification files and named measure families.

A walk spec is JSON-compatible: a list of factors (each ``{"cyclic": k}``
or ``{"table": [[...]]}``), a measure (explicit letter map or a named
family with parameters), an optional generating set (``"natural"``,
``"minimal"``, or a list of letters), and solver options.  Letters are
written ``"factor:elem"``.  Unknown keys are rejected.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .groups import (
    FiniteGroup,
    FreeProduct,
    Letter,
    free_product_of_cyclics,
    make_cyclic,
    make_finite_group,
)
from .metrics import extremal_measure
from .traffic import DEFAULT_MAX_ITER, DEFAULT_TOL, StepDistribution


def default_tolerance() -> float:
    """Solver tolerance, overridable through the FREEWALK_TOL variable."""
    env = os.environ.get("FREEWALK_TOL")
    return float(env) if env else DEFAULT_TOL


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


def zkzk_simple(k: int) -> tuple[FreeProduct, StepDistribution]:
    """Simple walk on Z/k * Z/k over minimal generators: 1/4 on a, a^-1, b, b^-1."""
    if k < 3:
        raise ValueError("k must be >= 3 (k = 2 gives the recurrent Z/2 * Z/2)")
    product = free_product_of_cyclics(k, k)
    table = {
        Letter(0, 1): 0.25,
        Letter(0, k - 1): 0.25,
        Letter(1, 1): 0.25,
        Letter(1, k - 1): 0.25,
    }
    return product, StepDistribution.from_dict(product, table)


def hecke_simple(k: int) -> tuple[FreeProduct, StepDistribution]:
    """Simple walk on Z/2 * Z/k: 1/3 on a, b, b^-1."""
    if k < 3:
        raise ValueError("k must be >= 3")
    product = free_product_of_cyclics(2, k)
    third = 1.0 / 3.0
    table = {Letter(0, 1): third, Letter(1, 1): third, Letter(1, k - 1): third}
    return product, StepDistribution.from_dict(product, table)


def z2z3_walk(p: float, q: float) -> tuple[FreeProduct, StepDistribution]:
    """General walk on Z/2 * Z/3: mu(a) = 1-p-q, mu(b) = p, mu(b^2) = q."""
    product = free_product_of_cyclics(2, 3)
    table = {Letter(0, 1): 1.0 - p - q, Letter(1, 1): p, Letter(1, 2): q}
    return product, StepDistribution.from_dict(product, table)


def z3z3_sym(p: float) -> tuple[FreeProduct, StepDistribution]:
    """Z/3 * Z/3 with mu(a) = mu(b) = p and mu(a^2) = mu(b^2) = 1/2 - p."""
    product = free_product_of_cyclics(3, 3)
    q = 0.5 - p
    table = {Letter(0, 1): p, Letter(0, 2): q, Letter(1, 1): p, Letter(1, 2): q}
    return product, StepDistribution.from_dict(product, table)


def z3z3_asym(p: float, q: float) -> tuple[FreeProduct, StepDistribution]:
    """Z/3 * Z/3 with mu(a) = p, mu(a^2) = q, mu(b) = mu(b^2) = (1-p-q)/2."""
    product = free_product_of_cyclics(3, 3)
    s = (1.0 - p - q) / 2.0
    table = {Letter(0, 1): p, Letter(0, 2): q, Letter(1, 1): s, Letter(1, 2): s}
    return product, StepDistribution.from_dict(product, table)


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
    product = free_product_of_cyclics(2, 2, 2)
    table = {Letter(0, 1): p, Letter(1, 1): p, Letter(2, 1): 1.0 - 2.0 * p}
    return product, StepDistribution.from_dict(product, table)


FAMILIES = {
    "zkzk-simple": (zkzk_simple, ("k",)),
    "hecke-simple": (hecke_simple, ("k",)),
    "z2z3": (z2z3_walk, ("p", "q")),
    "z3z3-sym": (z3z3_sym, ("p",)),
    "z3z3-asym": (z3z3_asym, ("p", "q")),
    "uniform-per-factor": (uniform_per_factor, ("orders", "weights")),
    "extremal": (extremal_walk, ("orders",)),
    "z2z2z2": (z2z2z2, ("p",)),
}


def build_family(name: str, **params: Any) -> tuple[FreeProduct, StepDistribution]:
    """Instantiate a named measure family; see FAMILIES for parameters."""
    try:
        fn, argnames = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}") from None
    unknown = set(params) - set(argnames)
    if unknown:
        raise ValueError(f"family {name!r} does not take {sorted(unknown)}")
    required = [a for a, p in inspect.signature(fn).parameters.items() if p.default is p.empty]
    missing = [a for a in required if a not in params]
    if missing:
        raise ValueError(f"family {name!r} needs {', '.join(missing)}")
    return fn(**params)


def minimal_generators(product: FreeProduct) -> tuple[Letter, ...]:
    """For cyclic factors, {g, g^-1} per factor (one letter when order 2)."""
    gens: list[Letter] = []
    for i, group in enumerate(product.factors):
        single = Letter(i, 1)
        if len({group.mul[1][e] for e in range(group.order)}) != group.order:
            raise ValueError(f"factor {i} is not cyclic around element 1; give generators explicitly")
        # element 1 must actually generate the factor
        closure = {0}
        x = 0
        for _ in range(group.order):
            x = group.mul[x][1]
            closure.add(x)
        if len(closure) != group.order:
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


def _build_factor(entry: Mapping[str, Any]) -> FiniteGroup:
    keys = set(entry)
    if keys == {"cyclic"}:
        return make_cyclic(int(entry["cyclic"]))
    if keys == {"table"}:
        return make_finite_group(entry["table"])
    raise ValueError(f"factor spec must be {{'cyclic': k}} or {{'table': [[...]]}}, got {sorted(keys)}")


_TOP_KEYS = {"factors", "measure", "generators", "tol", "max_iter", "seed"}


def parse_spec(data: Mapping[str, Any]) -> WalkSpec:
    """Parse a walk-spec mapping; unknown keys are an error."""
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    if "factors" not in data and "measure" not in data:
        raise ValueError("spec needs 'factors' and/or a family 'measure'")
    measure = data.get("measure")
    if measure is None:
        raise ValueError("spec needs a 'measure'")
    if "family" in measure:
        extra = {k: v for k, v in measure.items() if k != "family"}
        product, mu = build_family(measure["family"], **extra)
        if "factors" in data:
            declared = FreeProduct([_build_factor(f) for f in data["factors"]])
            if [g.order for g in declared.factors] != [g.order for g in product.factors]:
                raise ValueError("declared factors disagree with the measure family")
    else:
        if "factors" not in data:
            raise ValueError("an explicit measure needs 'factors'")
        product = FreeProduct([_build_factor(f) for f in data["factors"]])
        if set(measure) != {"letters"}:
            raise ValueError("explicit measure must be {'letters': {...}}")
        table = {Letter.parse(k): float(v) for k, v in measure["letters"].items()}
        mu = StepDistribution.from_dict(product, table)
    return WalkSpec(
        product=product,
        mu=mu,
        generators=resolve_generators(product, data.get("generators")),
        tol=float(data.get("tol", default_tolerance())),
        max_iter=int(data.get("max_iter", DEFAULT_MAX_ITER)),
        seed=int(data.get("seed", 20240809)),
    )


def load_spec(path: str) -> WalkSpec:
    """Read and parse a JSON walk-spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(json.load(handle))
