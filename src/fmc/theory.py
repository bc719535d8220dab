"""Graded group data and evaluation of the decomposition formulas.

The decomposition of the configuration-space compactification X[n] is the
same index bookkeeping for every theory involved: a formal sum of terms
(m, i, mult) meaning "mult copies of the m-th cartesian power, shifted by
i".  What differs per theory is which outer indices it takes (level p,
degree k), how an out-of-range index is read, and how a group is named.
``THEORIES`` holds exactly these conventions, one ``Theory`` record per
kind: cycle-space homology ("lawson"), algebraic cycle classes ("chow"),
Deligne-Beilinson cohomology ("db") and Betti data ("betti").  Naming,
evaluation, the bundle read and index validation all read it:
each theory's range is one predicate, ``index_ok(p, k, e)``, which with e
omitted is the rule for an outer index and with e = m * dim the rule for a
descriptor record of the m-th power.  ``resolve_space`` alone turns
``--space`` into a space, ``_sum_terms`` alone reads shifted data, and one
accumulator adds up every direct sum.  ``SpaceDescriptor`` checks every
space's kind, Betti data and records, however built.

Groups are finitely generated abelian: a free rank plus cyclic torsion
orders, with an escape hatch of unevaluated formal terms for data the
tables cannot know (cycle-space homology groups need not be finitely
generated in general, and no integral product formula is assumed: tables
for cartesian powers must be supplied).  Betti data is a Poincare
polynomial P instead of tables, and so is the Lawson and Chow data of the
built-in projective spaces, whose groups are Betti numbers of their powers.
Such a space is read as one coefficient of the Poincare polynomial
``P_{X[n]} = sum_m B_{n,m}(q^2) P^m`` of X[n], in integers.  That
polynomial is built by Horner's rule in P on plain integers at a point and
unpacked by ``fmc.genfun._packed``, the kernel's packing: Betti numbers and
multiplicities are nonnegative, so its value at q = 1 bounds its
coefficients, and a Betti polynomial with a negative coefficient is refused.

``proj_bundle_table`` tabulates a projective bundle with (r - 1)-dimensional
fibers (rank parameter r) over a tabulated base: it sums shifts j = 0..r-1
of the base, through ``_sum_terms``, at each index the bundle can hold.  It
refuses Deligne-Beilinson data, whose levels no table window bounds.
Decompositions are evaluated at every index pair, though formulations of
the Deligne-Beilinson blowup sometimes carry the extra hypothesis level >=
codimension, which callers needing it must enforce themselves.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from math import inf

from . import BudgetError
from .genfun import FormalDecomposition, _check_dim, _packed, multiplicity_table
from .polyseries import IntPoly
from .record import Record

# What a negative shifted level reads: level 0, the zero group, or nothing
# evaluable (a formal summand in a decomposition, an error in a table read).
CLAMP, ZERO_READ, FORMAL = "clamp", "zero", "formal"

#: Most torsion orders and formal names one direct sum lists (once per copy).
SUMMAND_BUDGET = 10**6


class Theory(Record):
    """Index conventions of one theory.

    ``has_level`` and ``has_degree`` say which of the outer indices p and k
    the theory takes; the other one is refused.  A shift i lowers the level
    by i and the degree by 2i, on the slots the theory has.  A negative
    degree reads the zero group and a negative level follows
    ``negative_level``.  ``text`` and ``latex`` name a group from the power
    ``X``, the level ``p`` and the degree ``k``.  ``index_ok(p, k, e)`` is
    the range of a group on a variety of complex dimension e: with e
    omitted (no top bound) it is the outer-index rule, written
    ``index_rule``; with e = m * dim it is the rule for a descriptor record
    of the m-th power, written ``record_rule`` with the fields ``e``,
    ``two_e`` and ``two_e_1`` (2e and 2e + 1).
    """

    __slots__ = (
        "name", "has_level", "has_degree", "negative_level", "text", "latex",
        "index_rule", "index_ok", "record_rule",
    )

    def __init__(
        self,
        name: str,
        has_level: bool,
        has_degree: bool,
        negative_level: str,
        text: str,
        latex: str,
        index_rule: str = "",
        index_ok: Callable[..., bool] = lambda p, k, e=inf: True,
        record_rule: str = "",
    ) -> None:
        self._set(
            name=name, has_level=has_level, has_degree=has_degree,
            negative_level=negative_level, text=text, latex=latex,
            index_rule=index_rule, index_ok=index_ok, record_rule=record_rule,
        )

    def read_index(self, p: int, k: int, shift: int) -> tuple[int, int] | None:
        """The index a term shifted by ``shift`` reads at outer (p, k).

        None means the zero group; the level stays negative only under
        FORMAL.
        """
        p -= shift * self.has_level
        k -= 2 * shift * self.has_degree
        if k < 0 or (p < 0 and self.negative_level == ZERO_READ):
            return None
        if p < 0 and self.negative_level == CLAMP:
            p = 0
        return p, k


THEORIES = {
    theory.name: theory
    for theory in (
        Theory(
            "lawson", True, True, CLAMP, "L_{p}H_{k}({X})", "L_{{{p}}}H_{{{k}}}({X})",
            "k >= 2p >= 0", lambda p, k, e=inf: 0 <= 2 * p <= k <= 2 * e,
            "0 <= 2p <= k <= {two_e}",
        ),
        Theory(
            "chow", True, False, ZERO_READ, "Ch_{p}({X})", "\\mathrm{{Ch}}_{{{p}}}({X})",
            "p >= 0", lambda p, k, e=inf: 0 <= p <= e, "0 <= p <= {e}",
        ),
        Theory(
            "db", True, True, FORMAL, "H^{k}_D({X}, Z({p}))",
            "H^{{{k}}}_{{\\mathcal{{D}}}}({X},\\mathbb{{Z}}({p}))",
            "", lambda p, k, e=inf: k <= 2 * e + 1, "k <= {two_e_1}",
        ),
        Theory("betti", False, True, ZERO_READ, "H_{k}({X})", "H_{{{k}}}({X})"),
    )
}


def theory_of(kind: str) -> Theory:
    try:
        return THEORIES[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None


def check_index(kind: str, p: int | None, k: int | None) -> Theory:
    """Validate an outer index for ``kind`` and return its conventions."""
    theory = theory_of(kind)
    for slot, value, taken in (("p", p, theory.has_level), ("k", k, theory.has_degree)):
        if taken and value is None:
            raise ValueError(f"{kind} needs the index {slot}")
        if not taken and value is not None:
            raise ValueError(f"{kind} takes no index {slot}")
    if not theory.index_ok(p, k):
        raise ValueError(f"{kind} index must satisfy {theory.index_rule}")
    return theory


class GroupDescriptor(Record):
    """A finitely generated abelian group, plus optional formal summands.

    ``free_rank`` copies of Z, a cyclic summand Z/t for each torsion order
    t, and a list of named but unevaluated direct summands.  The zero group
    is ``GroupDescriptor()``.  Direct sums concatenate all three parts;
    torsion orders and formal names are kept sorted so the sum is
    commutative and associative on the nose.
    """

    __slots__ = ("free_rank", "torsion", "formal")

    def __init__(
        self, free_rank: int = 0, torsion: tuple[int, ...] = (), formal: tuple[str, ...] = ()
    ) -> None:
        torsion = tuple(sorted(int(t) for t in torsion))
        self._set(free_rank=free_rank, torsion=torsion, formal=tuple(sorted(formal)))
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion orders must be >= 2")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion and not self.formal

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        parts.extend(self.formal)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = GroupDescriptor()
Z_GROUP = GroupDescriptor(free_rank=1)


def _total(parts: Iterable[tuple[GroupDescriptor, int]]) -> GroupDescriptor:
    # The direct sum of ``copies`` copies of each group.  A group is scaled
    # rather than copied: ranks are summed, torsion orders and formal names
    # repeat, within the summand budget.
    rank, torsion, formal = 0, [], []
    for group, copies in parts:
        listed = len(torsion) + len(formal) + copies * (len(group.torsion) + len(group.formal))
        if listed > SUMMAND_BUDGET:
            raise BudgetError(f"summand budget exceeded: {listed} > {SUMMAND_BUDGET}")
        rank += copies * group.free_rank
        # An empty part is skipped: () * copies overflows once copies > sys.maxsize.
        if group.torsion:
            torsion.extend(group.torsion * copies)
        if group.formal:
            formal.extend(group.formal * copies)
    return GroupDescriptor(free_rank=rank, torsion=tuple(torsion), formal=tuple(formal))


class GradedTable(Record):
    """Map from index pairs (p, k) to groups; absent entries are zero.

    Entries with k < 0 are rejected at construction: negative degrees are
    zero by convention and may not be stored.  For "chow" data the degree
    slot is conventionally 0.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: dict[tuple[int, int], GroupDescriptor]) -> None:
        cleaned = {}
        for (p, k), g in groups.items():
            if k < 0:
                raise ValueError("graded table may not store entries with k < 0")
            if not g.is_zero:
                cleaned[(int(p), int(k))] = g
        self._set(groups=cleaned)

    def lookup(self, p: int, k: int) -> GroupDescriptor:
        return self.groups.get((p, k), ZERO_GROUP)


def _check_betti(betti: IntPoly, dim: int) -> None:
    # Betti numbers: nonnegative, which the packed Poincare pass relies on,
    # and none past the real dimension 2 * dim.
    if any(c < 0 for c in betti.coeffs):
        raise ValueError("Betti coefficients must be nonnegative")
    if betti.degree > 2 * dim:
        raise ValueError("Betti polynomial degree exceeds 2*dim")


def _check_record(theory: Theory, label: str, p: int, k: int, m: int, dim: int) -> None:
    # A stored group (p, k) of the m-th power keeps k = 0 if its theory takes
    # no degree, and lies in its range at complex dimension m * dim.
    if k != 0 and not theory.has_degree:
        raise ValueError(f"{label}: {theory.name} tables use k = 0")
    e = m * dim
    if not theory.index_ok(p, k, e):
        rule = theory.record_rule.format(e=e, two_e=2 * e, two_e_1=2 * e + 1)
        raise ValueError(f"{label}: {theory.name} records of X^{m} need {rule}")


class SpaceDescriptor(Record):
    """A named space with dimension, theory kind, and graded data.

    ``betti`` holds a Poincare polynomial, nonnegative and of degree at most
    2 * dim: the data of kind "betti", and of any Lawson or Chow space whose
    groups are its Betti numbers, ``L_pH_k = H_k`` and ``Ch_p = H_{2p}``
    (the built-in projective spaces and their powers).  Evaluation reads
    such a space as one coefficient of the Poincare polynomial of X[n].
    Other spaces store graded tables for the cartesian powers in ``powers``
    (the space itself is power 1); every stored group of the m-th power
    passes ``_check_record`` at e = m * dim, however the space is built.
    Deligne-Beilinson data has no Poincare-polynomial form.
    """

    __slots__ = ("name", "dim", "kind", "betti", "powers")

    def __init__(
        self,
        name: str,
        dim: int,
        kind: str,
        betti: IntPoly | None = None,
        powers: dict[int, GradedTable] | None = None,
    ) -> None:
        # No powers given means a fresh empty dict for this space alone.
        powers = {} if powers is None else powers
        self._set(name=name, dim=dim, kind=kind, betti=betti, powers=powers)
        theory = theory_of(kind)  # refuses an unknown kind
        for m, table in powers.items():
            for p, k in table.groups:
                _check_record(theory, f"power {m} index ({p}, {k})", p, k, m, dim)
        if betti is not None:
            if kind == "db":
                raise ValueError("Deligne-Beilinson data is a table, not a Poincare polynomial")
            _check_betti(betti, dim)


def _formal_term(kind: str, m: int, p: int, k: int) -> GroupDescriptor:
    # The group (p, k) of the m-th power, named and left unevaluated.
    name = theory_of(kind).text.format(X="X" if m == 1 else f"X^{m}", p=p, k=k)
    return GroupDescriptor(formal=(name,))


def term_group_name(
    kind: str, m: int, shift: int, p: int | None = None, k: int | None = None
) -> str:
    """Name of a term's group at an outer index, conventions applied.

    Returns "0" for terms that contribute the zero group at this index.
    """
    return str(_sum_terms([(m, shift, 1)], theory_of(kind), p, k, partial(_formal_term, kind)))


def _sum_terms(
    terms: Iterable[tuple[object, int, int]],
    theory: Theory,
    p: int | None,
    k: int | None,
    read: Callable[[object, int, int], GroupDescriptor],
) -> GroupDescriptor:
    # The one reader of shifted data: a term (source, shift, copies) counts
    # read(source, p', k') copies times, and read decides what a negative
    # level p' gives.  A slot the theory lacks is None here and reads as 0.
    p, k = p or 0, k or 0
    return _total(
        (read(source, *at), copies)
        for source, shift, copies in terms
        if (at := theory.read_index(p, k, shift)) is not None
    )


def formal_evaluation(
    dec: FormalDecomposition, kind: str, p: int | None = None, k: int | None = None
) -> GroupDescriptor:
    """Evaluate a decomposition into named formal summands only."""
    theory = check_index(kind, p, k)
    return _sum_terms(dec.terms, theory, p, k, partial(_formal_term, kind))


def _check_space_dim(space: SpaceDescriptor, d: int) -> None:
    if space.dim != d:
        raise ValueError(f"space dimension {space.dim} does not match decomposition d={d}")


def evaluate_decomposition(
    dec: FormalDecomposition,
    space: SpaceDescriptor,
    p: int | None = None,
    k: int | None = None,
) -> GroupDescriptor:
    """Direct sum over the decomposition terms of the space's graded data.

    A space with a Poincare polynomial is read as one coefficient of the
    Poincare polynomial of X[n] (``betti_of_fm``): ``H_k`` for Betti and
    Lawson data, ``H_{2p}`` for Chow.  Otherwise it needs a table for every
    power appearing in the terms.
    """
    _check_space_dim(space, dec.d)
    theory = check_index(space.kind, p, k)
    if space.betti is not None:
        # A term (m, i) reads [q^(k-2i)] P^m, or [q^(2p-2i)] P^m for Chow, so
        # the sum over terms is one coefficient of P_{X[n]}.  A clamped level
        # is never read, and a negative degree is a zero coefficient.
        poincare = _poincare(dec.rows, space.betti)
        return GroupDescriptor(free_rank=poincare.coefficient(k if theory.has_degree else 2 * p))
    for m, _, _ in dec.terms:
        if m not in space.powers:
            raise ValueError(f"space {space.name!r} has no table for power X^{m}")
    return _sum_terms(dec.terms, theory, p, k, lambda m, pp, kk: (
        _formal_term(space.kind, m, pp, kk) if pp < 0 else space.powers[m].lookup(pp, kk)
    ))


def betti_of_fm(betti_x: IntPoly, d: int, n: int) -> IntPoly:
    """Poincare polynomial of X[n] from the Poincare polynomial of X.

    It is ``sum_m B_{n,m}(q^2) * P_X^m``, with ``B_{n,m}`` the rows of the
    multiplicity table: a shift i multiplies by ``q^(2i)``.
    """
    _check_dim(d)
    _check_betti(betti_x, d)
    return _poincare(multiplicity_table(n, d).rows, betti_x)


def _poincare(rows: tuple[IntPoly, ...], betti_x: IntPoly) -> IntPoly:
    # sum_m B_{n,m}(q^2) P^m by Horner's rule in P, from m = n down to 1, on
    # integers at the points q = 1 and q = +-2^s that _packed asks for: n + 1
    # products, each by P(q) alone.  Every coefficient is nonnegative, so the
    # value at q = 1 bounds them.  Past q = 1, s is a multiple of 4, and each
    # row is read at q^2 = 4^s from its coefficients' bytes, 2s bits to a
    # slot, in time linear in its size.  A row's coefficients are at most
    # its value at 1, and so at most the bound, when P(1) >= 1; a zero P
    # makes every value 0.
    def at(q: int) -> list[int]:
        size = (q.bit_length() - 1) // 4
        p = betti_x(q)
        if not p:
            return [0]
        total = 0
        for row in reversed(rows):
            if size:
                packed = b"".join([a.to_bytes(size, "little") for a in row.coeffs])
                total = total * p + int.from_bytes(packed, "little")
            else:
                total = total * p + sum(row.coeffs)
        return [total * p]

    return _packed(at, 1)[0]


# ---------------------------------------------------------------------------
# Built-in sample spaces
# ---------------------------------------------------------------------------

POINT_TABLE = GradedTable({(0, 0): Z_GROUP})

# Sample spaces of dimension >= 1 only: a decomposition's d is >= 1 and must
# equal the space's dimension.  POINT_TABLE stays the base of the bundle oracle.
_BUILTIN_SPACES = {
    "projective-line": ("projective-line", 1),
    "p1": ("projective-line", 1),
    "projective-plane": ("projective-plane", 2),
    "p2": ("projective-plane", 2),
}


def proj_bundle_table(y: GradedTable, r: int, total_dim: int, kind: str) -> GradedTable:
    """Full graded table of a projective bundle over a tabulated base.

    The bundle has rank parameter r and complex dimension ``total_dim``.
    Each index (p, k) it can hold, ``index_ok(p, k, total_dim)``, gets
    ``sum_{j=0..r-1} y(p-j, k-2j)``.  A bad rank is refused even when that
    window is empty, and so is Deligne-Beilinson data, whose levels no
    window bounds.
    """
    if r < 1:
        raise ValueError("rank parameter must be >= 1")
    if kind == "db":
        raise ValueError("no Deligne-Beilinson bundle tables: levels are unbounded")
    # No read sees a negative level: Lawson clamps it, Chow zeroes it, Betti has none.
    theory = theory_of(kind)
    terms = [(y, j, 1) for j in range(r)]
    degrees = range(2 * total_dim + 1) if theory.has_degree else (0,)
    return GradedTable({
        (p, k): _sum_terms(terms, theory, p, k, GradedTable.lookup)
        for p in range(total_dim + 1)
        for k in degrees
        if theory.index_ok(p, k, total_dim)
    })


def builtin_space(name: str, kind: str) -> SpaceDescriptor:
    """One of the built-in sample spaces with data for the requested kind.

    Available names: projective-line (p1), projective-plane (p2).
    Every kind but Deligne-Beilinson carries the Poincare polynomial
    ``1 + q^2 + ... + q^(2a)`` of a-dimensional projective space, and the
    Lawson and Chow groups of its powers are read off the powers of that
    polynomial.  No built-in Deligne-Beilinson data ships: supply a
    descriptor file for that kind.
    """
    key = name.lower()
    if key not in _BUILTIN_SPACES:
        raise ValueError(f"unknown built-in space {name!r}")
    if kind == "db":
        raise ValueError("no built-in Deligne-Beilinson tables; supply a descriptor file")
    canonical, a = _BUILTIN_SPACES[key]
    return SpaceDescriptor(name=canonical, dim=a, kind=kind, betti=projective_betti(a))


def projective_betti(a: int) -> IntPoly:
    """The Poincare polynomial ``1 + q^2 + ... + q^(2a)`` of P^a."""
    return IntPoly([1, 0] * a + [1])


# ---------------------------------------------------------------------------
# Descriptor files
# ---------------------------------------------------------------------------

_TOP_FIELDS = {"name", "dim", "kind", "betti", "table", "powers"}
_RECORD_FIELDS = {"p", "k", "free_rank", "torsion"}


def _parse_table(records: object, kind: str, where: str, m: int, dim: int) -> GradedTable:
    """The graded table of the power ``X^m`` of a space of dimension ``dim``.

    A record must name a group the power can carry: ``index_ok`` of the
    kind's theory at e = m * dim, its complex dimension.  L_pH_k vanishes
    unless 0 <= 2p <= k <= 2e, Ch_p unless 0 <= p <= e, and H^k_D(Y, Z(p))
    unless k <= 2e + 1, at any level p (H. Esnault, E. Viehweg,
    *Deligne-Beilinson cohomology*, in *Beilinson's conjectures on special
    values of L-functions*, 1988).
    """
    theory = THEORIES[kind]
    if not isinstance(records, list):
        raise ValueError(f"{where}: expected a list of records")
    groups: dict[tuple[int, int], GroupDescriptor] = {}
    for idx, record in enumerate(records):
        label = f"{where}[{idx}]"
        if not isinstance(record, dict):
            raise ValueError(f"{label}: expected an object")
        unknown = set(record) - _RECORD_FIELDS
        if unknown:
            raise ValueError(f"{label}: unknown fields {sorted(unknown)}")
        for fld in ("p", "k", "free_rank"):
            if fld not in record:
                raise ValueError(f"{label}: missing field {fld!r}")
            if not isinstance(record[fld], int) or isinstance(record[fld], bool):
                raise ValueError(f"{label}: field {fld!r} must be an integer")
        p, k, rank = record["p"], record["k"], record["free_rank"]
        if k < 0:
            raise ValueError(f"{label}: k < 0 entries are zero and may not be stored")
        _check_record(theory, label, p, k, m, dim)
        if rank < 0:
            raise ValueError(f"{label}: free_rank must be nonnegative")
        torsion = record.get("torsion", [])
        if not isinstance(torsion, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) and t >= 2 for t in torsion
        ):
            raise ValueError(f"{label}: torsion must be a list of integers >= 2")
        if (p, k) in groups:
            raise ValueError(f"{label}: duplicate index ({p}, {k})")
        groups[(p, k)] = GroupDescriptor(free_rank=rank, torsion=tuple(torsion))
    return GradedTable(groups)


def parse_space(doc: object) -> SpaceDescriptor:
    """Build a space descriptor from a parsed document, validating strictly."""
    if not isinstance(doc, dict):
        raise ValueError("space descriptor must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    for fld in ("name", "dim", "kind"):
        if fld not in doc:
            raise ValueError(f"missing field {fld!r}")
    name, dim, kind = doc["name"], doc["dim"], doc["kind"]
    if not isinstance(name, str):
        raise ValueError("field 'name' must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("field 'dim' must be an integer >= 1")
    if kind not in THEORIES:
        raise ValueError(f"field 'kind' must be one of {list(THEORIES)}")
    if kind == "betti":
        if "table" in doc or "powers" in doc:
            raise ValueError("betti descriptors carry no tables")
        coeffs = doc.get("betti")
        if not isinstance(coeffs, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coeffs
        ):
            raise ValueError("field 'betti' must be a list of integers")
        return SpaceDescriptor(name=name, dim=dim, kind="betti", betti=IntPoly(coeffs))
    if "betti" in doc:
        raise ValueError(f"{kind} descriptors carry a 'table', not 'betti'")
    if "table" not in doc:
        raise ValueError("missing field 'table'")
    powers = {1: _parse_table(doc["table"], kind, "table", 1, dim)}
    raw_powers = doc.get("powers", {})
    if not isinstance(raw_powers, dict):
        raise ValueError("field 'powers' must be an object")
    for key, records in raw_powers.items():
        # Only the canonical spelling is accepted, so "2" and "02" cannot
        # both name power 2.
        digits = isinstance(key, str) and key.isascii() and key.isdigit()
        if not digits or str(int(key)) != key:
            raise ValueError(f"powers key {key!r} is not a canonical decimal integer")
        m = int(key)
        if m < 2:
            raise ValueError("powers keys must be >= 2 (power 1 is 'table')")
        powers[m] = _parse_table(records, kind, f"powers[{key}]", m, dim)
    return SpaceDescriptor(name=name, dim=dim, kind=kind, powers=powers)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r} in descriptor file")
        doc[key] = value
    return doc


def load_space(path: str) -> SpaceDescriptor:
    """Read and validate a space descriptor file (JSON); duplicate keys are errors."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_reject_duplicate_keys)
        except RecursionError:
            raise ValueError(f"descriptor file {path!r} is nested too deeply") from None
    return parse_space(doc)


def resolve_space(spec: str, kind: str, d: int) -> SpaceDescriptor:
    """The built-in space or descriptor file ``spec``, checked for ``kind`` and dimension d."""
    if spec.lower() in _BUILTIN_SPACES:
        space = builtin_space(spec, kind)
    else:
        space = load_space(spec)
        if space.kind != kind:
            raise ValueError(f"space kind {space.kind!r} does not match --theory {kind!r}")
    _check_space_dim(space, d)
    return space
