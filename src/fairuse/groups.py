"""Categorical group attributes and the product space of intersectional groups.

A group space is an ordered sequence of named attributes, each with an ordered
value domain. An intersectional group (one cell of the product space) is a
tuple holding one value per attribute, in attribute order. The first value of
each domain is the reference level used by indicator encodings, and the first
cell of the space is the reference cell.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product


class DomainError(ValueError):
    """A group value falls outside its attribute's declared domain."""


class _Sentinel:
    """Named singleton used for special "reported group" and "group" values."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


#: Reported-group sentinel: the person declines to report a group; predictions
#: come from the paired generic model.
WITHHELD = _Sentinel("WITHHELD")

#: Group sentinel meaning "all rows regardless of group".
ALL = _Sentinel("ALL")

#: Reported-group sentinel: every row reports its own true group.
TRUTHFUL = _Sentinel("TRUTHFUL")


@dataclass(frozen=True)
class GroupId:
    """One intersectional group: one value per attribute, in space order.

    `text`, the values joined by commas, is made once at construction;
    `str` returns it. It takes no part in equality, hash or repr."""

    values: tuple

    def __post_init__(self):
        values = tuple(str(v) for v in self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "text", ",".join(values))

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class GroupSpace:
    """Ordered group attributes with ordered value domains.

    attributes: tuple of (name, tuple_of_values). Every domain needs at least
    two values; names must be unique; values within a domain must be unique.
    With two or more attributes no value may contain ",", so every cell's
    label is its own.
    """

    attributes: tuple

    def __post_init__(self):
        attrs = tuple((str(name), tuple(str(v) for v in values))
                      for name, values in self.attributes)
        object.__setattr__(self, "attributes", attrs)
        if not attrs:
            raise DomainError("a group space needs at least one attribute")
        names = [name for name, _ in attrs]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate attribute names: {names}")
        for name, values in attrs:
            if len(values) < 2:
                raise DomainError(
                    f"attribute {name!r} has {len(values)} value(s); every "
                    "domain needs at least two (declare the full domain if "
                    "some values are unobserved)")
            if len(set(values)) != len(values):
                raise DomainError(f"attribute {name!r} has duplicate values")
            joined = [v for v in values if "," in v]
            if joined and len(attrs) > 1:
                raise DomainError(
                    f"value {joined[0]!r} of attribute {name!r} contains "
                    "','; a group's label joins its values with ',', so "
                    "two groups could share one")

    @property
    def names(self):
        return tuple(name for name, _ in self.attributes)

    @property
    def domains(self):
        return tuple(values for _, values in self.attributes)

    @property
    def k(self):
        return len(self.attributes)

    @property
    def m(self):
        out = 1
        for _, values in self.attributes:
            out *= len(values)
        return out

    @cached_property
    def _cells(self):
        return tuple(GroupId(values) for values in product(*self.domains))

    def cells(self):
        """All intersectional groups, first attribute varying slowest."""
        return self._cells

    def validate(self, gid):
        """Raise DomainError unless gid is a valid cell of this space."""
        if not isinstance(gid, GroupId):
            raise DomainError(f"expected a GroupId, got {type(gid).__name__}")
        if len(gid.values) != self.k:
            raise DomainError(
                f"group {gid} has {len(gid.values)} values; space has "
                f"{self.k} attributes")
        for (name, values), v in zip(self.attributes, gid.values):
            if v not in values:
                raise DomainError(
                    f"value {v!r} not in domain of attribute {name!r}: "
                    f"{values}")
        return gid

    def index_of(self, gid):
        """Position of gid in cells() order."""
        self.validate(gid)
        idx = 0
        for (_, values), v in zip(self.attributes, gid.values):
            idx = idx * len(values) + values.index(v)
        return idx

    def group(self, *values):
        """Convenience constructor for a validated GroupId."""
        return self.validate(GroupId(tuple(values)))
